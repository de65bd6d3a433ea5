//! Golden fingerprints of whole simulator runs.
//!
//! These tests pin the absolute outcome of the simulator: one
//! [`Fingerprint`] over the `EventLogProbe` event log, the final
//! `SimStats` and the `injected_faults()` records, for every protocol
//! preset. Three scenarios pin one digest per preset; each remaining
//! scenario family (seeded random workloads, micro patterns, kernels,
//! scheduled switches, fault seeds, fault seeds with timer switches,
//! single-core and 8-core machines) pins one digest folded over its
//! cases. Every case also runs with no probe and must reproduce the probed
//! run's statistics and fault records, so the `NoProbe` engine the
//! benchmarks use is pinned too. A digest that moves means an output
//! moved; re-record only for a change that is meant to alter behaviour.

mod common;

use cohort_sim::{EventLogProbe, FaultPlan, SimBuilder, SimConfig};
use cohort_trace::{micro, Kernel, KernelSpec, Workload};
use cohort_types::{Cycles, Fingerprint, TimerValue};
use common::preset_configs;

/// Runs one scenario and digests everything it produced. The same
/// scenario also runs with no probe (the `NoProbe` specialisation every
/// benchmark uses), which must reproduce the probed run's statistics and
/// fault records exactly.
fn run_digest(
    config: &SimConfig,
    workload: &Workload,
    plan: &FaultPlan,
    switches: &[(Cycles, Vec<TimerValue>)],
) -> Fingerprint {
    let mut plain = SimBuilder::new(config.clone(), workload).faults(plan.clone()).build().unwrap();
    let mut sim = SimBuilder::new(config.clone(), workload)
        .probe(EventLogProbe::new())
        .faults(plan.clone())
        .build()
        .unwrap();
    for (at, timers) in switches {
        plain.schedule_timer_switch(*at, timers.clone()).unwrap();
        sim.schedule_timer_switch(*at, timers.clone()).unwrap();
    }
    let plain_stats = plain.run().unwrap();
    let stats = sim.run().unwrap();
    assert_eq!(plain_stats, stats, "the no-probe run's statistics differ from the probed run's");
    assert_eq!(
        plain.injected_faults(),
        sim.injected_faults(),
        "the no-probe run's injected faults differ from the probed run's"
    );
    let mut b = Fingerprint::builder();
    for fault in sim.injected_faults() {
        b = b.text(&format!("{fault:?}"));
    }
    b = b.text(&format!("{stats:?}"));
    for event in sim.into_probe().iter() {
        b = b.text(&format!("{event:?}"));
    }
    b.finish()
}

/// Every preset's digest on one scenario, in `preset_configs` order and
/// labelled `scenario / preset`.
fn preset_digests(
    scenario: &str,
    workload: &Workload,
    plan: &FaultPlan,
    switches: &[(Cycles, Vec<TimerValue>)],
) -> Vec<(String, Fingerprint)> {
    preset_configs(workload.cores())
        .into_iter()
        .map(|(name, config)| {
            (format!("{scenario} / {name}"), run_digest(&config, workload, plan, switches))
        })
        .collect()
}

/// Checks every preset's digest on one scenario against `golden`, listed
/// in `preset_configs` order; a mismatch prints the actual list.
fn assert_golden(
    scenario: &str,
    workload: &Workload,
    plan: &FaultPlan,
    switches: &[(Cycles, Vec<TimerValue>)],
    golden: &[&str],
) {
    let actual: Vec<String> = preset_digests(scenario, workload, plan, switches)
        .into_iter()
        .map(|(_, digest)| digest.to_hex())
        .collect();
    assert_eq!(actual, golden, "{scenario}: digests moved");
}

/// Folds a family's per-case digests, in order, into one digest and checks
/// it against `golden`; a mismatch prints every case's digest.
fn assert_family(family: &str, cases: &[(String, Fingerprint)], golden: &str) {
    let folded =
        cases.iter().fold(Fingerprint::builder(), |b, (_, digest)| b.text(&digest.to_hex()));
    let folded = folded.finish().to_hex();
    let list: Vec<String> =
        cases.iter().map(|(label, digest)| format!("  {label}: {digest}")).collect();
    assert_eq!(folded, golden, "{family}: digests moved; per case:\n{}", list.join("\n"));
}

#[test]
fn random_shared_runs_are_pinned() {
    let w = micro::random_shared(4, 32, 160, 0.5, 0);
    assert_golden(
        "random_shared",
        &w,
        &FaultPlan::empty(),
        &[],
        &[
            "90678098045141d9bc0222b5309da87a",
            "e9662c88a31fa2fec5a77165bb0e3cad",
            "6feb8eeec9459488c7083d0f6b75cb1b",
            "f8616db45f673246bbc9f82b40292777",
            "ed0deaead5eb81839e28a3bba2dbd704",
            "90678098045141d9bc0222b5309da87a",
            "6d87166e3dcbd1ef053f86f614df5448",
            "eaffe6f7ecbd79ac9bc3a7b4b4818ca7",
        ],
    );
}

#[test]
fn fft_runs_are_pinned() {
    let w = KernelSpec::new(Kernel::Fft, 4).with_total_requests(1_500).generate();
    assert_golden(
        "fft",
        &w,
        &FaultPlan::empty(),
        &[],
        &[
            "a6c0392740442adf2bafb0dbd48680d6",
            "e99f81b294d664e02ce480657efde345",
            "a6c0392740442adf2bafb0dbd48680d6",
            "8007a709a72c82cbbf53277fc78890c8",
            "1bf3c6a0376bbbf742bdd676f48178ce",
            "a6c0392740442adf2bafb0dbd48680d6",
            "91d16ebba203c8554789a49a37f0dde4",
            "46e7337770482157dd6c9bfcef4ad9e4",
        ],
    );
}

#[test]
fn faulted_runs_with_mode_switches_are_pinned() {
    let w = micro::random_shared(4, 16, 240, 0.7, 23);
    let plan = FaultPlan::seeded(23, 4, 30_000, 8);
    let switches = vec![
        (Cycles::new(1_000), vec![TimerValue::timed(25).unwrap(); 4]),
        (Cycles::new(4_000), vec![TimerValue::Msi; 4]),
    ];
    assert_golden(
        "faults+switches",
        &w,
        &plan,
        &switches,
        &[
            "0da669e29f543789c3002d7443348900",
            "c659fc6e06f15b15d4aa63b5143b3fe0",
            "8a1015343855b970ae5b19b14e5e8b75",
            "7e94eee6a0fa0a1391f934c1ff04b13e",
            "0da669e29f543789c3002d7443348900",
            "c5fe13bf7363b08107d8a171f17898e4",
            "e7957f59c069568f308b2901f8816530",
            "bd1ffbc2a6637e4c75059801db983dc1",
        ],
    );
}

#[test]
fn seeded_random_workloads_are_pinned() {
    let mut cases = Vec::new();
    for seed in 0..6u64 {
        let w = micro::random_shared(4, 32, 160, 0.5, seed);
        cases.extend(preset_digests(&format!("random seed {seed}"), &w, &FaultPlan::empty(), &[]));
    }
    assert_family("random_shared seeds", &cases, "0f2545da9bd381dd36616f8949fcc836");
}

#[test]
fn micro_patterns_are_pinned() {
    let patterns: Vec<(&str, Workload)> = vec![
        ("ping_pong", micro::ping_pong(4, 12)),
        ("streaming", micro::streaming(4, 64)),
        ("line_bursts", micro::line_bursts(4, 4, 6)),
        ("private_reuse", micro::private_reuse(4, 8, 64)),
        ("figure1", micro::figure1(100)),
        ("figure4", micro::figure4()),
    ];
    let mut cases = Vec::new();
    for (name, w) in &patterns {
        cases.extend(preset_digests(name, w, &FaultPlan::empty(), &[]));
    }
    assert_family("micro patterns", &cases, "532f482634dd20417a7c8e4142792762");
}

#[test]
fn kernel_workloads_are_pinned() {
    let mut cases = Vec::new();
    for kernel in [Kernel::Fft, Kernel::Ocean] {
        let w = KernelSpec::new(kernel, 4).with_total_requests(1_500).generate();
        cases.extend(preset_digests(&format!("{kernel:?}"), &w, &FaultPlan::empty(), &[]));
    }
    assert_family("kernels", &cases, "cee66628b60e019031ecf21587826f7f");
}

#[test]
fn scheduled_mode_switches_are_pinned() {
    let w = micro::random_shared(4, 24, 200, 0.6, 11);
    let switches = vec![
        (Cycles::new(500), vec![TimerValue::timed(20).unwrap(); 4]),
        (Cycles::new(2_000), vec![TimerValue::Msi; 4]),
        (Cycles::new(5_000), vec![TimerValue::timed(400).unwrap(); 4]),
    ];
    let cases = preset_digests("switches", &w, &FaultPlan::empty(), &switches);
    assert_family("scheduled switches", &cases, "c1cca23ff46e1fc74da851c3e01d9da0");
}

#[test]
fn fault_injection_runs_are_pinned() {
    let mut cases = Vec::new();
    for seed in [3u64, 17, 42] {
        let w = micro::random_shared(4, 24, 200, 0.5, seed);
        let plan = FaultPlan::seeded(seed, 4, 20_000, 12);
        assert!(!plan.is_empty(), "seeded fault plan must be non-empty");
        cases.extend(preset_digests(&format!("faults seed {seed}"), &w, &plan, &[]));
    }
    assert_family("fault seeds", &cases, "ac1e7571c5f772a33a5a449a5a7e0308");
}

#[test]
fn faults_and_switches_together_are_pinned() {
    let switches = vec![
        (Cycles::new(1_000), vec![TimerValue::timed(25).unwrap(); 4]),
        (Cycles::new(4_000), vec![TimerValue::Msi; 4]),
    ];
    let mut cases = Vec::new();
    for seed in [23u64, 7, 58] {
        let w = micro::random_shared(4, 16, 240, 0.7, seed);
        let plan = FaultPlan::seeded(seed, 4, 30_000, 8);
        assert!(!plan.is_empty(), "seeded fault plan must be non-empty");
        cases.extend(preset_digests(&format!("faults+switches seed {seed}"), &w, &plan, &switches));
    }
    assert_family("fault seeds with switches", &cases, "d5127715873509f132160e6cb3a7370e");
}

#[test]
fn single_core_and_wide_runs_are_pinned() {
    let empty = FaultPlan::empty();
    let single = micro::streaming(1, 40);
    let config = SimConfig::builder(1).build().unwrap();
    let mut cases = vec![("single core".to_string(), run_digest(&config, &single, &empty, &[]))];
    let wide = micro::random_shared(8, 64, 400, 0.4, 31);
    cases.extend(preset_digests("8-core", &wide, &empty, &[]));
    assert_family("single-core and 8-core", &cases, "c0b0016b2d286a631ae9a1d43b18605e");
}
