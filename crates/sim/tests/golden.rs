//! Golden fingerprints of whole simulator runs.
//!
//! `engine_equivalence` compares the two drivers over the same machine
//! state, so a change to that state itself (the coherence directory, the
//! transfer path) would move both drivers together and pass unnoticed.
//! These tests pin the absolute outcome instead: one [`Fingerprint`] over
//! the `EventLogProbe` event log, the final `SimStats` and the
//! `injected_faults()` records, for every protocol preset on three
//! scenarios, under both drivers. A digest that moves means an output
//! moved; re-record only for a change that is meant to alter behaviour.

mod common;

use cohort_sim::{EngineKind, EventLogProbe, FaultPlan, SimBuilder, SimConfig};
use cohort_trace::{micro, Kernel, KernelSpec, Workload};
use cohort_types::{Cycles, Fingerprint, TimerValue};
use common::preset_configs;

/// Runs one scenario under `engine` and digests everything it produced.
fn run_digest(
    config: &SimConfig,
    workload: &Workload,
    plan: &FaultPlan,
    switches: &[(Cycles, Vec<TimerValue>)],
    engine: EngineKind,
) -> Fingerprint {
    let mut sim = SimBuilder::new(config.clone(), workload)
        .probe(EventLogProbe::new())
        .faults(plan.clone())
        .engine(engine)
        .build()
        .unwrap();
    for (at, timers) in switches {
        sim.schedule_timer_switch(*at, timers.clone()).unwrap();
    }
    let stats = sim.run().unwrap();
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

/// Checks every preset's digest on one scenario against `golden`, listed
/// in `preset_configs` order; a mismatch prints the actual list.
fn assert_golden(
    scenario: &str,
    workload: &Workload,
    plan: &FaultPlan,
    switches: &[(Cycles, Vec<TimerValue>)],
    golden: &[&str],
) {
    let mut actual = Vec::new();
    for (name, config) in preset_configs(workload.cores()) {
        let event = run_digest(&config, workload, plan, switches, EngineKind::EventDriven);
        let legacy = run_digest(&config, workload, plan, switches, EngineKind::CycleRound);
        assert_eq!(event, legacy, "{scenario} / {name}: drivers disagree");
        actual.push(event.to_hex());
    }
    assert_eq!(actual, golden, "{scenario}: digests moved");
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
