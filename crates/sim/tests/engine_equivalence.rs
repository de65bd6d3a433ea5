//! Cross-engine equivalence: the event-driven scheduler must be
//! bit-identical to the legacy cycle-round engine — same event log, same
//! final stats, same injected-fault records — on every protocol preset.
//!
//! These are written as plain `#[test]` loops over seeded workloads (not
//! `proptest!`) so they execute under the offline stub harness too; the
//! seeds make every run reproducible.

mod common;

use cohort_sim::{compare_engines, FaultPlan, SimConfig};
use cohort_trace::{micro, Kernel, KernelSpec, Workload};
use cohort_types::{Cycles, TimerValue};
use common::preset_configs;

/// Asserts both engines agree, with a hint naming the failing case.
fn assert_identical(
    config: &SimConfig,
    workload: &Workload,
    plan: &FaultPlan,
    switches: &[(Cycles, Vec<TimerValue>)],
    label: &str,
) {
    let cmp = compare_engines(config, workload, plan, switches)
        .unwrap_or_else(|e| panic!("{label}: comparison run failed: {e}"));
    assert!(cmp.is_identical(), "{label}: {}", cmp.describe());
}

#[test]
fn engines_agree_on_seeded_random_workloads() {
    let empty = FaultPlan::empty();
    for seed in 0..6u64 {
        let w = micro::random_shared(4, 32, 160, 0.5, seed);
        for (name, config) in preset_configs(4) {
            assert_identical(&config, &w, &empty, &[], &format!("random seed {seed} / {name}"));
        }
    }
}

#[test]
fn engines_agree_on_micro_patterns() {
    let empty = FaultPlan::empty();
    let patterns: Vec<(&str, Workload)> = vec![
        ("ping_pong", micro::ping_pong(4, 12)),
        ("streaming", micro::streaming(4, 64)),
        ("line_bursts", micro::line_bursts(4, 4, 6)),
        ("private_reuse", micro::private_reuse(4, 8, 64)),
        ("figure1", micro::figure1(100)),
        ("figure4", micro::figure4()),
    ];
    for (wname, w) in &patterns {
        let cores = w.cores();
        for (cname, config) in preset_configs(cores) {
            assert_identical(&config, w, &empty, &[], &format!("{wname} / {cname}"));
        }
    }
}

#[test]
fn engines_agree_on_kernel_workloads() {
    let empty = FaultPlan::empty();
    for kernel in [Kernel::Fft, Kernel::Ocean] {
        let w = KernelSpec::new(kernel, 4).with_total_requests(1_500).generate();
        for (name, config) in preset_configs(4) {
            assert_identical(&config, &w, &empty, &[], &format!("{kernel:?} / {name}"));
        }
    }
}

#[test]
fn engines_agree_under_scheduled_mode_switches() {
    let empty = FaultPlan::empty();
    let w = micro::random_shared(4, 24, 200, 0.6, 11);
    let tight = vec![TimerValue::timed(20).unwrap(); 4];
    let loose = vec![TimerValue::timed(400).unwrap(); 4];
    let msi = vec![TimerValue::Msi; 4];
    for (name, config) in preset_configs(4) {
        let switches = vec![
            (Cycles::new(500), tight.clone()),
            (Cycles::new(2_000), msi.clone()),
            (Cycles::new(5_000), loose.clone()),
        ];
        assert_identical(&config, &w, &empty, &switches, &format!("switches / {name}"));
    }
}

#[test]
fn engines_agree_under_fault_injection() {
    for seed in [3u64, 17, 42] {
        let w = micro::random_shared(4, 24, 200, 0.5, seed);
        let plan = FaultPlan::seeded(seed, 4, 20_000, 12);
        assert!(!plan.is_empty(), "seeded fault plan must be non-empty");
        for (name, config) in preset_configs(4) {
            assert_identical(&config, &w, &plan, &[], &format!("faults seed {seed} / {name}"));
        }
    }
}

#[test]
fn engines_agree_with_faults_and_switches_together() {
    let w = micro::random_shared(4, 16, 240, 0.7, 23);
    let plan = FaultPlan::seeded(23, 4, 30_000, 8);
    let switches = vec![
        (Cycles::new(1_000), vec![TimerValue::timed(25).unwrap(); 4]),
        (Cycles::new(4_000), vec![TimerValue::Msi; 4]),
    ];
    for (name, config) in preset_configs(4) {
        assert_identical(&config, &w, &plan, &switches, &format!("faults+switches / {name}"));
    }
}

#[test]
fn engines_agree_on_single_core_and_wide_configs() {
    let empty = FaultPlan::empty();
    let single = micro::streaming(1, 40);
    assert_identical(&SimConfig::builder(1).build().unwrap(), &single, &empty, &[], "single core");
    let wide = micro::random_shared(8, 64, 400, 0.4, 31);
    for (name, config) in preset_configs(8) {
        assert_identical(&config, &wide, &empty, &[], &format!("8-core / {name}"));
    }
}
