//! Scenario fixtures shared by the engine test suites.

use cohort_sim::{ArbiterKind, CacheGeometry, DataPath, LlcModel, ProtocolFlavor, SimConfig};
use cohort_types::TimerValue;

/// The paper's protocol presets, exercised on every scenario.
pub fn preset_configs(cores: usize) -> Vec<(String, SimConfig)> {
    let timed = vec![TimerValue::timed(30).unwrap(); cores];
    let slow = vec![TimerValue::timed(300).unwrap(); cores];
    vec![
        ("msi_rrof".into(), SimConfig::builder(cores).build().unwrap()),
        ("cohort_timed".into(), SimConfig::builder(cores).timers(timed.clone()).build().unwrap()),
        (
            "pcc_staged".into(),
            SimConfig::builder(cores).data_path(DataPath::ViaSharedMemory).build().unwrap(),
        ),
        (
            "pendulum_tdm".into(),
            SimConfig::builder(cores)
                .timers(slow)
                .arbiter(ArbiterKind::Tdm { critical: vec![true; cores] })
                .waiter_priority(vec![true; cores])
                .build()
                .unwrap(),
        ),
        ("msi_fcfs".into(), SimConfig::builder(cores).arbiter(ArbiterKind::Fcfs).build().unwrap()),
        (
            "msi_round_robin".into(),
            SimConfig::builder(cores).arbiter(ArbiterKind::RoundRobin).build().unwrap(),
        ),
        (
            "mesi_rrof".into(),
            SimConfig::builder(cores).flavor(ProtocolFlavor::Mesi).build().unwrap(),
        ),
        (
            "mixed_timers_finite_llc".into(),
            SimConfig::builder(cores)
                .timers(
                    (0..cores)
                        .map(|i| {
                            if i % 2 == 0 {
                                TimerValue::timed(40 + 10 * i as u64).unwrap()
                            } else {
                                TimerValue::Msi
                            }
                        })
                        .collect(),
                )
                .llc(LlcModel::Finite(CacheGeometry::new(4096, 64, 4).unwrap()))
                .build()
                .unwrap(),
        ),
    ]
}
