//! Soundness of the analysis against the simulator: every analytical bound
//! must dominate the corresponding measurement, and every guaranteed hit
//! must actually hit. These are the properties Figure 5's "experimental
//! under analytical" T-bars rest on.

use cohort_prop::prelude::*;

use cohort_analysis::{
    analyze_cohort, analyze_pcc, analyze_pendulum, wcl_pendulum, PendulumParams,
};
use cohort_sim::{ArbiterKind, DataPath, SimBuilder, SimConfig};
use cohort_trace::{AccessKind, Trace, TraceOp, Workload};
use cohort_types::{Cycles, LatencyConfig, LineAddr, TimerValue};

fn timed(theta: u64) -> TimerValue {
    TimerValue::timed(theta).unwrap()
}

/// Random small workloads with burst-shaped reuse so that guaranteed hits
/// actually occur (pure random traces rarely re-touch a line in time).
fn workload_strategy(cores: usize) -> impl Strategy<Value = Workload> {
    let burst =
        (0u64..16, any::<bool>(), 1usize..5, 0u64..6).prop_map(|(line, store, extra, gap)| {
            let mut ops = vec![TraceOp::new(
                LineAddr::new(line),
                if store { AccessKind::Store } else { AccessKind::Load },
                Cycles::new(gap),
            )];
            for _ in 0..extra {
                ops.push(TraceOp::new(LineAddr::new(line), AccessKind::Load, Cycles::new(1)));
            }
            ops
        });
    collection::vec(collection::vec(burst, 1..25), cores..=cores).prop_map(|traces| {
        Workload::new(
            "bursts",
            traces
                .into_iter()
                .map(|bursts| bursts.into_iter().flatten().collect::<Trace>())
                .collect(),
        )
        .expect("non-empty")
    })
}

fn timers_strategy(cores: usize) -> impl Strategy<Value = Vec<TimerValue>> {
    collection::vec(prop_oneof![Just(TimerValue::MSI), (1u64..=200).prop_map(timed)], cores..=cores)
}

properties! {
    #![cases(48)]

    /// CoHoRT: measured per-request latency ≤ Eq. 1; measured total memory
    /// latency ≤ WCML bound; measured hits ≥ guaranteed hits.
    #[test]
    fn cohort_bounds_dominate_measurements(
        workload in workload_strategy(4),
        timers in timers_strategy(4),
    ) {
        let lat = LatencyConfig::paper();
        let config = SimConfig::builder(4).timers(timers.clone()).build().expect("valid");
        let l1 = *config.l1();
        let stats = SimBuilder::new(config, &workload).build().expect("sim").run().expect("ok");
        let bounds = analyze_cohort(&workload, &timers, &lat, &l1, &cohort_sim::LlcModel::Perfect).expect("analysis");
        for (i, (core, bound)) in stats.cores.iter().zip(&bounds).enumerate() {
            assert!(
                core.worst_request <= bound.wcl.expect("cohort bounds all cores"),
                "core {i}: request {} > WCL {}",
                core.worst_request, bound.wcl.unwrap()
            );
            assert!(
                core.total_latency <= bound.wcml.unwrap(),
                "core {i}: measured WCML {} > bound {} (timers {:?})",
                core.total_latency, bound.wcml.unwrap(), timers
            );
            assert!(
                core.hits >= bound.hits,
                "core {i}: measured hits {} < guaranteed {}",
                core.hits, bound.hits
            );
        }
    }

    /// PCC: all-miss WCML at the staged-hand-over WCL dominates.
    #[test]
    fn pcc_bounds_dominate_measurements(workload in workload_strategy(4)) {
        let lat = LatencyConfig::paper();
        let config = SimConfig::builder(4)
            .data_path(DataPath::ViaSharedMemory)
            .build()
            .expect("valid");
        let stats = SimBuilder::new(config, &workload).build().expect("sim").run().expect("ok");
        let bounds = analyze_pcc(&workload, &lat);
        for (i, (core, bound)) in stats.cores.iter().zip(&bounds).enumerate() {
            assert!(
                core.worst_request <= bound.wcl.unwrap(),
                "core {i}: request {} > PCC WCL {}",
                core.worst_request, bound.wcl.unwrap()
            );
            assert!(core.total_latency <= bound.wcml.unwrap());
        }
    }

    /// PENDULUM: critical cores stay under the TDM bound; non-critical
    /// cores are unbounded but still make progress.
    #[test]
    fn pendulum_bounds_dominate_critical_measurements(
        workload in workload_strategy(4),
        n_cr in 1usize..=4,
        theta in 1u64..=200,
    ) {
        let lat = LatencyConfig::paper();
        let critical: Vec<bool> = (0..4).map(|i| i < n_cr).collect();
        let timers = vec![timed(theta); 4];
        let config = SimConfig::builder(4)
            .timers(timers)
            .arbiter(ArbiterKind::Tdm { critical: critical.clone() })
            .waiter_priority(critical.clone())
            .build()
            .expect("valid");
        let stats = SimBuilder::new(config, &workload).build().expect("sim").run().expect("ok");
        let params = PendulumParams { critical: critical.clone(), theta };
        let bounds = analyze_pendulum(&workload, &params, &lat).expect("analysis");
        let wcl = wcl_pendulum(n_cr, 4 - n_cr, theta, &lat);
        for (i, (core, bound)) in stats.cores.iter().zip(&bounds).enumerate() {
            if critical[i] {
                assert!(
                    core.worst_request <= wcl,
                    "Cr core {i}: request {} > PENDULUM WCL {} (n_cr={n_cr}, θ={theta})",
                    core.worst_request, wcl
                );
                assert!(core.total_latency <= bound.wcml.unwrap());
            } else {
                assert!(bound.wcml.is_none());
                assert_eq!(
                    core.accesses(),
                    workload.traces()[i].len() as u64,
                    "nCr cores still complete"
                );
            }
        }
    }
}
