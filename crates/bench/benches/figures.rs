//! Criterion benches: one target per paper table/figure, measuring the
//! regeneration cost at reduced scale. `cargo bench -p cohort-bench` runs
//! them; the `repro` bin regenerates every artifact at full size.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cohort::{run_experiment, ModeSetup, Protocol, SystemSpec};
use cohort_bench::{optimize_cohort_timers, sweep_protocols, CritConfig};
use cohort_optim::GaConfig;
use cohort_sim::{EventLogProbe, SimBuilder, SimConfig};
use cohort_trace::{micro, Kernel, KernelSpec, Workload};
use cohort_types::{Criticality, TimerValue};

fn tiny_kernel(kernel: Kernel) -> Workload {
    KernelSpec::new(kernel, 4).with_total_requests(1_200).generate()
}

fn tiny_ga() -> GaConfig {
    GaConfig { population: 8, generations: 3, ..Default::default() }
}

fn table1(c: &mut Criterion) {
    c.bench_function("table1/render", |b| {
        b.iter(|| black_box(cohort::related::render_table_one()));
    });
}

fn table2(c: &mut Criterion) {
    let spec = SystemSpec::builder()
        .core(Criticality::new(4).unwrap())
        .core(Criticality::new(3).unwrap())
        .core(Criticality::new(2).unwrap())
        .core(Criticality::new(1).unwrap())
        .build()
        .unwrap();
    let workload = tiny_kernel(Kernel::Fft);
    c.bench_function("table2/configure_modes", |b| {
        b.iter(|| black_box(ModeSetup::new(&spec, &workload).ga(&tiny_ga()).run().unwrap()));
    });
}

fn fig1(c: &mut Criterion) {
    let workload = micro::figure1(100);
    let config = SimConfig::builder(2).timer(0, TimerValue::timed(200).unwrap()).build().unwrap();
    c.bench_function("fig1/replay", |b| {
        b.iter(|| {
            let mut sim = SimBuilder::new(config.clone(), &workload)
                .probe(EventLogProbe::new())
                .build()
                .unwrap();
            black_box(sim.run().unwrap())
        });
    });
}

fn fig4(c: &mut Criterion) {
    let workload = micro::figure4();
    let config = SimConfig::builder(4)
        .timer(0, TimerValue::timed(40).unwrap())
        .timer(1, TimerValue::timed(40).unwrap())
        .timer(3, TimerValue::timed(40).unwrap())
        .build()
        .unwrap();
    c.bench_function("fig4/replay", |b| {
        b.iter(|| {
            let mut sim = SimBuilder::new(config.clone(), &workload)
                .probe(EventLogProbe::new())
                .build()
                .unwrap();
            black_box(sim.run().unwrap())
        });
    });
}

fn fig5(c: &mut Criterion) {
    let workload = tiny_kernel(Kernel::Fft);
    for config in CritConfig::ALL {
        c.bench_function(&format!("fig5/{}/fft", config.slug()), |b| {
            b.iter(|| black_box(sweep_protocols(config, &workload, &tiny_ga()).unwrap()));
        });
    }
}

fn fig6(c: &mut Criterion) {
    // Figure 6's extra work over Figure 5 is the MSI+FCFS baseline run.
    let spec = CritConfig::AllCr.spec();
    let workload = tiny_kernel(Kernel::Water);
    c.bench_function("fig6/baseline_msi_fcfs/water", |b| {
        b.iter(|| black_box(run_experiment(&spec, &Protocol::MsiFcfs, &workload).unwrap()));
    });
    let timers = optimize_cohort_timers(CritConfig::AllCr, &workload, &tiny_ga()).unwrap();
    c.bench_function("fig6/cohort/water", |b| {
        b.iter(|| {
            black_box(
                run_experiment(&spec, &Protocol::Cohort { timers: timers.clone() }, &workload)
                    .unwrap(),
            )
        });
    });
}

fn fig7(c: &mut Criterion) {
    let spec = SystemSpec::builder()
        .core(Criticality::new(4).unwrap())
        .core(Criticality::new(3).unwrap())
        .core(Criticality::new(2).unwrap())
        .core(Criticality::new(1).unwrap())
        .build()
        .unwrap();
    let workload = tiny_kernel(Kernel::Fft);
    let config = ModeSetup::new(&spec, &workload).ga(&tiny_ga()).run().unwrap();
    c.bench_function("fig7/mode_walk", |b| {
        b.iter(|| {
            let mut controller = cohort::ModeController::new(config.clone());
            let c0 = cohort_types::CoreId::new(0);
            for gamma in [10_000_000u64, 400_000, 200_000] {
                let _ =
                    black_box(controller.requirement_changed(c0, cohort_types::Cycles::new(gamma)));
            }
        });
    });
}

criterion_group!(
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = table1, table2, fig1, fig4, fig5, fig6, fig7
);
criterion_main!(figures);
