//! Regenerates every table and figure of the paper: runs each Fig. 5/6
//! cell and the fft mode-switch setup once, renders every artifact
//! through [`cohort_bench::artifacts`] and writes `<name>.txt` plus
//! `summary.json`, the headline numbers EXPERIMENTS.md quotes.
//!
//! The default scale writes `results/`, the committed artifacts CI diffs
//! against a fresh run; `--quick` writes `out/repro-quick/` and `--full`
//! writes `out/repro-full/`. `--json` writes every Fig. 5/6 run record
//! (with each run's probe report under `--metrics`), and `--trace` writes
//! a Chrome trace of the first cell's CoHoRT run.
//!
//! ```text
//! cargo run --release -p cohort-bench --bin repro \
//!     [-- --quick|--full] [--json <path>] [--metrics] [--trace <path>]
//! ```

use std::fs;

use cohort::Protocol;
use cohort_bench::artifacts::{self, ConfigRuns, ModeStudy};
use cohort_bench::report::{ReportWriter, REPORT};
use cohort_bench::{
    bench_ga, kernels, run_to_json, sweep_protocols_opts, write_chrome_trace, CliOptions,
    CritConfig, CORES,
};
use serde_json::json;

fn main() {
    let options = CliOptions::parse_or_exit();
    let dir = options.artifact_dir();
    let ga = bench_ga(options.quick);
    let workloads = kernels(CORES, options.full, options.quick);
    let mut records = Vec::new();
    let mut trace_path = options.trace.as_deref();

    // ---- Figures 5 & 6: every cell once ----------------------------------
    let mut sweep = Vec::new();
    for config in CritConfig::ALL {
        println!("running {} …", config.label());
        let mut cells = Vec::new();
        for workload in &workloads {
            let runs = sweep_protocols_opts(config, workload, &ga, options.metrics)
                .expect("sweep succeeds");
            for run in &runs {
                run.outcome.check_soundness().expect("bounds dominate measurements");
            }
            records.extend(runs.iter().map(|run| run_to_json(config, run)));
            if let Some(path) = trace_path.take() {
                let timers = runs[0].timers.clone().expect("the CoHoRT run carries its timers");
                write_chrome_trace(path, &config.spec(), &Protocol::Cohort { timers }, workload)
                    .expect("writable --trace path");
                println!(
                    "wrote Chrome trace of {}/{} to {}",
                    config.slug(),
                    workload.name(),
                    path.display()
                );
            }
            cells.push(runs);
        }
        sweep.push(ConfigRuns { config, cells });
    }

    // ---- Figure 7 / Table II / schedulability: one offline setup ---------
    println!("running mode-switch experiment …");
    let modes = ModeStudy::run(options.quick, &ga).expect("offline flow succeeds");

    println!("running ablations and scaling …");
    let rendered = [
        ("table1", artifacts::table1()),
        ("table2", modes.table2()),
        ("fig1", artifacts::fig1()),
        ("fig4", artifacts::fig4()),
        ("fig5", artifacts::fig5(&sweep)),
        ("fig6", artifacts::fig6(&sweep)),
        ("fig7", modes.fig7()),
        ("ablations", artifacts::ablations(options.quick)),
        ("scaling", artifacts::scaling(options.quick)),
        ("schedulability", modes.schedulability()),
    ];
    let summary = artifacts::summary(&sweep, &modes);

    fs::create_dir_all(dir).expect("writable artifact directory");
    for (name, text) in rendered {
        let path = dir.join(format!("{name}.txt"));
        fs::write(&path, text).expect("writable artifact");
        println!("wrote {}", path.display());
    }
    let path = dir.join("summary.json");
    fs::write(&path, serde_json::to_string_pretty(&summary).expect("serialize"))
        .expect("writable summary");
    println!("wrote {}", path.display());

    ReportWriter::new(&REPORT).write_or_exit(options.json.as_deref(), json!({ "runs": records }));
}
