//! The paper's artifacts: one renderer per `results/*.txt` file, each
//! returning the file's text. The `repro` bin runs every Fig. 5/6 cell
//! and the fft mode-switch setup once and hands the results to the
//! renderers that share them, so `fig5.txt`, `fig6.txt` and the
//! `summary.json` geomeans come from the same runs, as do `table2.txt`,
//! `fig7.txt`, `schedulability.txt` and the summary's `fig7` block.

use std::fmt::Write;
use std::sync::Arc;

use cohort::{
    ExperimentJob, ExperimentOutcome, ModeConfiguration, ModeController, ModeSetup, Protocol,
    Sweep, SystemSpec,
};
use cohort_optim::{GaConfig, GaRun, TimerProblem};
use cohort_sim::{
    ArbiterKind, CacheGeometry, DataPath, EventKind, EventLogProbe, LlcModel, ProtocolFlavor,
    SimBuilder, SimConfig,
};
use cohort_trace::{micro, Kernel, KernelSpec, Trace, TraceOp, Workload};
use cohort_types::{CoreId, Criticality, Cycles, LatencyConfig, Mode, Result, TimerValue};
use serde_json::json;

use crate::{
    bench_ga, geomean, optimize_cohort_timers, ConsoleObserver, CritConfig, ProtocolRun, CORES,
};

/// `println!` into the artifact being rendered (writing to a `String`
/// cannot fail).
macro_rules! outln {
    ($out:ident) => {
        $out.push('\n')
    };
    ($out:ident, $($arg:tt)*) => {{
        let _ = writeln!($out, $($arg)*);
    }};
}

/// One criticality configuration's Fig. 5/6 cells.
#[derive(Debug)]
pub struct ConfigRuns {
    /// The configuration.
    pub config: CritConfig,
    /// Per kernel, in [`Kernel::ALL`] order, the four
    /// [`crate::sweep_protocols`] runs `[CoHoRT, PCC, PENDULUM, MSI+FCFS]`.
    pub cells: Vec<Vec<ProtocolRun>>,
}

impl ConfigRuns {
    /// Fig. 5's ratios over the critical cores, kernel-major: PCC / CoHoRT
    /// and PENDULUM / CoHoRT analytical WCML.
    fn wcml_ratios(&self) -> (Vec<f64>, Vec<f64>) {
        let mask = self.config.critical_mask();
        let mut pcc_ratios = Vec::new();
        let mut pend_ratios = Vec::new();
        for runs in &self.cells {
            let wcml = |i: usize, core: usize| runs[i].outcome.bounds.as_ref().unwrap()[core].wcml;
            for core in (0..CORES).filter(|&core| mask[core]) {
                let cohort_ana = wcml(0, core).unwrap().get() as f64;
                pcc_ratios.push(wcml(1, core).unwrap().get() as f64 / cohort_ana);
                if let Some(pend_ana) = wcml(2, core) {
                    pend_ratios.push(pend_ana.get() as f64 / cohort_ana);
                }
            }
        }
        (pcc_ratios, pend_ratios)
    }

    /// Fig. 6's execution times normalized to MSI + FCFS, per kernel:
    /// `[CoHoRT, PCC, PENDULUM]`.
    fn slowdowns(&self) -> Vec<[f64; 3]> {
        self.cells
            .iter()
            .map(|runs| {
                let baseline = runs[3].outcome.execution_time() as f64;
                let norm = |i: usize| runs[i].outcome.execution_time() as f64 / baseline;
                [norm(0), norm(1), norm(2)]
            })
            .collect()
    }

    /// The geomean of column `i` of [`Self::slowdowns`].
    fn slowdown_geomean(&self, i: usize) -> f64 {
        geomean(&self.slowdowns().iter().map(|s| s[i]).collect::<Vec<f64>>())
    }
}

/// `summary.json`: the per-configuration headline geomeans of Figs. 5
/// and 6, keyed by configuration slug, then the mode-switch `fig7` block.
#[must_use]
pub fn summary(sweep: &[ConfigRuns], modes: &ModeStudy) -> serde_json::Value {
    let mut summary = serde_json::Map::new();
    for runs in sweep {
        let (pcc_ratios, pend_ratios) = runs.wcml_ratios();
        summary.insert(
            runs.config.slug().to_string(),
            json!({
                "fig5_pcc_over_cohort": geomean(&pcc_ratios),
                "fig5_pendulum_over_cohort": geomean(&pend_ratios),
                "fig6_cohort_slowdown": runs.slowdown_geomean(0),
                "fig6_pcc_slowdown": runs.slowdown_geomean(1),
                "fig6_pendulum_slowdown": runs.slowdown_geomean(2),
            }),
        );
    }
    summary.insert("fig7".to_string(), modes.summary());
    serde_json::Value::Object(summary)
}

/// **Table I**: predictable-coherence works vs the four MCS challenges
/// (heterogeneity, criticality, requirements, mode switching).
#[must_use]
pub fn table1() -> String {
    let mut out = String::new();
    outln!(out, "Table I — Predictable Coherence Works and MCS challenges\n");
    out.push_str(&cohort::related::render_table_one());
    out
}

/// **Figure 1**: the snoop- vs time-based trade-off. Two cores contend on
/// line A; under MSI, c1's miss is short but steals c0's line (turning
/// c0's revisit ③ into a miss); under time-based coherence c0 keeps the
/// line until its timer expires (③ hits) at the cost of a larger miss
/// latency for c1.
#[must_use]
pub fn fig1() -> String {
    let mut out = String::new();
    let workload = micro::figure1(100);

    outln!(out, "Figure 1 — Trade-offs between snoop- and time-based coherence");
    outln!(out, "(c0 stores A ①; c1 stores A ②; c0 revisits A ③ one hundred cycles later)\n");

    for (label, timer) in [
        ("(a) snoop-based (MSI)", TimerValue::MSI),
        ("(b) time-based (θ0 = 200)", TimerValue::timed(200).expect("small")),
    ] {
        let config = SimConfig::builder(2).timer(0, timer).build().expect("valid");
        let mut sim =
            SimBuilder::new(config, &workload).probe(EventLogProbe::new()).build().expect("sim");
        let stats = sim.run().expect("runs");
        outln!(out, "--- {label} ---");
        for event in sim.probe() {
            let line = match &event.kind {
                EventKind::Broadcast { core, line, kind } => {
                    format!("c{core} broadcasts {kind:?} for {line}")
                }
                EventKind::TransferStart { from, to, line } => match from {
                    Some(f) => format!("c{f} → c{to}: data transfer of {line} begins"),
                    None => format!("shared memory → c{to}: data transfer of {line} begins"),
                },
                EventKind::Fill { core, line, latency, .. } => {
                    format!("c{core} fills {line} (request latency {latency})")
                }
                EventKind::Hit { core, line } => format!("c{core} HITS {line} — request ③"),
                EventKind::MissIssued { core, line, .. } if event.cycle.get() > 60 => {
                    format!("c{core} misses {line} — request ③ lost the line")
                }
                _ => continue,
            };
            outln!(out, "  cycle {:>4}: {line}", event.cycle.get());
        }
        outln!(
            out,
            "  ⇒ c0: {} hits / {} misses; c1 worst-case miss latency {} cycles\n",
            stats.cores[0].hits,
            stats.cores[0].misses,
            stats.cores[1].worst_request.get()
        );
    }
    outln!(out, "Observation (paper §III-A): snooping gives c1 the short L_miss but breaks");
    outln!(out, "c0's timing isolation; the timer restores isolation (③ hits) at the");
    outln!(out, "expense of a larger L_miss for c1.");
    out
}

/// **Figure 4**: the example operation of the proposed architecture.
/// Quad-core system, c0/c1/c3 timed, c2 MSI; all four cores write line A.
/// The timeline shows the RROF hand-over chain: c1 waits out θ0, c2 waits
/// out θ1, and c2 (running MSI) hands the line to c3 immediately.
#[must_use]
pub fn fig4() -> String {
    let mut out = String::new();
    let theta = 40;
    let config = SimConfig::builder(4)
        .timer(0, TimerValue::timed(theta).expect("small"))
        .timer(1, TimerValue::timed(theta).expect("small"))
        .timer(3, TimerValue::timed(theta).expect("small"))
        .build()
        .expect("valid");
    let workload = micro::figure4();
    let mut sim =
        SimBuilder::new(config, &workload).probe(EventLogProbe::new()).build().expect("sim");
    sim.run().expect("runs");

    outln!(out, "Figure 4 — Example operation (c0, c1, c3 timed with θ = {theta}; c2 MSI)");
    outln!(out, "All four cores issue a write request to cache line A = L0x40.\n");
    let mut last_fill_of_a: Option<(usize, u64)> = None;
    for event in sim.probe() {
        let cycle = event.cycle.get();
        let text = match &event.kind {
            EventKind::MissIssued { core, line, .. } if line.raw() == 0x40 => {
                format!("❶..❹ c{core} issues its write request to A")
            }
            EventKind::Broadcast { core, line, .. } if line.raw() == 0x40 => {
                format!("c{core}'s GetM(A) is broadcast (RROF grant)")
            }
            EventKind::Broadcast { core, line, .. } => {
                format!("c{core} broadcasts its request to {line} (θ expired mid-activity)")
            }
            EventKind::TransferStart { from, to, line } if line.raw() == 0x40 => match from {
                None => format!("shared memory sends A to c{to}"),
                Some(f) => {
                    let note = match last_fill_of_a {
                        Some((owner, at)) if *f == owner && cycle - at < theta => {
                            " (immediate MSI hand-over)"
                        }
                        _ => " (after the owner's timer expired)",
                    };
                    format!("c{f} sends A to c{to}{note}")
                }
            },
            EventKind::Fill { core, line, latency, .. } if line.raw() == 0x40 => {
                last_fill_of_a = Some((*core, cycle));
                format!("c{core} receives A and starts θ{core} (request latency {latency})")
            }
            EventKind::Invalidate { core, line, .. } if line.raw() == 0x40 => {
                format!("c{core} invalidates its copy of A")
            }
            _ => continue,
        };
        outln!(out, "  cycle {cycle:>4}: {text}");
    }
    outln!(out, "\nKey property (paper §III-C): the RROF order serves A in broadcast order");
    outln!(out, "c0 → c1 → c2 → c3; timed owners hold A for θ, the MSI core c2 gives it");
    outln!(out, "up to c3 as soon as the transfer can be scheduled.");
    out
}

/// **Figure 5**: total worst-case memory latency (experimental and
/// analytical) of CoHoRT vs PCC vs PENDULUM under each configuration.
#[must_use]
pub fn fig5(sweep: &[ConfigRuns]) -> String {
    let mut out = String::new();
    outln!(out, "Figure 5 — Total WCML: experimental (exp) and analytical (ana), cycles");
    outln!(out, "Log-scale bars in the paper; raw cycle counts here.\n");

    for runs in sweep {
        let config = runs.config;
        outln!(out, "=== Fig. 5{} — {} ===", config.subfigure(), config.label());
        outln!(
            out,
            "{:<8} {:>4}  {:>12} {:>12}  {:>12} {:>12}  {:>12} {:>12}",
            "kernel",
            "core",
            "CoHoRT exp",
            "CoHoRT ana",
            "PCC exp",
            "PCC ana",
            "PEND exp",
            "PEND ana"
        );
        for cell in &runs.cells {
            let (cohort, pcc, pendulum) = (&cell[0].outcome, &cell[1].outcome, &cell[2].outcome);
            for core in 0..CORES {
                let fmt = |o: &ExperimentOutcome| {
                    let exp = o.stats.cores[core].total_latency.get();
                    let ana = o
                        .bounds
                        .as_ref()
                        .and_then(|b| b[core].wcml)
                        .map_or_else(|| "unbounded".to_string(), |w| w.get().to_string());
                    (exp, ana)
                };
                let (ce, ca) = fmt(cohort);
                let (pe, pa) = fmt(pcc);
                let (ne, na) = fmt(pendulum);
                outln!(
                    out,
                    "{:<8} {:>4}  {:>12} {:>12}  {:>12} {:>12}  {:>12} {:>12}",
                    cohort.workload,
                    format!("c{core}"),
                    ce,
                    ca,
                    pe,
                    pa,
                    ne,
                    na
                );
            }
            outln!(out);
        }
        // Ratio summaries over the critical cores (the cores the paper's
        // bound comparison is about).
        let (pcc_ratios, pend_ratios) = runs.wcml_ratios();
        outln!(out, "--- Summary over Cr cores (geomean of analytical WCML ratios) ---");
        outln!(out, "PCC / CoHoRT      = {:.2}x   (paper, All Cr: 2.15x)", geomean(&pcc_ratios));
        if !pend_ratios.is_empty() {
            outln!(
                out,
                "PENDULUM / CoHoRT = {:.2}x   (paper: ~16x / ~6x / ~18x per config)",
                geomean(&pend_ratios)
            );
        }
        outln!(out);
    }
    out
}

/// **Figure 6**: overall system execution time of CoHoRT, PCC and
/// PENDULUM, normalized against standard MSI with a COTS FCFS arbiter.
#[must_use]
pub fn fig6(sweep: &[ConfigRuns]) -> String {
    let mut out = String::new();
    outln!(out, "Figure 6 — Execution time normalized against MSI + FCFS (lower is better)");
    outln!(out, "Paper averages (All Cr): CoHoRT 1.03x, PCC 1.13x, PENDULUM 1.50x\n");

    for runs in sweep {
        let config = runs.config;
        outln!(out, "=== Fig. 6{} — {} ===", config.subfigure(), config.label());
        outln!(
            out,
            "{:<8} {:>12} {:>10} {:>10} {:>10}",
            "kernel",
            "MSI+FCFS",
            "CoHoRT",
            "PCC",
            "PENDULUM"
        );
        for (cell, [c, p, n]) in runs.cells.iter().zip(runs.slowdowns()) {
            outln!(
                out,
                "{:<8} {:>12} {:>9.3}x {:>9.3}x {:>9.3}x",
                cell[3].outcome.workload,
                cell[3].outcome.execution_time(),
                c,
                p,
                n
            );
        }
        outln!(
            out,
            "{:<8} {:>12} {:>9.3}x {:>9.3}x {:>9.3}x   (geomean)",
            "average",
            "-",
            runs.slowdown_geomean(0),
            runs.slowdown_geomean(1),
            runs.slowdown_geomean(2)
        );
        outln!(out);
    }
    out
}

/// The mode-switch experiment platform (Figure 7 / Table II): four cores
/// at criticalities 4, 3, 2, 1.
fn mode_switch_spec() -> SystemSpec {
    SystemSpec::builder()
        .core(Criticality::new(4).expect("static"))
        .core(Criticality::new(3).expect("static"))
        .core(Criticality::new(2).expect("static"))
        .core(Criticality::new(1).expect("static"))
        .build()
        .expect("non-empty")
}

/// The offline mode configuration of the Figure-7 platform running fft,
/// shared by Table II, Figure 7 and the schedulability study.
#[derive(Debug)]
pub struct ModeStudy {
    spec: SystemSpec,
    workload: Workload,
    modes: ModeConfiguration,
}

impl ModeStudy {
    /// Runs the per-mode GA (the Fig. 2a offline flow) on fft, at a tenth
    /// of the default request count when `quick`.
    ///
    /// # Errors
    ///
    /// Propagates analysis/optimization errors.
    pub fn run(quick: bool, ga: &GaConfig) -> Result<Self> {
        let spec = mode_switch_spec();
        let mut kernel = KernelSpec::new(Kernel::Fft, 4);
        if quick {
            kernel = kernel.with_total_requests(Kernel::Fft.default_total_requests() / 10);
        }
        let workload = kernel.generate();
        let modes = ModeSetup::new(&spec, &workload).ga(ga).run()?;
        Ok(ModeStudy { spec, workload, modes })
    }

    /// c0's analytical WCML bound at mode `m`.
    fn bound(&self, m: u32) -> u64 {
        self.modes
            .wcml_bound(CoreId::new(0), Mode::new(m).expect("static"))
            .expect("mode exists")
            .expect("c0 is bounded in every mode")
            .get()
    }

    /// c0's bound per mode, mode 1 first.
    fn bounds(&self) -> Vec<u64> {
        (1..=4).map(|m| self.bound(m)).collect()
    }

    /// The Figure-7 stage requirements, derived from c0's per-mode bound
    /// curve exactly as the paper places its stages: stage 1 fits mode 1,
    /// stage 2 lands between the mode-3 and mode-2 bounds (forcing the
    /// double escalation m1 → m3), stage 3 between mode 4 and mode 3.
    fn stages(&self) -> [u64; 3] {
        let bounds = self.bounds();
        [
            bounds[0] * 102 / 100,
            u64::midpoint(bounds[1], bounds[2]),
            u64::midpoint(bounds[2], bounds[3]),
        ]
    }

    /// The summary's `fig7` block: c0's bounds, the stages, the mode the
    /// controller settles on per stage, and the Table II LUT.
    fn summary(&self) -> serde_json::Value {
        let mut controller = ModeController::new(self.modes.clone());
        let walk: Vec<Option<u32>> = self
            .stages()
            .iter()
            .map(|&g| {
                controller
                    .requirement_changed(CoreId::new(0), Cycles::new(g))
                    .expect("c0 exists")
                    .mode()
                    .map(Mode::index)
            })
            .collect();
        json!({
            "c0_bounds_per_mode": self.bounds(),
            "stage_requirements": self.stages(),
            "mode_walk": walk,
            "table2_lut": self
                .modes
                .entries
                .iter()
                .map(|e| e.timers.iter().map(|t| t.encode()).collect::<Vec<i32>>())
                .collect::<Vec<_>>(),
        })
    }

    /// **Table II**: the per-mode timer configurations θ_i^m computed
    /// offline by the optimization engine.
    #[must_use]
    pub fn table2(&self) -> String {
        let mut out = String::new();
        outln!(out, "Table II — Timer configurations of cores at different modes (fft)");
        outln!(out, "(paper values: m1: 300/20/20/20 … m4: 500/-1/-1/-1; ours are re-optimized");
        outln!(out, " for the synthetic fft workload, so magnitudes differ but the structure —");
        outln!(out, " lower-criticality cores degraded to -1 as the mode rises — must match)\n");
        outln!(out, "{:<5} {:>8} {:>8} {:>8} {:>8}   feasible", "m", "θ0", "θ1", "θ2", "θ3");
        for entry in &self.modes.entries {
            let thetas: Vec<String> = entry.timers.iter().map(ToString::to_string).collect();
            outln!(
                out,
                "{:<5} {:>8} {:>8} {:>8} {:>8}   {}",
                entry.mode.index(),
                thetas[0],
                thetas[1],
                thetas[2],
                thetas[3],
                entry.feasible
            );
        }
        outln!(
            out,
            "\nMode-Switch LUT hardware cost: {} bits per core ({} modes × 16 bits)",
            self.modes.lut.bits_per_core(),
            self.modes.lut.modes()
        );
        out
    }

    /// **Figure 7**: the mode-switch experiment. The requirement of the
    /// highest-criticality core `c0` tightens over three stages; with
    /// CoHoRT's hardware mode switching the system escalates modes
    /// (degrading lower-criticality cores to MSI) and stays schedulable,
    /// while without mode switching the stage-1 bound exceeds the
    /// tightened requirements.
    ///
    /// The paper's concrete Γ values are unpublished; as in the paper, the
    /// stages are chosen so that stage 2 overshoots mode 2 (forcing a
    /// switch to mode 3) and stage 3 forces mode 4. The implied reduction
    /// factors are printed next to the paper's (≈1.5× and ≈1.8×).
    #[must_use]
    pub fn fig7(&self) -> String {
        let mut out = String::new();
        let (spec, config) = (&self.spec, &self.modes);
        let c0 = CoreId::new(0);
        let bound = |m: u32| self.bound(m);
        let bounds = self.bounds();

        outln!(out, "Figure 7 — Mode-switch experiment (fft, criticalities 4/3/2/1)\n");
        outln!(out, "c0's analytical WCML bound per mode (cycles):");
        for (m, b) in bounds.iter().enumerate() {
            outln!(out, "  mode {}: {:>12}", m + 1, b);
        }

        let stages = self.stages();
        let (stage1, stage2, stage3) = (stages[0], stages[1], stages[2]);

        outln!(out, "\nStage requirements for c0 (derived from the bound curve):");
        outln!(
            out,
            "  stage 1: {} | stage 2: {} (÷{:.2}, paper ÷1.5) | stage 3: {} (÷{:.2}, paper ÷1.8)",
            stage1,
            stage2,
            stage1 as f64 / stage2 as f64,
            stage3,
            stage2 as f64 / stage3 as f64
        );

        // Run-time: the controller walks the stages.
        let mut controller = ModeController::new(config.clone());
        outln!(
            out,
            "\n{:<7} {:>14} {:>10} {:>16} {:>14}",
            "stage",
            "requirement",
            "decision",
            "bound@mode",
            "schedulable"
        );
        for (i, &gamma) in stages.iter().enumerate() {
            let decision =
                controller.requirement_changed(c0, Cycles::new(gamma)).expect("c0 exists");
            let (label, at) = match decision.mode() {
                Some(m) => (format!("{m}"), bound(m.index())),
                None => ("-".to_string(), 0),
            };
            outln!(
                out,
                "{:<7} {:>14} {:>10} {:>16} {:>14}",
                i + 1,
                gamma,
                label,
                if at > 0 { at.to_string() } else { "-".into() },
                decision.mode().is_some()
            );
        }

        // Without mode switching: the system stays in mode 1.
        outln!(out, "\nWithout mode switching (stuck at mode 1, bound {}):", bounds[0]);
        for (i, &gamma) in stages.iter().enumerate() {
            outln!(
                out,
                "  stage {}: requirement {:>12} → {}",
                i + 1,
                gamma,
                if bounds[0] <= gamma { "schedulable" } else { "UNSCHEDULABLE" }
            );
        }

        // Cross-check with the simulator: measured WCML of c0 under the
        // timers of the mode the controller settled on per stage, and
        // soundness of the bound the decision relied on. The controller
        // walk is inherently sequential; the per-stage simulations are
        // not, so they run as one sweep on the bounded pool.
        outln!(out, "\nSimulator cross-check (measured c0 WCML under each stage's mode):");
        let mut controller = ModeController::new(config.clone());
        let stage_modes: Vec<(usize, u64, Option<Mode>)> = stages
            .iter()
            .enumerate()
            .map(|(i, &gamma)| {
                let decision =
                    controller.requirement_changed(c0, Cycles::new(gamma)).expect("c0 exists");
                (i + 1, gamma, decision.mode())
            })
            .collect();
        let schedulable: Vec<&(usize, u64, Option<Mode>)> =
            stage_modes.iter().filter(|(_, _, m)| m.is_some()).collect();
        let outcomes = Sweep::builder()
            .jobs(schedulable.iter().map(|(stage, _, mode)| {
                let mode = mode.expect("filtered to schedulable stages");
                let timers = config.lut.timers_for(mode).expect("mode exists").to_vec();
                ExperimentJob::new(spec.clone(), Protocol::Cohort { timers }, self.workload.clone())
                    .with_label(format!("fig7/stage-{stage}/mode-{mode}"))
            }))
            .build()
            .run()
            .into_outcomes()
            .expect("simulation succeeds");
        let mut results = schedulable.iter().zip(&outcomes);
        for (stage, gamma, mode) in &stage_modes {
            let Some(mode) = mode else {
                outln!(out, "  stage {stage}: unschedulable");
                continue;
            };
            let (_, outcome) = results.next().expect("one outcome per schedulable stage");
            outcome.check_soundness().expect("bounds dominate");
            let measured = outcome.stats.cores[0].total_latency.get();
            outln!(
                out,
                "  stage {stage}: mode {mode} measured {measured:>12} ≤ bound {:>12} ≤ Γ {gamma:>12}: {}",
                bound(mode.index()),
                measured <= *gamma && bound(mode.index()) <= *gamma
            );
        }
        out
    }

    /// Extension study: the **schedulability region** of the mode-switch
    /// mechanism. Sweeps how tight the critical core's requirement Γ can
    /// get (as a fraction of its normal-mode bound) and reports the lowest
    /// mode that still satisfies it — with mode switching and without. The
    /// area between the two curves is the schedulability CoHoRT's hardware
    /// mode switch buys.
    #[must_use]
    pub fn schedulability(&self) -> String {
        let mut out = String::new();
        let c0 = CoreId::new(0);
        let bound1 = self.bound(1);
        let bound4 = self.bound(4);

        outln!(out, "Schedulability sweep — c0's requirement as a fraction of its mode-1 bound");
        outln!(out, "(fft; modes degrade c1..c3 to MSI as needed)\n");
        outln!(
            out,
            "{:>10} {:>14} {:>18} {:>22}",
            "Γ/bound₁",
            "Γ (cycles)",
            "with mode switch",
            "without mode switch"
        );
        let mut switch_wins = 0u32;
        for pct in (30..=110).step_by(5) {
            let gamma = bound1 * pct / 100;
            let controller = ModeController::new(self.modes.clone());
            let with = controller
                .first_satisfying_mode(c0, Cycles::new(gamma), Mode::NORMAL)
                .expect("c0 exists");
            let without = if bound1 <= gamma { Some(Mode::NORMAL) } else { None };
            let fmt =
                |m: Option<Mode>| m.map_or_else(|| "UNSCHEDULABLE".to_string(), |m| format!("{m}"));
            if with.is_some() && without.is_none() {
                switch_wins += 1;
            }
            outln!(out, "{:>9}% {gamma:>14} {:>18} {:>22}", pct, fmt(with), fmt(without));
        }
        outln!(
            out,
            "\nMode switching keeps the system schedulable down to Γ ≈ {:.0}% of the",
            100.0 * bound4 as f64 / bound1 as f64
        );
        outln!(
            out,
            "normal-mode bound; {switch_wins} sweep points are schedulable only because the"
        );
        outln!(out, "lower-criticality cores can be degraded instead of suspended (§VI).");
        out
    }
}

/// Runs `config` on `w` and returns (execution time, worst request).
fn exec_and_worst(config: SimConfig, w: &Workload) -> (u64, u64) {
    let mut sim = SimBuilder::new(config, w).build().expect("sim");
    let stats = sim.run().expect("runs");
    let worst = stats.cores.iter().map(|c| c.worst_request.get()).max().unwrap_or(0);
    (stats.execution_time().get(), worst)
}

/// Ablations of the design choices DESIGN.md §5 calls out:
///
/// 1. **Arbitration**: RROF vs plain RR vs TDM vs FCFS under identical
///    CoHoRT timers — quantifies RROF's tighter position-keeping and
///    TDM's idle-slot penalty.
/// 2. **Timer policy**: GA-optimized Θ vs uniform Θ vs saturation Θ vs
///    all-MSI — quantifies requirement-awareness (§V).
/// 3. **Data path**: cache-to-cache vs staged-through-shared-memory — the
///    PCC gap in isolation.
/// 4. **LLC model**: perfect vs finite + DRAM (the paper's footnote 1).
/// 5. **MSHR depth** and 6. **protocol flavor** (MSI vs MESI).
#[must_use]
pub fn ablations(quick: bool) -> String {
    let mut out = String::new();
    let scale = if quick { 4_000 } else { 24_000 };
    let w = KernelSpec::new(Kernel::Ocean, 4).with_total_requests(scale).generate();
    let timers = vec![TimerValue::timed(24).expect("small"); 4];

    outln!(out, "Ablation 1 — arbitration policy (CoHoRT timers θ = 24 everywhere)");
    outln!(out, "{:<22} {:>12} {:>22}", "arbiter", "exec time", "worst request (cycles)");
    for (name, arbiter) in [
        ("RROF", ArbiterKind::Rrof),
        ("round-robin", ArbiterKind::RoundRobin),
        ("TDM (all critical)", ArbiterKind::Tdm { critical: vec![true; 4] }),
        ("FCFS (COTS)", ArbiterKind::Fcfs),
    ] {
        let config =
            SimConfig::builder(4).timers(timers.clone()).arbiter(arbiter).build().expect("valid");
        let (exec, worst) = exec_and_worst(config, &w);
        outln!(out, "{name:<22} {exec:>12} {worst:>22}");
    }

    outln!(out, "\nAblation 2 — timer policy (RROF, fft: a kernel whose saturation");
    outln!(out, "timer is orders of magnitude above the useful range)");
    let w2 = KernelSpec::new(Kernel::Fft, 4).with_total_requests(scale).generate();
    let spec = CritConfig::AllCr.spec();
    let ga = bench_ga(quick);
    let optimized = optimize_cohort_timers(CritConfig::AllCr, &w2, &ga).expect("ga");
    let saturated: Vec<TimerValue> = {
        let mut b = TimerProblem::builder(&w2);
        for i in 0..4 {
            b = b.timed(i, None);
        }
        let p = b.build().expect("problem");
        p.timers_from_genes(p.theta_saturations())
    };
    outln!(out, "{:<28} {:>12} {:>14} {:>20}", "policy", "exec time", "avg WCML bound", "timers");
    // The four timer policies are independent jobs: run them as one sweep
    // on the bounded pool (ConsoleObserver narrates progress on stderr).
    let policies = [
        ("GA-optimized (ours)", optimized),
        ("uniform θ = 24", timers.clone()),
        ("saturation θ", saturated),
        ("all MSI (θ = -1)", vec![TimerValue::MSI; 4]),
    ];
    let shared = Arc::new(w2.clone());
    let report = Sweep::builder()
        .jobs(policies.iter().map(|(name, t)| {
            ExperimentJob::new(
                spec.clone(),
                Protocol::Cohort { timers: t.clone() },
                Arc::clone(&shared),
            )
            .with_label((*name).to_string())
        }))
        .observer(&ConsoleObserver)
        .build()
        .run();
    let outcomes = report.into_outcomes().expect("runs");
    for ((name, t), outcome) in policies.iter().zip(&outcomes) {
        let avg_bound: u64 = outcome
            .bounds
            .as_ref()
            .expect("bounded")
            .iter()
            .map(|b| b.wcml.expect("bounded").get())
            .sum::<u64>()
            / 4;
        let ts: Vec<String> = t.iter().map(ToString::to_string).collect();
        outln!(
            out,
            "{name:<28} {:>12} {avg_bound:>14} {:>20}",
            outcome.execution_time(),
            format!("[{}]", ts.join(","))
        );
    }

    outln!(out, "\nAblation 3 — data path (all-MSI, RROF)");
    for (name, path) in [
        ("cache-to-cache", DataPath::CacheToCache),
        ("via shared memory", DataPath::ViaSharedMemory),
    ] {
        let config = SimConfig::builder(4).data_path(path).build().expect("valid");
        let (exec, worst) = exec_and_worst(config, &w);
        outln!(out, "{name:<22} exec {exec:>12}  worst request {worst:>8}");
    }

    outln!(out, "\nAblation 4 — LLC model (CoHoRT timers, RROF; footnote 1)");
    for (name, llc, mem) in [
        ("perfect LLC", LlcModel::Perfect, 0),
        ("finite 8-way + DRAM", LlcModel::Finite(CacheGeometry::paper_llc()), 100),
    ] {
        let config = SimConfig::builder(4)
            .timers(timers.clone())
            .llc(llc)
            .latency(LatencyConfig::paper().with_memory(mem))
            .build()
            .expect("valid");
        let (exec, worst) = exec_and_worst(config, &w);
        outln!(out, "{name:<22} exec {exec:>12}  worst request {worst:>8}");
    }
    outln!(out, "\nAblation 5 — MSHR depth (hits-over-misses headroom; CoHoRT timers)");
    for mshr in [1usize, 2, 4] {
        let config = SimConfig::builder(4)
            .timers(timers.clone())
            .mshr_per_core(mshr)
            .build()
            .expect("valid");
        let (exec, worst) = exec_and_worst(config, &w);
        outln!(out, "{mshr} MSHR/core          exec {exec:>12}  worst request {worst:>8}");
    }
    outln!(out, "\n(The timing analysis assumes one outstanding request per core; deeper");
    outln!(out, "MSHRs trade Eq. 1 applicability for throughput — an extension knob.)");

    outln!(out, "\nAblation 6 — protocol flavor (MSI baseline vs the MESI extension)");
    outln!(out, "Workload: private read-modify-write sweeps (load a line, then update");
    outln!(out, "it) — the access shape the Exclusive state exists for.");
    let rmw = {
        let traces = (0..4usize)
            .map(|core| {
                let base = 0x1000 * (core as u64 + 1);
                let mut ops = Vec::new();
                for i in 0..(scale / 8) {
                    let line = base + i % 200;
                    ops.push(TraceOp::load(line).after(3));
                    ops.push(TraceOp::store(line).after(2));
                }
                Trace::from_ops(ops)
            })
            .collect();
        Workload::new("private-rmw", traces).expect("non-empty")
    };
    for (name, flavor) in
        [("MSI (paper)", ProtocolFlavor::Msi), ("MESI (extension)", ProtocolFlavor::Mesi)]
    {
        let config =
            SimConfig::builder(4).timers(timers.clone()).flavor(flavor).build().expect("valid");
        let mut sim = SimBuilder::new(config, &rmw).build().expect("sim");
        let stats = sim.run().expect("runs");
        let hits: u64 = stats.cores.iter().map(|c| c.hits).sum();
        outln!(
            out,
            "{name:<22} exec {:>12}  total hits {hits:>8}  broadcasts {:>8}",
            stats.execution_time().get(),
            stats.broadcasts
        );
    }
    out
}

/// Extension study (beyond the paper's 4-core evaluation): how CoHoRT
/// scales with core count and criticality levels. The paper claims
/// support for *any* number of criticality levels (Challenge 2, unlike
/// two-level PENDULUM/CARP); this sweep exercises the claim on 2–16 cores
/// with up to eight levels and reports how the Eq. 1 bound and the
/// achievable WCML grow.
#[must_use]
pub fn scaling(quick: bool) -> String {
    struct ScalePoint {
        cores: usize,
        levels: u32,
        spec: SystemSpec,
        workload: Workload,
    }

    let mut out = String::new();
    let ga = bench_ga(true); // the sweep itself is the product; keep GA light
    let per_core = if quick { 400 } else { 2_000 };

    outln!(out, "Scaling study — CoHoRT beyond the paper's quad-core platform\n");
    outln!(
        out,
        "{:<7} {:>8} {:>14} {:>16} {:>14} {:>12}",
        "cores",
        "levels",
        "Eq.1 (MSI-all)",
        "opt. avg WCML/acc",
        "exec time",
        "hit ratio"
    );
    // Per-point timer optimization is sequential (each point's GA feeds its
    // own job); the four simulations then run as one bounded sweep.
    let mut points = Vec::new();
    let mut jobs = Vec::new();
    for &cores in &[2usize, 4, 8, 16] {
        let levels = cores.min(8) as u32;
        let workload = KernelSpec::new(Kernel::Ocean, cores)
            .with_total_requests(per_core * cores as u64)
            .generate();
        // Criticality ladder: core i gets level (levels − i mod levels).
        let mut builder = SystemSpec::builder();
        for i in 0..cores {
            let level = levels - (i as u32 % levels);
            builder = builder.core(Criticality::new(level).expect("≥1"));
        }
        let spec = builder.build().expect("non-empty");

        // Optimize timers for normal mode (every core timed), against the
        // spec's own platform parameters.
        let mut problem_builder = TimerProblem::builder(&workload)
            .latency(*spec.latency())
            .l1(*spec.l1())
            .llc(*spec.llc());
        for i in 0..cores {
            problem_builder = problem_builder.timed(i, None);
        }
        let problem = problem_builder.build().expect("problem");
        let outcome = GaRun::new(&problem).config(&ga).run();
        let timers = problem.timers_from_genes(&outcome.best);

        jobs.push(
            ExperimentJob::new(spec.clone(), Protocol::Cohort { timers }, workload.clone())
                .with_label(format!("scaling/{cores}-cores")),
        );
        points.push(ScalePoint { cores, levels, spec, workload });
    }
    let runs = Sweep::builder().jobs(jobs).build().run().into_outcomes().expect("runs");
    for (point, run) in points.iter().zip(&runs) {
        run.check_soundness().expect("bounds dominate at every scale");
        let bounds = run.bounds.as_ref().expect("bounded");
        let msi_eq1 =
            cohort_analysis::wcl_miss(0, &vec![TimerValue::MSI; point.cores], point.spec.latency());
        let avg_wcml_per_access: f64 = bounds
            .iter()
            .zip(point.workload.traces())
            .map(|(b, t)| b.wcml.expect("bounded").get() as f64 / t.len().max(1) as f64)
            .sum::<f64>()
            / point.cores as f64;
        outln!(
            out,
            "{:<7} {:>8} {:>14} {avg_wcml_per_access:>17.1} {:>14} {:>11.1}%",
            point.cores,
            point.levels,
            msi_eq1.get(),
            run.execution_time(),
            100.0 * run.stats.hit_ratio()
        );
    }

    // Mode-switch machinery at five avionics levels (DO-178C) on 5 cores.
    outln!(out, "\nFive-level (DO-178C-style) mode configuration on 5 cores:");
    let mut builder = SystemSpec::builder();
    for level in (1..=5).rev() {
        builder = builder.core(Criticality::new(level).expect("≥1"));
    }
    let spec = builder.build().expect("non-empty");
    let workload = KernelSpec::new(Kernel::Barnes, 5).with_total_requests(per_core * 5).generate();
    let config = ModeSetup::new(&spec, &workload).ga(&ga).run().expect("flow");
    assert_eq!(config.lut.modes(), 5);
    outln!(
        out,
        "LUT: {} modes × 16 bits = {} bits per core (the paper's 80-bit claim)",
        config.lut.modes(),
        config.lut.bits_per_core()
    );
    for entry in &config.entries {
        let timed = entry.timers.iter().filter(|t| t.is_timed()).count();
        outln!(
            out,
            "  mode {}: {timed} timed core(s), {} degraded to MSI",
            entry.mode.index(),
            5 - timed
        );
    }
    let m5 = config.lut.timers_for(Mode::new(5).expect("static")).expect("row");
    assert!(m5.iter().filter(|t| t.is_timed()).count() == 1);
    outln!(out, "\nEvery scale point passed the soundness check (measured ≤ bound).");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The committed artifacts that render in milliseconds, byte for byte.
    // The GA-backed ones are too slow for a debug build; CI regenerates
    // all of them with a release `repro` and diffs `results/`.
    #[test]
    fn table1_matches_the_committed_artifact() {
        assert_eq!(table1(), include_str!("../../../results/table1.txt"));
    }

    #[test]
    fn fig1_matches_the_committed_artifact() {
        assert_eq!(fig1(), include_str!("../../../results/fig1.txt"));
    }

    #[test]
    fn fig4_matches_the_committed_artifact() {
        assert_eq!(fig4(), include_str!("../../../results/fig4.txt"));
    }
}
