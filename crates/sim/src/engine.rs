//! The cycle-accurate simulation engine.
//!
//! The engine advances a global clock over five kinds of activity:
//!
//! 1. **cores** replay their traces, hitting in their private caches or
//!    allocating MSHR entries for misses (hits-over-misses);
//! 2. **broadcasts** put coherence requests on the shared bus (occupying it
//!    for the request latency) and enqueue the requester in the line's
//!    global waiter queue;
//! 3. **timers** gate when a holder releases a line ([`release_time`]):
//!    immediately for θ = −1 (MSI) cores, at the next countdown expiry for
//!    timed cores;
//! 4. **data transfers** move the line from the releasing owner (or the
//!    shared memory) to the head waiter, occupying the bus for the data
//!    latency (doubled when the data path stages through the shared
//!    memory);
//! 5. the **arbiter** picks which core uses the bus whenever it is free.
//!
//! The clock skips to the next interesting instant (core ready, transfer
//! end, timer release, TDM slot boundary, scheduled mode switch), which is
//! observationally identical to stepping every cycle because all state
//! changes are computed from absolute cycle stamps.
//!
//! A discrete-event scheduler advances that clock (see the
//! [`crate::sched`] module docs): each instant dispatches only the
//! components whose wake entries are due.
//!
//! The engine is compiled in every crate that instantiates
//! [`Simulator`], so a non-generic helper it calls per instant or per
//! miss carries `#[inline]`; otherwise those copies call it out of line.
//! The `sched` module docs list the rule and the helpers left out.

use std::collections::BTreeMap;

use cohort_trace::Workload;
use cohort_types::{Cycles, Error, LineAddr, Result, TimerValue};

use crate::arbiter::{Arbiter, Candidate, CandidateKind};
use crate::cache::{L1Line, LineState, SetAssocCache, Way};
use crate::coherence::{cores_in, CohSlot, CoherenceMap, Owner, ReqKind, Waiter};
use crate::core_model::{CoreModel, MshrEntry};
use crate::event::{EventKind, InvalidateCause};
use crate::fault::{FaultKind, FaultPlan, FaultState, InjectedFault};
use crate::probe::{BusTenure, NoProbe, SimProbe, TenureKind};
use crate::sched::{EventSched, WakeSource};
use crate::timer::release_time;
use crate::{CoreStats, DataPath, LlcModel, ProtocolFlavor, SimConfig, SimStats};

/// Outcome of evaluating one trace operation against the private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Serviced by the private cache, where the line sits at `way`.
    Hit { way: Way },
    /// Needs a bus request.
    Miss { kind: ReqKind, upgrade: bool },
    /// A miss for the same line is already in flight: wait for it.
    WaitInflight,
}

/// An in-flight bus transaction.
#[derive(Debug, Clone, Copy)]
struct ActiveTxn {
    core: usize,
    line: LineAddr,
    ends: Cycles,
    kind: TxnKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnKind {
    /// Request broadcast without an immediate data response.
    BroadcastOnly,
    /// Data transfer to `core` (possibly fused with its broadcast); `slot`
    /// is the line's coherence slot, live while `core` waits on it.
    Transfer { from: Owner, slot: CohSlot },
}

/// The cycle-accurate simulator, generic over one [`SimProbe`].
///
/// Build one with [`SimBuilder`]. The default probe is [`NoProbe`], which
/// observes nothing and costs nothing. To observe a run, pass a probe (or
/// a tuple of probes) to [`SimBuilder::probe`]; the probe receives every
/// protocol event, bus tenure and arbitration decision as the run streams
/// past.
///
/// # Examples
///
/// ```
/// use cohort_sim::{SimBuilder, SimConfig};
/// use cohort_trace::micro;
/// use cohort_types::TimerValue;
///
/// // Two MSI cores ping-pong one line.
/// let config = SimConfig::builder(2).build()?;
/// let workload = micro::ping_pong(2, 4);
/// let mut sim = SimBuilder::new(config, &workload).build()?;
/// let stats = sim.run()?;
/// assert_eq!(stats.cores[0].accesses(), 4);
/// assert!(stats.execution_time().get() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Observing the same run with a probe stack:
///
/// ```
/// use cohort_sim::{EventLogProbe, MetricsProbe, SimBuilder, SimConfig};
/// use cohort_trace::micro;
///
/// let config = SimConfig::builder(2).build()?;
/// let probes = (MetricsProbe::new(), EventLogProbe::new());
/// let mut sim = SimBuilder::new(config, &micro::ping_pong(2, 4)).probe(probes).build()?;
/// sim.run()?;
/// let (metrics, log) = sim.into_probe();
/// assert_eq!(metrics.report().cores.len(), 2);
/// assert!(!log.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<P: SimProbe = NoProbe> {
    config: SimConfig,
    timers: Vec<TimerValue>,
    now: Cycles,
    cores: Vec<CoreModel>,
    l1s: Vec<SetAssocCache<L1Line>>,
    coh: CoherenceMap,
    llc: Option<SetAssocCache<()>>,
    arbiter: Arbiter,
    txn: Option<ActiveTxn>,
    stats: SimStats,
    probe: P,
    finish_notified: bool,
    switches: BTreeMap<u64, Vec<TimerValue>>,
    /// Every line with queued waiters, sorted by line, with its coherence
    /// slot and the instant its release wake is armed for (`None` until
    /// one is armed), so an unchanged release instant is never pushed
    /// twice. Release wakes name the line, not the slot, so a recycled
    /// slot never receives a stale wake.
    lines_with_waiters: Vec<(LineAddr, CohSlot, Option<u64>)>,
    /// Cores that have not drained their trace and misses yet.
    cores_not_done: usize,
    /// Bit `id` is set while core `id` has an MSHR entry it has not
    /// broadcast: set when a miss is allocated, cleared when a broadcast
    /// marks the core's last such entry (a dropped broadcast leaves it).
    unbroadcast: u64,
    /// Bit `id` is set while core `id` heads a line whose dispossessed
    /// holders have all released. The release phase clears it whenever it
    /// re-derives every waiting line and sets the head of each re-derived
    /// line whose release has passed. Between two such recomputes a
    /// release only moves earlier, and every line it moves on is re-derived.
    /// Together with `unbroadcast` it is exactly the set of cores with a
    /// bus candidate, so arbitration asks only these.
    receivable: u64,
    last_progress: Cycles,
    faults: FaultState,
    sched: EventSched,
}

/// Cycles without observable progress after which [`Simulator::run`]
/// reports a deadlock instead of spinning (a defensive bound well above any
/// legal stall: max θ is 65 535 and slots are tens of cycles).
const WATCHDOG: u64 = 2_000_000;

/// Builder for [`Simulator`] — the driver-facing construction surface.
///
/// Collects the configuration, workload, probe and fault plan, then
/// [`SimBuilder::build`]s the simulator:
///
/// ```
/// use cohort_sim::{FaultPlan, MetricsProbe, SimBuilder, SimConfig};
/// use cohort_trace::micro;
///
/// let config = SimConfig::builder(2).build()?;
/// let workload = micro::ping_pong(2, 4);
/// let mut sim = SimBuilder::new(config, &workload)
///     .probe(MetricsProbe::new())
///     .faults(FaultPlan::empty())
///     .build()?;
/// sim.run()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SimBuilder<'w, P: SimProbe = NoProbe> {
    config: SimConfig,
    workload: &'w Workload,
    probe: P,
    faults: FaultPlan,
}

impl<'w> SimBuilder<'w, NoProbe> {
    /// Starts a builder for `workload` under `config`, with no probe and
    /// no faults.
    #[must_use]
    pub fn new(config: SimConfig, workload: &'w Workload) -> Self {
        SimBuilder { config, workload, probe: NoProbe, faults: FaultPlan::empty() }
    }
}

impl<'w, P: SimProbe> SimBuilder<'w, P> {
    /// Attaches a probe (by value, or `&mut probe` to keep ownership at the
    /// call site), replacing any previously attached one.
    #[must_use]
    pub fn probe<Q: SimProbe>(self, probe: Q) -> SimBuilder<'w, Q> {
        SimBuilder { config: self.config, workload: self.workload, probe, faults: self.faults }
    }

    /// Injects `plan`'s faults during the run. The empty plan is the
    /// bit-identity baseline.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Builds the simulator.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the workload's core count does
    /// not match the configuration or the fault plan targets an
    /// out-of-range core.
    pub fn build(self) -> Result<Simulator<P>> {
        let SimBuilder { config, workload, mut probe, faults: plan } = self;
        if let Some(bad) = plan.specs().iter().find(|s| s.core >= config.cores()) {
            return Err(Error::InvalidConfig(format!(
                "fault plan targets core {} but the configuration has {} cores",
                bad.core,
                config.cores()
            )));
        }
        if workload.cores() != config.cores() {
            return Err(Error::InvalidConfig(format!(
                "workload has {} cores but the configuration expects {}",
                workload.cores(),
                config.cores()
            )));
        }
        let cores: Vec<CoreModel> = workload
            .traces()
            .iter()
            .map(|t| CoreModel::new(t.clone(), config.mshr_per_core()))
            .collect();
        // A core with an empty trace is done from the start.
        let cores_not_done = cores.iter().filter(|c| !c.is_done()).count();
        let l1s = (0..config.cores()).map(|_| SetAssocCache::new(*config.l1())).collect();
        let llc = match config.llc() {
            LlcModel::Perfect => None,
            LlcModel::Finite(geom) => Some(SetAssocCache::new(*geom)),
        };
        // TDM slots must fit a worst-case transaction, which with a finite
        // LLC includes the memory latency.
        let arbiter =
            Arbiter::new(config.arbiter(), config.cores(), config.latency().effective_slot());
        let stats =
            SimStats { cores: vec![CoreStats::default(); config.cores()], ..Default::default() };
        if P::ACTIVE {
            probe.on_start(&config);
        }
        Ok(Simulator {
            timers: config.timers().to_vec(),
            cores,
            l1s,
            coh: CoherenceMap::new(),
            llc,
            arbiter,
            txn: None,
            stats,
            probe,
            finish_notified: false,
            switches: BTreeMap::new(),
            lines_with_waiters: Vec::new(),
            cores_not_done,
            unbroadcast: 0,
            receivable: 0,
            last_progress: Cycles::ZERO,
            now: Cycles::ZERO,
            faults: FaultState::new(plan),
            sched: EventSched::default(),
            config,
        })
    }
}

impl<P: SimProbe> Simulator<P> {
    /// The faults the engine has applied so far, in injection order.
    #[must_use]
    pub fn injected_faults(&self) -> &[InjectedFault] {
        self.faults.injected()
    }

    /// The current cycle.
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// The configuration the simulator was built with.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The currently programmed timer registers (they may differ from the
    /// configuration after a mode switch).
    #[must_use]
    pub fn timers(&self) -> &[TimerValue] {
        &self.timers
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The attached probe.
    #[must_use]
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// The attached probe, mutably.
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Consumes the simulator, returning the probe (e.g. to read an
    /// [`EventLogProbe`](crate::EventLogProbe)'s collected events).
    #[must_use]
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// Returns `true` once every core drained its trace and the bus idles.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        debug_assert_eq!(
            self.cores_not_done,
            self.cores.iter().filter(|c| !c.is_done()).count(),
            "the count of unfinished cores drifted from the cores"
        );
        self.txn.is_none() && self.cores_not_done == 0
    }

    /// Schedules a re-programming of all timer registers at `at` — the
    /// hardware mode-switch mechanism of §VI (each core's Mode-Switch LUT
    /// entry is written into its θ register).
    ///
    /// Semantics follow the Figure-3 circuit: a running per-line countdown
    /// keeps the θ it loaded at fill time (a register write does not reload
    /// counters), except that writing −1 pulls Enable low and releases held
    /// lines immediately. Lines filled after the switch load the new value.
    /// Consequently the new mode's Eq. 1 bound applies to requests issued
    /// after in-flight windows drain — at most one old-θ window per held
    /// line, the standard mode-change transient.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the vector length mismatches the
    /// core count or `at` is in the past.
    pub fn schedule_timer_switch(&mut self, at: Cycles, timers: Vec<TimerValue>) -> Result<()> {
        if timers.len() != self.config.cores() {
            return Err(Error::InvalidConfig(format!(
                "expected {} timers, got {}",
                self.config.cores(),
                timers.len()
            )));
        }
        if at < self.now {
            return Err(Error::InvalidConfig(format!(
                "cannot schedule a switch at {at} before the current cycle {}",
                self.now
            )));
        }
        if self.switches.contains_key(&at.get()) {
            return Err(Error::InvalidConfig(format!(
                "a timer switch is already scheduled at cycle {at}"
            )));
        }
        self.switches.insert(at.get(), timers);
        if self.sched.primed {
            self.sched.arm(at.get(), WakeSource::Switch);
        }
        Ok(())
    }

    /// Runs the simulation to completion and returns the statistics.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Deadlock`] if the engine detects no progress for a
    /// defensive number of cycles — this indicates an engine bug or a
    /// pathological configuration, never a legal run.
    pub fn run(&mut self) -> Result<SimStats> {
        self.run_until(Cycles::new(u64::MAX))?;
        Ok(self.stats.clone())
    }

    /// Runs until `deadline` (exclusive) or completion, whichever is
    /// first. Simulated time jumps straight to the earliest pending wake
    /// entry and only the due components dispatch.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`].
    pub fn run_until(&mut self, deadline: Cycles) -> Result<()> {
        if !self.sched.primed {
            self.prime_sched();
        }
        // The first dispatch of every call visits the current instant
        // unconditionally, even when no wake source is due there. That is
        // a no-op for every component with nothing due; a pending
        // retryable step fault is attempted there (see `dispatch_instant`).
        let mut entry = true;
        while !self.is_finished() && self.now < deadline {
            self.dispatch_instant(entry);
            entry = false;
            if self.is_finished() {
                break;
            }
            if self.now.get().saturating_sub(self.last_progress.get()) > WATCHDOG {
                return Err(Error::Deadlock { cycle: self.now.get() });
            }
            let Some(next) = self.sched.next_wake_at() else {
                // No wake source left: nothing can happen before the deadline.
                self.now = deadline;
                break;
            };
            if next >= deadline.get() {
                self.now = deadline;
                break;
            }
            self.now = Cycles::new(next.max(self.now.get() + 1)).min(deadline);
        }
        self.finish_run(deadline);
        Ok(())
    }

    /// Arms the initial wake set from the pristine machine state: every
    /// core's first `ready_at`, every scheduled switch, and the earliest
    /// fault activation. Everything else (transactions, releases, TDM
    /// boundaries) is armed by the phases as state comes alive.
    fn prime_sched(&mut self) {
        self.sched.primed = true;
        let now = self.now.get();
        for id in 0..self.cores.len() {
            let ready = self.cores[id].ready_at.get();
            self.sched.arm_core(now, id, ready);
        }
        for &at in self.switches.keys() {
            self.sched.arm(at, WakeSource::Switch);
        }
        if let Some(at) = self.faults.next_activation() {
            self.sched.arm_fault(at.get());
        }
    }

    /// Dispatches the current instant: pops the due wake entries and runs
    /// the affected components in a fixed phase order (switches → faults →
    /// transaction completion → cores in id order → releases and
    /// arbitration).
    fn dispatch_instant(&mut self, entry: bool) {
        let t = self.now;
        // A due step fault is attempted only at an instant where some wake
        // source is genuinely due (or the entry instant of a `run_until`
        // call), decided against the pre-dispatch state. Stale wakes do
        // not create attempts, so retries land at the same cycles however
        // many redundant heap entries exist.
        let fault_attempt_here = !self.faults.is_empty()
            && self.faults.has_due_step_fault(t)
            && (entry || self.is_real_instant(t));
        let (mut due_cores, due_slot) = self.sched.pop_due(t.get());
        due_cores |= std::mem::take(&mut self.sched.carry_cores);
        let mut arb = false;
        let mut recompute_releases = false;

        // 1. Scheduled timer switches.
        if self.switches.first_key_value().is_some_and(|(&at, _)| at <= t.get()) {
            self.apply_switches();
            recompute_releases = true;
            arb = true;
        }

        // 2. Step faults. A new activation instant is real via the armed
        // Fault wake (`next_activation() == t` makes `is_real_instant`
        // true); failed attempts retry at every later real instant until
        // they land.
        if fault_attempt_here {
            let fired = self.apply_faults();
            if fired > 0 {
                recompute_releases = true;
                arb = true;
            }
        }

        // 3. Bus-transaction completion (un-stalled cores join this
        // instant's core phase via the carry mask).
        if self.txn.is_some_and(|txn| txn.ends <= t) {
            self.complete_txn_if_due();
            recompute_releases = true;
            arb = true;
        }
        due_cores |= std::mem::take(&mut self.sched.carry_cores);

        // 4. Cores, ascending id.
        for id in cores_in(due_cores) {
            self.step_core(id);
        }
        arb |= std::mem::take(&mut self.sched.flag_arb);

        // 5. Release re-arming and arbitration, only while the bus idles
        // (a release mid-tenure cannot grant; the completion that frees
        // the bus re-derives every waiting line).
        if self.txn.is_none() {
            // A recompute re-derives every waiting line; otherwise only the
            // dirty ones. Either way the scratch list is reused.
            let mut lines = std::mem::take(&mut self.sched.dirty_lines);
            if recompute_releases {
                lines.clear();
                lines.extend(self.lines_with_waiters.iter().map(|&(line, _, _)| line));
                self.receivable = 0;
            }
            for &line in &lines {
                if let Some(head) = self.rearm_release(line, t) {
                    self.receivable |= 1 << head;
                    arb = true;
                }
            }
            lines.clear();
            self.sched.dirty_lines = lines;
            if arb || due_slot {
                self.try_start_txn();
            }
        } else {
            self.sched.dirty_lines.clear();
        }

        // 6. While the bus idles under TDM, the next slot boundary is a
        // grant opportunity (and a real instant) regardless of whether any
        // candidate exists.
        if self.txn.is_none() {
            let opportunity = self.arbiter.next_grant_opportunity(t);
            if opportunity > t {
                self.sched.arm_slot(opportunity.get());
            }
        }

        // 7. Keep the fault-activation chain armed: a firing anywhere in
        // this instant (step faults above, bus faults at grant time inside
        // `try_start_txn`) advances the next pending activation.
        if !self.faults.is_empty() {
            if let Some(at) = self.faults.next_activation() {
                if at > t {
                    self.sched.arm_fault(at.get());
                }
            }
        }
    }

    /// Re-derives the head-release instant of `line` and re-arms its wake,
    /// pushing a heap entry only when the instant differs from the one
    /// already armed (an armed future instant still has its entry pending).
    /// Returns the head waiter's core when the release has already passed:
    /// it is a ready receive candidate, so arbitration should be attempted
    /// at this instant.
    fn rearm_release(&mut self, line: LineAddr, t: Cycles) -> Option<usize> {
        let at = self.waiting(line).ok()?;
        let (_, slot, armed) = self.lines_with_waiters[at];
        let release = self.head_release_instant(line, slot)?;
        if release <= t {
            return self.coh[slot].head().map(|head| head.core);
        }
        if armed != Some(release.get()) {
            self.sched.arm(release.get(), WakeSource::Release(line));
            self.lines_with_waiters[at].2 = Some(release.get());
        }
        None
    }

    /// The index of `line` in `lines_with_waiters`, or where it would go.
    fn waiting(&self, line: LineAddr) -> core::result::Result<usize, usize> {
        self.lines_with_waiters.binary_search_by_key(&line, |&(line, _, _)| line)
    }

    /// Whether some wake source is genuinely due at `t` given the current
    /// (pre-dispatch) state, rather than only stale heap entries: a
    /// transaction end, a scheduled switch, a fault activation, a ready
    /// core, or, while the bus idles, a TDM slot boundary or a head
    /// waiter's release. Only consulted while a retryable fault is pending,
    /// because fault retries are the one activity whose effects depend on
    /// which instants are dispatched.
    fn is_real_instant(&self, t: Cycles) -> bool {
        if self.txn.is_some_and(|txn| txn.ends == t) {
            return true;
        }
        if self.switches.first_key_value().is_some_and(|(&at, _)| at == t.get()) {
            return true;
        }
        if self.faults.next_activation() == Some(t) {
            return true;
        }
        if self.cores.iter().any(|c| c.finish.is_none() && !c.stalled && c.ready_at == t) {
            return true;
        }
        if self.txn.is_none() {
            // A TDM slot boundary is a visited instant while the bus idles.
            let tdm = self.arbiter.next_grant_opportunity(t) > t;
            if tdm
                && (t.get() == 0
                    || self.arbiter.next_grant_opportunity(Cycles::new(t.get() - 1)) == t)
            {
                return true;
            }
            for &(line, slot, _) in &self.lines_with_waiters {
                if self.head_release_instant(line, slot) == Some(t) {
                    return true;
                }
            }
        }
        false
    }

    /// Shared run epilogue: clamp the cycle count and notify the probe
    /// once the run finishes.
    fn finish_run(&mut self, deadline: Cycles) {
        self.stats.cycles =
            self.stats.cycles.max(self.now.min(deadline)).max(self.stats.execution_time());
        if self.is_finished() && !self.finish_notified {
            self.finish_notified = true;
            if P::ACTIVE {
                self.probe.on_finish(&self.stats);
            }
        }
    }

    // ----- fault injection -------------------------------------------------

    /// Applies every armed step fault (timer, cache and core faults; bus
    /// faults fire at grant time in [`Simulator::try_start_txn`]). Faults
    /// that find no applicable target this step stay armed and retry.
    /// Returns the number that fired, so the caller re-derives releases
    /// and re-attempts arbitration.
    fn apply_faults(&mut self) -> usize {
        let mut fired_count = 0;
        for (index, spec) in self.faults.due_step_faults(self.now) {
            let fired = match spec.kind {
                // Window faults act purely through `holder_release`; firing
                // here just records the window opening for the report.
                FaultKind::TimerStuck { .. } | FaultKind::TimerEarlyExpiry { .. } => true,
                FaultKind::TimerCorruption { value } => {
                    // A silent register bit-flip: no TimerSwitch event, so
                    // probes have no way to see the new θ coming.
                    self.timers[spec.core] = value;
                    true
                }
                FaultKind::CoreStall { cycles } => {
                    let core = &mut self.cores[spec.core];
                    core.ready_at = core.ready_at.max(self.now + Cycles::new(cycles));
                    let ready = core.ready_at.get();
                    self.sched.arm_core(self.now.get(), spec.core, ready);
                    true
                }
                FaultKind::LineCorruption => self.corrupt_line(spec.core),
                FaultKind::SpuriousEviction => self.spurious_evict(spec.core),
                FaultKind::BusDrop | FaultKind::BusDuplicate | FaultKind::BusDelay { .. } => {
                    unreachable!("bus faults are not step faults")
                }
            };
            if fired {
                self.faults.mark_fired(index, self.now);
                fired_count += 1;
            }
        }
        fired_count
    }

    /// Flips the first quiescent Shared line in `core`'s L1 to Modified
    /// without a bus transaction. The corrupted controller believes it
    /// observed a write-granting fill, and the event stream records that
    /// belief — which is exactly what lets an event-shadowing probe convict
    /// the state of an SWMR violation.
    fn corrupt_line(&mut self, core: usize) -> bool {
        let active = self.txn.map(|t| t.line);
        let mut target = None;
        for (line, payload) in self.l1s[core].iter() {
            if payload.state == LineState::Shared
                && Some(line) != active
                && !self.cores[core].has_inflight(line)
            {
                target = Some(line);
                break;
            }
        }
        let Some(line) = target else { return false };
        if let Some(l1line) = self.l1s[core].peek_mut(line) {
            l1line.state = LineState::Modified;
        }
        if P::ACTIVE {
            self.probe.on_event(
                self.now,
                &EventKind::Fill { core, line, kind: ReqKind::GetM, latency: Cycles::ZERO },
            );
        }
        true
    }

    /// Silently drops a quiescent resident line (preferring an owned one)
    /// from `core`'s L1. The global bookkeeping is updated — the directory
    /// saw the writeback wire — but no event is emitted, so event-shadowing
    /// probes keep believing the copy exists.
    fn spurious_evict(&mut self, core: usize) -> bool {
        let active = self.txn.map(|t| t.line);
        let mut chosen = None;
        for (line, payload) in self.l1s[core].iter() {
            if Some(line) == active || self.cores[core].has_inflight(line) {
                continue;
            }
            if payload.state.is_owned() {
                chosen = Some((line, *payload));
                break;
            }
            if chosen.is_none() {
                chosen = Some((line, *payload));
            }
        }
        let Some((line, payload)) = chosen else { return false };
        self.l1s[core].remove(line);
        let entry = &mut self.coh[payload.coh];
        if payload.state.is_owned() && entry.owner() == Owner::Core(core) {
            entry.set_owner(Owner::Llc);
        } else {
            entry.remove_sharer(core);
        }
        self.coh.gc(payload.coh);
        true
    }

    fn apply_switches(&mut self) {
        while let Some((&at, _)) = self.switches.first_key_value() {
            if at > self.now.get() {
                break;
            }
            // Latch every release that already happened under the outgoing
            // θ values: the hardware counter expired and committed to the
            // hand-over, so the new registers must not re-protect the line
            // (nor may they be cheated out of an expiry that passed).
            self.latch_expired_releases();
            let (_, timers) = self.switches.pop_first().expect("checked non-empty");
            if P::ACTIVE {
                self.probe.on_event(self.now, &EventKind::TimerSwitch { timers: timers.clone() });
            }
            self.timers = timers;
            self.last_progress = self.now;
        }
    }

    fn latch_expired_releases(&mut self) {
        for &(line, slot, _) in &self.lines_with_waiters {
            let coh = &self.coh[slot];
            let Some(head) = coh.head().copied() else { continue };
            let holders = coh.holder_mask() & !(1 << head.core);
            for holder in cores_in(holders).filter(|&h| coh.head_dispossesses(h)) {
                let Some(entry) = self.l1s[holder].peek(line).copied() else { continue };
                if entry.released {
                    continue;
                }
                if self.holder_release(holder, line, &entry, head.enqueued) <= self.now {
                    if let Some(l1line) = self.l1s[holder].peek_mut(line) {
                        l1line.released = true;
                    }
                }
            }
        }
    }

    // ----- core side ------------------------------------------------------

    fn step_core(&mut self, id: usize) {
        let hit_latency = self.config.latency().hit;
        let core = &self.cores[id];
        if core.finish.is_some() || core.stalled || core.ready_at > self.now {
            return;
        }
        let Some(op) = core.current_op().copied() else {
            // Trace drained; wait for outstanding misses to finish.
            return;
        };
        match self.classify(id, op.line, op.kind().is_store()) {
            Outcome::Hit { way } => {
                let completion = self.now + hit_latency;
                let core = &mut self.cores[id];
                core.cursor += 1;
                core.last_completion = completion;
                let next_gap = core.current_op().map_or(Cycles::ZERO, |o| o.gap());
                core.ready_at = completion + next_gap;
                let ready = core.ready_at.get();
                self.sched.arm_core(self.now.get(), id, ready);
                let stats = &mut self.stats.cores[id];
                stats.hits += 1;
                stats.total_latency += hit_latency;
                let l1line = self.l1s[id].promote_way(way);
                // MESI: the first store to an Exclusive line upgrades
                // silently — write permission without a bus transaction.
                if op.kind().is_store() && l1line.state == LineState::Exclusive {
                    l1line.state = LineState::Modified;
                }
                if P::ACTIVE {
                    self.probe.on_event(self.now, &EventKind::Hit { core: id, line: op.line });
                }
                self.mark_done_if_drained(id);
                self.last_progress = self.now;
            }
            Outcome::Miss { kind, upgrade } => {
                let core = &mut self.cores[id];
                if core.mshr.len() >= core.mshr_capacity {
                    core.stalled = true;
                    return;
                }
                core.allocate(MshrEntry {
                    line: op.line,
                    kind,
                    issued: self.now,
                    broadcast: false,
                    upgrade,
                    coh: None,
                });
                core.cursor += 1;
                self.unbroadcast |= 1 << id;
                // Issuing the miss occupies the core for one cycle; it then
                // continues with subsequent accesses (hits-over-misses).
                let next_gap = core.current_op().map_or(Cycles::ZERO, |o| o.gap());
                core.ready_at = self.now + Cycles::new(1) + next_gap;
                let ready = core.ready_at.get();
                self.sched.arm_core(self.now.get(), id, ready);
                // A fresh request may start a transaction, and adding a
                // waiter to a held line can pull its release earlier (the
                // effective timer drops to the MSI floor for same-level
                // requests); flag both re-checks.
                self.sched.flag_arb = true;
                if self.waiting(op.line).is_ok() {
                    self.sched.dirty_lines.push(op.line);
                }
                if P::ACTIVE {
                    self.probe.on_event(
                        self.now,
                        &EventKind::MissIssued { core: id, line: op.line, kind },
                    );
                }
                self.last_progress = self.now;
            }
            Outcome::WaitInflight => {
                self.cores[id].stalled = true;
            }
        }
    }

    /// Classifies an access against the private cache, honouring the
    /// *effective* coherence state: a line whose release instant has passed
    /// (head waiter pending, timer expired) no longer yields hits even if
    /// the physical hand-over has not happened yet. A hit carries the way
    /// the one set probe found, which the core step promotes.
    fn classify(&self, id: usize, line: LineAddr, is_store: bool) -> Outcome {
        if self.cores[id].has_inflight(line) {
            return Outcome::WaitInflight;
        }
        let Some(way) = self.l1s[id].find_way(line) else {
            let kind = if is_store { ReqKind::GetM } else { ReqKind::GetS };
            return Outcome::Miss { kind, upgrade: false };
        };
        let l1line = self.l1s[id].way(way);
        let mut state = l1line.state;
        // A resident line's slot is live: read its state by index.
        debug_assert_eq!(self.coh.line_of(l1line.coh), line, "L1 slot bound to another line");
        let coh = &self.coh[l1line.coh];
        if let Some(head) = coh.head() {
            if head.core != id && coh.head_dispossesses(id) {
                let released = self.holder_release(id, line, l1line, head.enqueued);
                if self.now >= released {
                    match head.kind {
                        // The line has logically left this cache.
                        ReqKind::GetM => {
                            let kind = if is_store { ReqKind::GetM } else { ReqKind::GetS };
                            return Outcome::Miss { kind, upgrade: false };
                        }
                        // The owner has logically downgraded to Shared.
                        ReqKind::GetS => state = LineState::Shared,
                    }
                }
            }
        }
        if is_store && !state.is_writable() {
            return Outcome::Miss { kind: ReqKind::GetM, upgrade: true };
        }
        Outcome::Hit { way }
    }

    fn mark_done_if_drained(&mut self, id: usize) {
        let core = &mut self.cores[id];
        if core.finish.is_none() && core.is_done() {
            core.finish = Some(core.last_completion);
            self.stats.cores[id].finish = core.last_completion;
            self.cores_not_done -= 1;
        }
    }

    // ----- bus side -------------------------------------------------------

    /// The `(unbroadcast, receivable)` masks recomputed from the MSHR
    /// files and the waiter queues, for the debug check at every grant
    /// attempt: the cores with an un-broadcast entry, and the cores whose
    /// broadcast request heads its line with every holder released.
    fn ready_from_scratch(&self) -> (u64, u64) {
        let (mut unbroadcast, mut receivable) = (0, 0);
        for (id, core) in self.cores.iter().enumerate() {
            if core.oldest_unbroadcast().is_some() {
                unbroadcast |= 1 << id;
            }
            let heads_a_released_line = core.mshr.iter().any(|m| {
                m.coh.is_some_and(|slot| {
                    self.coh[slot].is_head(id) && self.holders_released(m.line, slot, self.now)
                })
            });
            if heads_a_released_line {
                receivable |= 1 << id;
            }
        }
        (unbroadcast, receivable)
    }

    /// Builds one core's arbitration candidate at the current cycle.
    fn candidate(&self, id: usize) -> Option<Candidate> {
        let core = &self.cores[id];
        // A ready data response for any broadcast request (oldest first).
        for m in core.mshr.iter().filter(|m| m.broadcast) {
            let slot = m.coh.expect("a broadcast request has a coherence slot");
            if self.coh[slot].is_head(id) && self.holders_released(m.line, slot, self.now) {
                return Some(Candidate {
                    kind: CandidateKind::Receive,
                    issued: m.issued,
                    line: m.line,
                });
            }
        }
        // Otherwise broadcast the oldest request that has not hit the bus.
        core.oldest_unbroadcast().map(|m| Candidate {
            kind: CandidateKind::Broadcast,
            issued: m.issued,
            line: m.line,
        })
    }

    /// The timer governing a holder's countdown for `line`: the per-line
    /// loaded θ, overridden to immediate release when the live register is
    /// −1 (Enable low) or the holder itself waits on the line (a core
    /// stalled on its own request cannot hit the line, so the controller
    /// drops the protection — this is what keeps a core's own timer out of
    /// its own Eq. 1 bound, the `j ≠ i` exclusion).
    fn effective_timer(&self, holder: usize, line: LineAddr, l1line: &L1Line) -> TimerValue {
        if self.timers[holder].is_msi() || self.cores[holder].has_inflight(line) {
            TimerValue::MSI
        } else {
            l1line.theta
        }
    }

    /// The single source of truth for when `holder` releases `line` to the
    /// request pending since `pending`: the released latch short-circuits,
    /// otherwise the Figure-3 expiry boundary under the effective timer.
    /// Used by candidate readiness, hit classification and switch latching
    /// alike — change release semantics here and nowhere else.
    fn holder_release(
        &self,
        holder: usize,
        line: LineAddr,
        l1line: &L1Line,
        pending: Cycles,
    ) -> Cycles {
        if l1line.released {
            return Cycles::ZERO;
        }
        let timer = self.effective_timer(holder, line, l1line);
        let effective_pending = pending.max(l1line.anchor);
        let normal = release_time(l1line.anchor, timer, effective_pending);
        if self.faults.is_empty() {
            normal
        } else {
            // Timer-window faults (stuck / early expiry) perturb the expiry
            // boundary here and only here, so every consumer of the release
            // instant stays self-consistent under injection.
            self.faults.adjust_release(holder, normal, effective_pending)
        }
    }

    /// Whether every holder the head waiter dispossesses has released the
    /// line (in coherence slot `slot`) by `at`.
    fn holders_released(&self, line: LineAddr, slot: CohSlot, at: Cycles) -> bool {
        self.head_release_instant(line, slot).is_some_and(|r| r <= at)
    }

    /// The instant at which the head waiter's transfer may start: the
    /// latest release among the holders it dispossesses (its own enqueue
    /// instant if nothing needs to release). `None` if the line (in
    /// coherence slot `slot`) has no waiters.
    fn head_release_instant(&self, line: LineAddr, slot: CohSlot) -> Option<Cycles> {
        let coh = &self.coh[slot];
        let head = coh.head()?;
        let mut latest = head.enqueued;
        for holder in coh.holders() {
            if holder == head.core || !coh.head_dispossesses(holder) {
                continue;
            }
            let Some(l1line) = self.l1s[holder].peek(line) else {
                continue; // already evicted: released
            };
            let release = self.holder_release(holder, line, l1line, head.enqueued);
            latest = latest.max(release);
        }
        Some(latest)
    }

    fn complete_txn_if_due(&mut self) {
        let Some(txn) = self.txn else { return };
        if txn.ends > self.now {
            return;
        }
        self.txn = None;
        if let TxnKind::Transfer { from, slot } = txn.kind {
            self.finish_transfer(txn.core, txn.line, slot, from, txn.ends);
        }
        self.last_progress = self.now;
    }

    fn try_start_txn(&mut self) {
        if self.txn.is_some() {
            return;
        }
        debug_assert_eq!(
            (self.unbroadcast, self.receivable),
            self.ready_from_scratch(),
            "the (un-broadcast, receivable) masks drifted from the MSHR files and waiter queues"
        );
        // The ready cores are exactly those with a candidate: the arbiter
        // asks only the cores its policy inspects, and only a ready core
        // builds one. `candidate` is pure and every other core has none,
        // so the grant is the same as over every core's candidate.
        let ready = self.unbroadcast | self.receivable;
        if ready == 0 {
            return;
        }
        let candidate = |id: usize| (ready & 1 << id != 0).then(|| self.candidate(id)).flatten();
        let Some((granted, cand)) = self.arbiter.grant(self.now, candidate) else {
            return;
        };
        self.arbiter.on_grant(granted);
        if P::ACTIVE {
            let stalled: Vec<usize> = cores_in(ready & !(1 << granted)).collect();
            self.probe.on_arbitration(self.now, granted, &stalled);
        }
        let dropped = !self.faults.is_empty()
            && cand.kind == CandidateKind::Broadcast
            && self.faults.take_bus_drop(self.now, granted);
        if dropped {
            // The granted broadcast is lost on the wire: the slot is burned
            // for the request latency, nothing snoops it, and the MSHR entry
            // stays un-broadcast so the requester retries at a later grant.
            let request_latency = self.config.latency().request;
            self.stats.bus_busy += request_latency;
            self.txn = Some(ActiveTxn {
                core: granted,
                line: cand.line,
                ends: self.now + request_latency,
                kind: TxnKind::BroadcastOnly,
            });
        } else {
            match cand.kind {
                CandidateKind::Broadcast => self.start_broadcast(granted),
                CandidateKind::Receive => self.start_receive(granted, cand.line),
            }
        }
        if !self.faults.is_empty() && self.txn.is_some() {
            // A jammed or echoing bus holds the tenure longer than the
            // protocol needs.
            let extra =
                self.faults.take_bus_extra(self.now, granted, self.config.latency().request);
            if extra > Cycles::ZERO {
                if let Some(txn) = &mut self.txn {
                    txn.ends += extra;
                }
                self.stats.bus_busy += extra;
            }
        }
        if let Some(txn) = &self.txn {
            self.sched.arm_txn(self.now.get(), txn.ends.get());
        }
        self.last_progress = self.now;
    }

    fn start_broadcast(&mut self, id: usize) {
        let request_latency = self.config.latency().request;
        let m = *self.cores[id].oldest_unbroadcast().expect("broadcast candidate exists");
        let snoop_at = self.now + request_latency;
        // The one hashed lookup of a miss: from here on the requester
        // waits on the line, so the slot stays live until the fill.
        let slot = self.coh.acquire(m.line);
        if !self.cores[id].mark_broadcast(m.line, slot) {
            self.unbroadcast &= !(1 << id);
        }
        let waiter = Waiter { core: id, kind: m.kind, enqueued: snoop_at };
        match self.config.waiter_priority() {
            Some(critical) if critical[id] => {
                self.coh[slot].enqueue_critical(waiter, |c| critical[c]);
            }
            _ => self.coh[slot].enqueue(waiter),
        }
        if let Err(at) = self.waiting(m.line) {
            self.lines_with_waiters.insert(at, (m.line, slot, None));
        }
        self.stats.broadcasts += 1;
        if P::ACTIVE {
            self.probe
                .on_event(self.now, &EventKind::Broadcast { core: id, line: m.line, kind: m.kind });
        }

        // Fuse the data response into the same bus tenure when the request
        // is immediately serviceable (head of queue, every holder released
        // by the snoop instant — e.g. the shared memory owns the line, or
        // all holders run MSI).
        let fused = self.coh[slot].is_head(id) && self.holders_released(m.line, slot, snoop_at);
        if fused {
            let from = self.coh[slot].owner();
            let duration = self.transfer_duration(from, m.line);
            self.stats.transfers += 1;
            if P::ACTIVE {
                self.probe.on_event(
                    snoop_at,
                    &EventKind::TransferStart { from: from.core(), to: id, line: m.line },
                );
            }
            let ends = snoop_at + duration;
            self.stats.bus_busy += ends - self.now;
            if P::ACTIVE {
                self.probe.on_bus_tenure(&BusTenure {
                    core: id,
                    line: m.line,
                    start: self.now,
                    end: ends,
                    kind: TenureKind::Fused { from: from.core() },
                });
            }
            self.txn = Some(ActiveTxn {
                core: id,
                line: m.line,
                ends,
                kind: TxnKind::Transfer { from, slot },
            });
        } else {
            self.stats.bus_busy += request_latency;
            if P::ACTIVE {
                self.probe.on_bus_tenure(&BusTenure {
                    core: id,
                    line: m.line,
                    start: self.now,
                    end: snoop_at,
                    kind: TenureKind::Broadcast,
                });
            }
            self.txn = Some(ActiveTxn {
                core: id,
                line: m.line,
                ends: snoop_at,
                kind: TxnKind::BroadcastOnly,
            });
        }
    }

    fn start_receive(&mut self, id: usize, line: LineAddr) {
        let slot = self.cores[id].broadcast_slot(line).expect("a receive candidate was broadcast");
        debug_assert!(
            self.coh[slot].is_head(id) && self.holders_released(line, slot, self.now),
            "granted receive candidate is ready"
        );
        let from = self.coh[slot].owner();
        let duration = self.transfer_duration(from, line);
        self.stats.transfers += 1;
        if P::ACTIVE {
            self.probe
                .on_event(self.now, &EventKind::TransferStart { from: from.core(), to: id, line });
        }
        let ends = self.now + duration;
        self.stats.bus_busy += duration;
        if P::ACTIVE {
            self.probe.on_bus_tenure(&BusTenure {
                core: id,
                line,
                start: self.now,
                end: ends,
                kind: TenureKind::Transfer { from: from.core() },
            });
        }
        self.txn = Some(ActiveTxn { core: id, line, ends, kind: TxnKind::Transfer { from, slot } });
    }

    /// Bus occupancy of the data movement for `line` supplied by `from`,
    /// with LLC bookkeeping (miss counting, fills, back-invalidations).
    fn transfer_duration(&mut self, from: Owner, line: LineAddr) -> Cycles {
        let lat = *self.config.latency();
        match from {
            Owner::Core(_) => {
                if let Some(llc) = &mut self.llc {
                    // Inclusion: a core-owned line is resident in the LLC.
                    if llc.touch(line).is_none() {
                        debug_assert!(false, "inclusion violated for {line}");
                        self.fill_llc(line);
                    }
                }
                match self.config.data_path() {
                    DataPath::CacheToCache => lat.data,
                    // PCC stages the hand-over through the shared memory:
                    // writeback + refetch occupy two data tenures.
                    DataPath::ViaSharedMemory => lat.data * 2,
                }
            }
            Owner::Llc => {
                let hit = match &mut self.llc {
                    None => true,
                    Some(llc) => llc.touch(line).is_some(),
                };
                if hit {
                    lat.data
                } else {
                    self.stats.llc_misses += 1;
                    self.fill_llc(line);
                    lat.data + lat.memory
                }
            }
        }
    }

    /// Inserts `line` into the finite LLC, back-invalidating the victim's
    /// private copies to preserve inclusion. Victims with coherence
    /// activity (holders or waiters) are avoided when possible.
    fn fill_llc(&mut self, line: LineAddr) {
        let coh = &self.coh;
        let evicted = match &mut self.llc {
            None => None,
            Some(llc) => llc.insert_select(line, (), |victim, ()| {
                coh.get(victim).is_none_or(|c| c.holder_mask() == 0 && c.head().is_none())
            }),
        };
        let Some((victim, ())) = evicted else { return };
        // A victim with no coherence slot is trivial: nobody to invalidate.
        let Some(slot) = self.coh.slot(victim) else { return };
        for holder in cores_in(self.coh[slot].holder_mask()) {
            if self.l1s[holder].remove(victim).is_some() {
                self.stats.back_invalidations += 1;
                if P::ACTIVE {
                    self.probe.on_event(
                        self.now,
                        &EventKind::Invalidate {
                            core: holder,
                            line: victim,
                            cause: InvalidateCause::BackInvalidation,
                        },
                    );
                }
            }
        }
        let entry = &mut self.coh[slot];
        entry.set_owner(Owner::Llc);
        entry.clear_sharers();
        self.coh.gc(slot);
    }

    /// Applies the effects of a completed data transfer of `line` (in
    /// coherence slot `slot`) at `ends`.
    fn finish_transfer(
        &mut self,
        to: usize,
        line: LineAddr,
        slot: CohSlot,
        from: Owner,
        ends: Cycles,
    ) {
        // Priority insertion may have displaced the transferee from the
        // head while its transfer was in flight, so dequeue by core.
        let waiter =
            self.coh[slot].dequeue_for(to).expect("transfer completion implies a queued waiter");
        if self.coh[slot].head().is_none() {
            if let Ok(at) = self.waiting(line) {
                self.lines_with_waiters.remove(at);
            }
        }

        // Dispossess / downgrade the previous holders.
        match waiter.kind {
            ReqKind::GetM => {
                // An upgrading requester keeps its copy.
                let holders = self.coh[slot].holder_mask() & !(1 << to);
                for holder in cores_in(holders) {
                    if self.l1s[holder].remove(line).is_some() && P::ACTIVE {
                        self.probe.on_event(
                            ends,
                            &EventKind::Invalidate {
                                core: holder,
                                line,
                                cause: InvalidateCause::Stolen,
                            },
                        );
                    }
                }
                let entry = &mut self.coh[slot];
                entry.clear_sharers();
                entry.set_owner(Owner::Core(to));
            }
            ReqKind::GetS => {
                if let Owner::Core(owner) = from {
                    if let Some(l1line) = self.l1s[owner].peek_mut(line) {
                        l1line.state = LineState::Shared;
                        if P::ACTIVE {
                            self.probe.on_event(ends, &EventKind::Downgrade { core: owner, line });
                        }
                    }
                    let entry = &mut self.coh[slot];
                    entry.set_owner(Owner::Llc);
                    entry.add_sharer(owner);
                }
                // MESI: an unshared read fill from the shared memory with
                // nobody else queued is granted Exclusive; the requester
                // becomes the owner without adding itself as a sharer.
                let entry = &mut self.coh[slot];
                let exclusive = self.config.flavor() == ProtocolFlavor::Mesi
                    && matches!(from, Owner::Llc)
                    && entry.sharers().next().is_none()
                    && entry.head().is_none();
                if exclusive {
                    entry.set_owner(Owner::Core(to));
                } else {
                    entry.add_sharer(to);
                }
            }
        }

        // Fill the requester's private cache.
        let state = match waiter.kind {
            ReqKind::GetM => LineState::Modified,
            ReqKind::GetS if self.coh[slot].owner() == Owner::Core(to) => LineState::Exclusive,
            ReqKind::GetS => LineState::Shared,
        };
        let theta_loaded = self.timers[to];
        // `to` now holds the line, so its slot stays live while resident.
        let evicted = self.l1s[to].insert(line, L1Line::filled(state, ends, theta_loaded, slot));
        if let Some((victim, victim_line)) = evicted {
            self.evict_l1(to, victim, victim_line, ends);
        }

        // Complete the core's MSHR entry and account the request.
        let core = &mut self.cores[to];
        let was_oldest = core.oldest_request().is_some_and(|m| m.line == line);
        let entry = core.complete(line).expect("transfer completes an in-flight miss");
        let latency = ends - entry.issued;
        let stats = &mut self.stats.cores[to];
        stats.misses += 1;
        if entry.upgrade {
            stats.upgrades += 1;
        }
        stats.total_latency += latency;
        stats.worst_request = stats.worst_request.max(latency);
        core.last_completion = ends;
        core.stalled = false;
        core.ready_at = core.ready_at.max(ends);
        let ready = core.ready_at.get();
        self.sched.arm_core(self.now.get(), to, ready);
        if P::ACTIVE {
            self.probe
                .on_event(ends, &EventKind::Fill { core: to, line, kind: waiter.kind, latency });
        }
        if was_oldest {
            self.arbiter.on_request_served(to);
        }
        self.mark_done_if_drained(to);
    }

    /// Handles an L1 replacement: a Modified victim's ownership returns to
    /// the shared memory (the write-back is folded into the fill tenure, as
    /// in the paper's fixed data latency), a Shared victim simply drops out.
    fn evict_l1(&mut self, id: usize, victim: LineAddr, victim_line: L1Line, at: Cycles) {
        self.stats.evictions += 1;
        if P::ACTIVE {
            self.probe.on_event(
                at,
                &EventKind::Invalidate {
                    core: id,
                    line: victim,
                    cause: InvalidateCause::Replacement,
                },
            );
        }
        let corrupting = self.faults.may_corrupt_state();
        let entry = &mut self.coh[victim_line.coh];
        if victim_line.state.is_owned() && entry.owner() == Owner::Core(id) {
            entry.set_owner(Owner::Llc);
        } else {
            // Only an injected corruption fault may detach the physical L1
            // state from the coherence bookkeeping.
            debug_assert!(
                corrupting || !victim_line.state.is_owned(),
                "owned line without ownership"
            );
            entry.remove_sharer(id);
        }
        self.coh.gc(victim_line.coh);
    }

    // ----- validation (tests, property checks) -----------------------------

    /// Checks the coherence invariants (SWMR, bookkeeping/physical-state
    /// agreement, LLC inclusion). Intended for tests; costs a full scan.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate_coherence(&self) -> core::result::Result<(), String> {
        let mut owned: BTreeMap<LineAddr, Vec<usize>> = BTreeMap::new();
        let mut shared: BTreeMap<LineAddr, Vec<usize>> = BTreeMap::new();
        for (id, l1) in self.l1s.iter().enumerate() {
            for (line, payload) in l1.iter() {
                if self.coh.slot(line) != Some(payload.coh) {
                    return Err(format!("{line} in c{id} carries a stale coherence slot"));
                }
                if payload.state.is_owned() {
                    owned.entry(line).or_default().push(id);
                } else {
                    shared.entry(line).or_default().push(id);
                }
                if let Some(llc) = &self.llc {
                    if !llc.contains(line) {
                        return Err(format!("inclusion violated: {line} in c{id} not in LLC"));
                    }
                }
            }
        }
        for (line, owners) in &owned {
            if owners.len() > 1 {
                return Err(format!("SWMR violated: {line} owned by {owners:?}"));
            }
            if shared.contains_key(line) {
                return Err(format!("{line} simultaneously owned and Shared"));
            }
            let owner = self.coh.get(*line).map(crate::coherence::LineCoh::owner);
            if owner != Some(Owner::Core(owners[0])) {
                return Err(format!(
                    "{line} owned by c{} but coherence owner is {owner:?}",
                    owners[0]
                ));
            }
        }
        for (line, sharers) in &shared {
            let Some(coh) = self.coh.get(*line) else {
                return Err(format!("{line} Shared without a coherence entry"));
            };
            for &s in sharers {
                if !coh.is_sharer(s) {
                    return Err(format!("{line} Shared in c{s} but not tracked as sharer"));
                }
            }
        }
        for (line, coh) in self.coh.iter() {
            if let Owner::Core(id) = coh.owner() {
                let is_owned = self.l1s[id].peek(line).is_some_and(|l| l.state.is_owned());
                if !is_owned {
                    return Err(format!("coherence says c{id} owns {line} but L1 disagrees"));
                }
            }
            for s in coh.sharers() {
                if self.l1s[s].peek(line).is_none() {
                    return Err(format!("coherence says c{s} shares {line} but L1 disagrees"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use cohort_trace::{Trace, TraceOp};
    use cohort_types::LatencyConfig;

    use std::collections::BTreeSet;

    use super::*;
    use crate::{ArbiterKind, CacheGeometry, EventLogProbe, FaultSpec};

    /// The 64-core DRAM-bound sparse shape: per-core private lines reused
    /// between compute gaps, a cold DRAM line every 256th access and a
    /// store to a line shared by groups of four cores every 128th.
    fn sparse_dram(accesses: u64) -> (SimConfig, Workload) {
        let traces = (0..64)
            .map(|core| {
                let base = 1_048_573 * (core + 1);
                let shared = 0x7fff_0000 + core / 4;
                let stagger = 200 + 17 * core;
                let ops = (0..accesses)
                    .map(|i| {
                        if i % 128 == 5 {
                            TraceOp::store(shared).after(stagger)
                        } else if i % 256 == 17 {
                            TraceOp::load(base + 0x1000 + i).after(stagger)
                        } else {
                            TraceOp::load(base + i % 8).after(stagger)
                        }
                    })
                    .collect();
                Trace::from_ops(ops)
            })
            .collect();
        let config = SimConfig::builder(64)
            .latency(LatencyConfig::paper().with_memory(100))
            .llc(LlcModel::Finite(CacheGeometry::new(8 * 1024 * 1024, 64, 16).unwrap()))
            .timers(vec![TimerValue::timed(60_000).unwrap(); 64])
            .mshr_per_core(4)
            .build()
            .unwrap();
        (config, Workload::new("sparse-dram", traces).unwrap())
    }

    /// Broadcasts by a critical core onto a line whose queued requesters
    /// are all non-critical: under priority insertion each one displaces
    /// the line's head waiter.
    fn displaced_heads(log: &EventLogProbe, critical: &[bool]) -> usize {
        let mut queued: BTreeMap<LineAddr, Vec<usize>> = BTreeMap::new();
        let mut displaced = 0;
        for event in log {
            match event.kind {
                EventKind::Broadcast { core, line, .. } => {
                    let waiters = queued.entry(line).or_default();
                    if critical[core]
                        && !waiters.is_empty()
                        && waiters.iter().all(|&w| !critical[w])
                    {
                        displaced += 1;
                    }
                    waiters.push(core);
                }
                EventKind::Fill { core, line, .. } => {
                    queued.entry(line).or_default().retain(|&w| w != core);
                }
                _ => {}
            }
        }
        displaced
    }

    /// Runs each path that moves a core in or out of the ready masks. The
    /// debug check at every grant attempt compares both masks with a
    /// recomputation from the MSHR files and the waiter queues, so each
    /// scenario only has to reach its transition, which it asserts.
    #[test]
    fn the_ready_masks_follow_every_transition() {
        let timed = |theta| vec![TimerValue::timed(theta).unwrap(); 4];
        let shared = cohort_trace::micro::random_shared(4, 24, 400, 0.4, 5);

        // A dropped broadcast burns its grant and leaves the entry, and
        // the core's un-broadcast bit, in place for a later grant.
        let config = SimConfig::builder(4).timers(timed(40)).build().unwrap();
        let drop = FaultSpec { kind: FaultKind::BusDrop, core: 2, at: Cycles::new(300) };
        let mut sim =
            SimBuilder::new(config, &shared).faults(FaultPlan::new(vec![drop])).build().unwrap();
        while sim.injected_faults().is_empty() {
            sim.run_until(sim.now() + Cycles::new(1)).unwrap();
        }
        assert_eq!(sim.injected_faults()[0].kind, FaultKind::BusDrop);
        assert!(sim.cores[2].oldest_unbroadcast().is_some());
        assert_ne!(sim.unbroadcast & 1 << 2, 0, "the dropped entry stays un-broadcast");
        sim.run().unwrap();

        // PENDULUM: TDM slot boundaries, and critical requests inserted
        // ahead of queued non-critical ones, displacing their head.
        let critical = vec![true, false, true, false];
        let config = SimConfig::builder(4)
            .timers(timed(60))
            .arbiter(ArbiterKind::Tdm { critical: critical.clone() })
            .waiter_priority(critical.clone())
            .build()
            .unwrap();
        let mut sim = SimBuilder::new(config, &shared).probe(EventLogProbe::new()).build().unwrap();
        sim.run().unwrap();
        assert!(displaced_heads(sim.probe(), &critical) > 0, "no head was displaced");

        // A mid-run switch to MSI releases every held line at once, and
        // one back to timed holders protects lines again.
        let config = SimConfig::builder(4).timers(timed(500)).build().unwrap();
        let mut sim = SimBuilder::new(config, &shared).build().unwrap();
        sim.run_until(Cycles::new(2_000)).unwrap();
        sim.schedule_timer_switch(Cycles::new(2_500), vec![TimerValue::MSI; 4]).unwrap();
        sim.schedule_timer_switch(Cycles::new(6_000), timed(300)).unwrap();
        sim.run_until(Cycles::new(4_000)).unwrap();
        assert_eq!(sim.timers(), [TimerValue::MSI; 4], "the first switch was applied");
        sim.run().unwrap();
        assert_eq!(sim.timers(), timed(300), "the second switch was applied");

        // FCFS over the same requests.
        let config =
            SimConfig::builder(4).timers(timed(80)).arbiter(ArbiterKind::Fcfs).build().unwrap();
        let stats = SimBuilder::new(config, &shared).build().unwrap().run().unwrap();
        assert!(stats.transfers > 0);

        // The 64-core sparse shape: timed holders on group-shared lines.
        let (config, w) = sparse_dram(300);
        let stats = SimBuilder::new(config, &w).build().unwrap().run().unwrap();
        assert_eq!(stats.cores.iter().map(CoreStats::accesses).sum::<u64>(), 64 * 300);
    }

    #[test]
    fn wake_heap_stays_bounded_by_live_wake_sources() {
        // Long-held lines have their release re-derived at every bus
        // completion; the heap must hold one release wake per waiting
        // line, not one per re-derivation. Core wakes live on the wheel:
        // this workload arms none past its horizon.
        let (config, w) = sparse_dram(1_000);
        let mut sim = SimBuilder::new(config, &w).build().unwrap();
        while !sim.is_finished() {
            sim.run_until(sim.now() + Cycles::new(2_000)).unwrap();
            assert_eq!(sim.sched.far_core_wakes(), 0, "a core wake went past the horizon");
            let bound = sim.lines_with_waiters.len() + 4;
            assert!(
                sim.sched.pending() <= bound,
                "{} wake entries at cycle {} exceed the bound {bound}",
                sim.sched.pending(),
                sim.now()
            );
        }
        assert_eq!(sim.stats().cores.iter().map(CoreStats::accesses).sum::<u64>(), 64 * 1_000);
    }

    #[test]
    fn cores_replay_the_workloads_own_buffers() {
        let (config, w) = sparse_dram(200);
        let mut sim = SimBuilder::new(config.clone(), &w).build().unwrap();
        for (core, trace) in sim.cores.iter().zip(w.traces()) {
            assert!(std::ptr::eq(core.trace.ops().as_ptr(), trace.ops().as_ptr()));
        }
        // Sharing the buffer changes nothing: a run over freshly copied
        // traces gives the same statistics.
        let copied = Workload::new(
            w.name(),
            w.traces().iter().map(|t| Trace::from_ops(t.ops().to_vec())).collect(),
        )
        .unwrap();
        let reference = SimBuilder::new(config, &copied).build().unwrap().run().unwrap();
        assert_eq!(sim.run().unwrap(), reference);
        assert_eq!(reference.cores.iter().map(CoreStats::accesses).sum::<u64>(), 64 * 200);
    }

    #[test]
    fn coherence_slots_recycle_under_seeded_faults() {
        // 2,000 lines over 256-set direct-mapped L1s (and, in the second
        // configuration, a 64-line LLC) keep evicting, so lines keep going
        // trivial and their slots keep being reused. Line corruption is
        // left out of the plans: it breaks the invariants on purpose.
        let w = cohort_trace::micro::random_shared(4, 2_000, 800, 0.3, 11);
        let distinct = w
            .traces()
            .iter()
            .flat_map(|t| t.ops().iter().map(|op| op.line))
            .collect::<BTreeSet<_>>();
        let configs = [
            SimConfig::builder(4).timers(vec![TimerValue::timed(50).unwrap(); 4]).build().unwrap(),
            SimConfig::builder(4)
                .llc(LlcModel::Finite(CacheGeometry::new(4096, 64, 4).unwrap()))
                .build()
                .unwrap(),
        ];
        for (c, config) in configs.into_iter().enumerate() {
            for seed in 0..3 {
                let specs = FaultPlan::seeded(seed, 4, 20_000, 16)
                    .specs()
                    .iter()
                    .filter(|s| s.kind != FaultKind::LineCorruption)
                    .copied()
                    .collect();
                let mut sim = SimBuilder::new(config.clone(), &w)
                    .faults(FaultPlan::new(specs))
                    .build()
                    .unwrap();
                while !sim.is_finished() {
                    sim.run_until(sim.now() + Cycles::new(1_500)).unwrap();
                    if let Err(e) = sim.validate_coherence() {
                        panic!("config {c}, seed {seed}, cycle {}: {e}", sim.now());
                    }
                }
                assert!(!sim.injected_faults().is_empty(), "config {c}, seed {seed}");
                assert!(
                    sim.coh.slot_count() < distinct.len() * 2 / 3,
                    "config {c}, seed {seed}: {} slots for {} lines",
                    sim.coh.slot_count(),
                    distinct.len()
                );
            }
        }
    }
}
