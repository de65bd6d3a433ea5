//! Abstracted CoHoRT protocol state machine for small-scope exhaustive
//! exploration.
//!
//! The model deliberately elides everything the invariants do not depend
//! on — exact cycle counts, bus arbitration order, MSHR occupancy, the
//! finite-LLC replacement machinery — and keeps only the protocol-level
//! skeleton: per-core line copies, the per-line waiter queue, and a
//! *protection* bit that abstracts the timer window of a θ ≥ 0 holder.
//!
//! Time abstraction: instead of a clock, each copy filled at a
//! [`ThetaClass::Timed`] core is born *protected*. A nondeterministic
//! [`ModelEvent::TimerExpire`] transition (enabled only while a
//! dispossessing request is actually queued, mirroring the engine's
//! pending-invalidation countdown) clears the bit. Serving a request that
//! dispossesses a still-protected holder is exactly the timer-protection
//! violation of the paper; the unmutated model can never do it because
//! [`ModelEvent::ServeHead`] is gated on every dispossessed holder being
//! unprotected.
//!
//! Data values are symbolic version counters: every committed store bumps
//! the line's `current_version`, and every fill records which version the
//! requester observed. A fill or hit that observes anything other than
//! `current_version` is a data-value violation.

use core::fmt;

/// Maximum number of cores the fixed-size model state supports.
pub const MAX_CORES: usize = 3;
/// Maximum number of distinct cache lines the model supports.
const MAX_LINES: usize = 2;

/// Abstract per-core timer-register class.
///
/// The exhaustive checker only cares about three behaviours: plain MSI
/// (θ = −1, never protected), θ = 0 (timed mode but the window closes
/// immediately), and θ > 0 (a real protection window). Every concrete
/// θ > 0 induces the same reachable protocol graph under the protection-bit
/// abstraction, so a single representative class suffices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThetaClass {
    /// θ = −1: conventional MSI snooping, dispossession is immediate.
    Msi,
    /// θ = 0: time-based protocol whose protection window is empty.
    Zero,
    /// θ = k > 0: time-based protocol with a non-empty protection window.
    Timed,
}

impl ThetaClass {
    /// All classes, in display order.
    pub const ALL: [ThetaClass; 3] = [ThetaClass::Msi, ThetaClass::Zero, ThetaClass::Timed];

    /// Whether a fill at a core of this class starts a protection window.
    #[must_use]
    const fn protects(self) -> bool {
        matches!(self, ThetaClass::Timed)
    }
}

impl fmt::Display for ThetaClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThetaClass::Msi => write!(f, "msi"),
            ThetaClass::Zero => write!(f, "θ=0"),
            ThetaClass::Timed => write!(f, "θ=k"),
        }
    }
}

/// A deliberate single-rule protocol mutation, used by the mutation smoke
/// test to prove the checker actually detects each class of violation.
///
/// `Mutation::None` is the faithful protocol; every other variant flips
/// exactly one transition rule and must be caught by the corresponding
/// invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mutation {
    /// Faithful protocol: no rule is altered.
    #[default]
    None,
    /// `ServeHead` no longer waits for dispossessed holders' timers —
    /// caught by the **timer-protection** invariant.
    IgnoreTimerProtection,
    /// Serving a `GetM` leaves Shared copies valid — caught by **SWMR**
    /// (and, one store later, by **data-value**).
    SkipInvalidation,
    /// Evicting a Modified copy skips the writeback — caught by
    /// **data-value** when the LLC later supplies the stale line.
    SkipEvictWriteback,
    /// The holder-side countdown never fires — caught by the **liveness**
    /// check (a dispossessing waiter is stuck behind a protection window
    /// that can no longer close).
    DropTimerExpiry,
}

impl Mutation {
    /// Every non-trivial mutation, one per invariant class.
    pub const ALL: [Mutation; 4] = [
        Mutation::IgnoreTimerProtection,
        Mutation::SkipInvalidation,
        Mutation::SkipEvictWriteback,
        Mutation::DropTimerExpiry,
    ];

    /// Stable kebab-case identifier (CLI surface).
    #[must_use]
    pub const fn slug(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::IgnoreTimerProtection => "ignore-timer-protection",
            Mutation::SkipInvalidation => "skip-invalidation",
            Mutation::SkipEvictWriteback => "skip-evict-writeback",
            Mutation::DropTimerExpiry => "drop-timer-expiry",
        }
    }

    /// Parses a [`slug`](Self::slug) back into a mutation.
    #[must_use]
    pub fn from_slug(slug: &str) -> Option<Self> {
        [Mutation::None].iter().chain(Mutation::ALL.iter()).copied().find(|m| m.slug() == slug)
    }

    /// The invariant class this mutation is designed to trip.
    #[must_use]
    pub const fn expected_violation(self) -> Option<ViolationKind> {
        match self {
            Mutation::None => None,
            Mutation::IgnoreTimerProtection => Some(ViolationKind::TimerProtection),
            Mutation::SkipInvalidation => Some(ViolationKind::Swmr),
            Mutation::SkipEvictWriteback => Some(ViolationKind::DataValue),
            Mutation::DropTimerExpiry => Some(ViolationKind::Liveness),
        }
    }
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// The invariant classes the checker enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Single-writer / multiple-reader: at most one Modified copy, and
    /// never a Modified copy coexisting with Shared copies.
    Swmr,
    /// A fill or hit observed a version other than the line's most
    /// recently committed one.
    DataValue,
    /// A holder was dispossessed while its protection window was open.
    TimerProtection,
    /// A waiter queue can make no further progress (deadlock).
    Liveness,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::Swmr => write!(f, "SWMR"),
            ViolationKind::DataValue => write!(f, "data-value"),
            ViolationKind::TimerProtection => write!(f, "timer-protection"),
            ViolationKind::Liveness => write!(f, "liveness"),
        }
    }
}

/// A detected invariant violation with a human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelViolation {
    /// Which invariant class was broken.
    pub kind: ViolationKind,
    /// What happened, in terms of cores, lines, and versions.
    pub message: String,
}

impl fmt::Display for ModelViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.message)
    }
}

/// Configuration of one exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Per-core timer class; length gives the core count (≤ [`MAX_CORES`]).
    pub thetas: Vec<ThetaClass>,
    /// Number of distinct cache lines (1..=`MAX_LINES`).
    pub lines: usize,
    /// How many loads/stores each core may perform (bounds the state space).
    pub ops_per_core: u8,
    /// The transition-rule mutation to explore under.
    pub mutation: Mutation,
}

impl ModelConfig {
    /// A faithful-protocol configuration over `thetas` with `lines` lines
    /// and a 3-op budget per core.
    ///
    /// # Panics
    ///
    /// Panics if `thetas` is empty or exceeds [`MAX_CORES`], or `lines`
    /// is 0 or exceeds `MAX_LINES`.
    #[must_use]
    pub fn new(thetas: &[ThetaClass], lines: usize) -> Self {
        assert!(
            !thetas.is_empty() && thetas.len() <= MAX_CORES,
            "the model supports 1..={MAX_CORES} cores"
        );
        assert!((1..=MAX_LINES).contains(&lines), "the model supports 1..={MAX_LINES} lines");
        ModelConfig { thetas: thetas.to_vec(), lines, ops_per_core: 3, mutation: Mutation::None }
    }

    /// Returns a copy with a different per-core op budget.
    #[must_use]
    pub fn with_ops(mut self, ops_per_core: u8) -> Self {
        self.ops_per_core = ops_per_core;
        self
    }

    /// Returns a copy exploring under `mutation`.
    #[must_use]
    pub fn with_mutation(mut self, mutation: Mutation) -> Self {
        self.mutation = mutation;
        self
    }

    /// Number of modelled cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.thetas.len()
    }
}

/// MSI state of one core's copy of one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
enum CopyState {
    #[default]
    Invalid,
    Shared,
    Modified,
}

/// One core's view of one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
struct ModelCopy {
    state: CopyState,
    /// The symbolic version this copy observed at fill / last commit.
    version: u8,
    /// Whether the holder's protection window is still open.
    protected: bool,
}

impl ModelCopy {
    const fn valid(self) -> bool {
        !matches!(self.state, CopyState::Invalid)
    }
}

/// Coherence request kinds at the model level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelReq {
    /// Read for sharing.
    GetS,
    /// Read-for-ownership / upgrade.
    GetM,
}

impl fmt::Display for ModelReq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelReq::GetS => write!(f, "GetS"),
            ModelReq::GetM => write!(f, "GetM"),
        }
    }
}

/// One queued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ModelWaiter {
    core: u8,
    kind: ModelReq,
}

/// Fixed-capacity FIFO of queued requests (each core has at most one
/// outstanding request, so `MAX_CORES` slots always suffice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
struct WaiterQueue {
    slots: [Option<ModelWaiter>; MAX_CORES],
    len: u8,
}

impl WaiterQueue {
    fn push_back(&mut self, w: ModelWaiter) {
        let idx = usize::from(self.len);
        assert!(idx < MAX_CORES, "waiter queue overflow");
        self.slots[idx] = Some(w);
        self.len += 1;
    }

    fn pop_front(&mut self) -> Option<ModelWaiter> {
        let head = self.slots[0]?;
        for i in 1..usize::from(self.len) {
            self.slots[i - 1] = self.slots[i];
        }
        self.slots[usize::from(self.len) - 1] = None;
        self.len -= 1;
        Some(head)
    }

    fn head(self) -> Option<ModelWaiter> {
        self.slots[0]
    }

    fn is_empty(self) -> bool {
        self.len == 0
    }

    fn iter(&self) -> impl Iterator<Item = ModelWaiter> + '_ {
        self.slots.iter().take(usize::from(self.len)).filter_map(|s| *s)
    }
}

/// One nondeterministic step of the abstract machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelEvent {
    /// Core `core` performs a load of `line` (hit, or enqueue a `GetS`).
    Load {
        /// Issuing core.
        core: u8,
        /// Target line.
        line: u8,
    },
    /// Core `core` performs a store to `line` (hit, or enqueue a `GetM`).
    Store {
        /// Issuing core.
        core: u8,
        /// Target line.
        line: u8,
    },
    /// Core `core` evicts its copy of `line` (capacity/conflict victim).
    Evict {
        /// Evicting core.
        core: u8,
        /// Victim line.
        line: u8,
    },
    /// The protection window of `core`'s copy of `line` closes.
    TimerExpire {
        /// Holder whose countdown fires.
        core: u8,
        /// Protected line.
        line: u8,
    },
    /// The bus serves the request at the head of `line`'s waiter queue.
    ServeHead {
        /// Line whose head request completes.
        line: u8,
    },
}

impl fmt::Display for ModelEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelEvent::Load { core, line } => write!(f, "c{core}: load  l{line}"),
            ModelEvent::Store { core, line } => write!(f, "c{core}: store l{line}"),
            ModelEvent::Evict { core, line } => write!(f, "c{core}: evict l{line}"),
            ModelEvent::TimerExpire { core, line } => {
                write!(f, "c{core}: timer expires for l{line}")
            }
            ModelEvent::ServeHead { line } => write!(f, "bus: serve head of l{line} queue"),
        }
    }
}

/// The full abstract system state. Plain `Copy` data with a derived `Hash`,
/// so the explorer can dedup states in a hash map without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelState {
    copies: [[ModelCopy; MAX_LINES]; MAX_CORES],
    /// The version the LLC/memory holds for each line.
    mem_version: [u8; MAX_LINES],
    /// The most recently committed version of each line.
    current_version: [u8; MAX_LINES],
    waiters: [WaiterQueue; MAX_LINES],
    /// The line each core has an outstanding request on, if any.
    pending: [Option<u8>; MAX_CORES],
    ops_left: [u8; MAX_CORES],
}

impl ModelState {
    /// The initial state: all copies invalid, memory current, queues empty.
    #[must_use]
    pub fn initial(config: &ModelConfig) -> Self {
        let mut ops_left = [0u8; MAX_CORES];
        for slot in ops_left.iter_mut().take(config.cores()) {
            *slot = config.ops_per_core;
        }
        ModelState {
            copies: [[ModelCopy::default(); MAX_LINES]; MAX_CORES],
            mem_version: [0; MAX_LINES],
            current_version: [0; MAX_LINES],
            waiters: [WaiterQueue::default(); MAX_LINES],
            pending: [None; MAX_CORES],
            ops_left,
        }
    }

    fn copy(&self, core: u8, line: u8) -> ModelCopy {
        self.copies[usize::from(core)][usize::from(line)]
    }

    fn copy_mut(&mut self, core: u8, line: u8) -> &mut ModelCopy {
        &mut self.copies[usize::from(core)][usize::from(line)]
    }

    /// The Modified owner of `line`, if any.
    fn owner(&self, config: &ModelConfig, line: u8) -> Option<u8> {
        (0..config.cores() as u8).find(|&c| matches!(self.copy(c, line).state, CopyState::Modified))
    }

    /// Whether serving `head` would take `holder`'s copy of `line` away
    /// (invalidate it, for `GetM`) or demote it (M→S, for `GetS`).
    fn dispossesses(&self, head: ModelWaiter, holder: u8, line: u8) -> bool {
        if head.core == holder {
            return false;
        }
        let copy = self.copy(holder, line);
        match head.kind {
            ModelReq::GetM => copy.valid(),
            ModelReq::GetS => matches!(copy.state, CopyState::Modified),
        }
    }

    /// Whether the holder's copy still confers hit rights: a queued
    /// dispossessing request from another core revokes them as soon as the
    /// holder is unprotected (the engine's *logical release*).
    fn hit_allowed(&self, core: u8, line: u8, for_store: bool) -> bool {
        let copy = self.copy(core, line);
        let held = if for_store { matches!(copy.state, CopyState::Modified) } else { copy.valid() };
        if !held {
            return false;
        }
        if copy.protected {
            return true;
        }
        // Unprotected: any queued request that would dispossess this copy
        // ends its hit window immediately.
        !self.waiters[usize::from(line)].iter().any(|w| self.dispossesses(w, core, line))
    }

    /// All events enabled in this state under `config` (including its
    /// mutation). The faithful protocol gates `ServeHead` on every
    /// dispossessed holder being unprotected.
    #[must_use]
    pub fn enabled_events(&self, config: &ModelConfig) -> Vec<ModelEvent> {
        let cores = config.cores() as u8;
        let lines = config.lines as u8;
        let mut events = Vec::new();
        for core in 0..cores {
            for line in 0..lines {
                let copy = self.copy(core, line);
                if self.ops_left[usize::from(core)] > 0 {
                    // A core with an outstanding request stalls (MSHR = 1).
                    if self.pending[usize::from(core)].is_none() {
                        events.push(ModelEvent::Load { core, line });
                        events.push(ModelEvent::Store { core, line });
                    }
                }
                if copy.valid() {
                    events.push(ModelEvent::Evict { core, line });
                }
                if copy.protected
                    && config.mutation != Mutation::DropTimerExpiry
                    && self.waiters[usize::from(line)]
                        .head()
                        .is_some_and(|h| self.dispossesses(h, core, line))
                {
                    // The countdown only runs while a dispossessing request
                    // is actually pending (the engine arms it on snoop).
                    events.push(ModelEvent::TimerExpire { core, line });
                }
            }
        }
        for line in 0..lines {
            if let Some(head) = self.waiters[usize::from(line)].head() {
                let all_released = (0..cores).all(|holder| {
                    !self.dispossesses(head, holder, line) || !self.copy(holder, line).protected
                });
                if all_released || config.mutation == Mutation::IgnoreTimerProtection {
                    events.push(ModelEvent::ServeHead { line });
                }
            }
        }
        events
    }

    /// Applies `event`, returning the successor state or the invariant
    /// violation the transition itself commits (timer protection and
    /// data-value are transition-level properties).
    ///
    /// # Errors
    ///
    /// Returns the [`ModelViolation`] committed by this transition.
    ///
    /// # Panics
    ///
    /// Panics if `event` is not enabled in this state (checker bug).
    pub fn apply(
        &self,
        config: &ModelConfig,
        event: ModelEvent,
    ) -> Result<ModelState, ModelViolation> {
        let mut next = *self;
        match event {
            ModelEvent::Load { core, line } => {
                next.ops_left[usize::from(core)] -= 1;
                if self.hit_allowed(core, line, false) {
                    let copy = self.copy(core, line);
                    if copy.version != self.current_version[usize::from(line)] {
                        return Err(ModelViolation {
                            kind: ViolationKind::DataValue,
                            message: format!(
                                "c{core} load hit on l{line} observes v{} but v{} was committed",
                                copy.version,
                                self.current_version[usize::from(line)]
                            ),
                        });
                    }
                } else {
                    next.enqueue(core, line, ModelReq::GetS);
                }
            }
            ModelEvent::Store { core, line } => {
                next.ops_left[usize::from(core)] -= 1;
                if self.hit_allowed(core, line, true) {
                    let lu = usize::from(line);
                    next.current_version[lu] = next.current_version[lu].wrapping_add(1);
                    let version = next.current_version[lu];
                    next.copy_mut(core, line).version = version;
                } else {
                    next.enqueue(core, line, ModelReq::GetM);
                }
            }
            ModelEvent::Evict { core, line } => {
                let copy = self.copy(core, line);
                if matches!(copy.state, CopyState::Modified)
                    && config.mutation != Mutation::SkipEvictWriteback
                {
                    next.mem_version[usize::from(line)] = copy.version;
                }
                *next.copy_mut(core, line) = ModelCopy::default();
            }
            ModelEvent::TimerExpire { core, line } => {
                next.copy_mut(core, line).protected = false;
            }
            ModelEvent::ServeHead { line } => {
                let head = next.waiters[usize::from(line)]
                    .pop_front()
                    .expect("ServeHead requires a queued request");
                next.serve(config, head, line)?;
            }
        }
        Ok(next)
    }

    fn enqueue(&mut self, core: u8, line: u8, kind: ModelReq) {
        debug_assert!(self.pending[usize::from(core)].is_none(), "MSHR=1: one request per core");
        self.waiters[usize::from(line)].push_back(ModelWaiter { core, kind });
        self.pending[usize::from(core)] = Some(line);
        // A holder that itself requests the line releases immediately: the
        // engine treats a holder with its own in-flight request as MSI.
        self.copy_mut(core, line).protected = false;
    }

    fn serve(
        &mut self,
        config: &ModelConfig,
        head: ModelWaiter,
        line: u8,
    ) -> Result<(), ModelViolation> {
        let cores = config.cores() as u8;
        let lu = usize::from(line);

        // Transition-level timer check, independent of how ServeHead got
        // enabled — this is what catches `IgnoreTimerProtection`.
        for holder in 0..cores {
            if self.dispossesses(head, holder, line) && self.copy(holder, line).protected {
                return Err(ModelViolation {
                    kind: ViolationKind::TimerProtection,
                    message: format!(
                        "serving {} from c{} dispossesses c{holder}'s copy of l{line} \
                         before its protection window closed",
                        head.kind, head.core
                    ),
                });
            }
        }

        let owner = self.owner(config, line).filter(|&o| o != head.core);
        let supplied = match owner {
            Some(o) => {
                let v = self.copy(o, line).version;
                match head.kind {
                    ModelReq::GetS => {
                        // Owner demotes M→S and folds the dirty line back.
                        self.copy_mut(o, line).state = CopyState::Shared;
                        self.mem_version[lu] = v;
                    }
                    ModelReq::GetM => {}
                }
                v
            }
            None => self.mem_version[lu],
        };

        if head.kind == ModelReq::GetM {
            for holder in 0..cores {
                if holder == head.core {
                    continue;
                }
                let copy = self.copy(holder, line);
                if !copy.valid() {
                    continue;
                }
                if config.mutation == Mutation::SkipInvalidation
                    && matches!(copy.state, CopyState::Shared)
                {
                    continue; // the mutated rule forgets Shared copies
                }
                *self.copy_mut(holder, line) = ModelCopy::default();
            }
        }

        if supplied != self.current_version[lu] {
            return Err(ModelViolation {
                kind: ViolationKind::DataValue,
                message: format!(
                    "{} fill for c{} on l{line} supplied v{supplied} but v{} was committed",
                    head.kind, head.core, self.current_version[lu]
                ),
            });
        }

        let protects = config.thetas[usize::from(head.core)].protects();
        let filled = match head.kind {
            ModelReq::GetS => {
                ModelCopy { state: CopyState::Shared, version: supplied, protected: protects }
            }
            ModelReq::GetM => {
                // The fill atomically commits the store that missed.
                self.current_version[lu] = self.current_version[lu].wrapping_add(1);
                ModelCopy {
                    state: CopyState::Modified,
                    version: self.current_version[lu],
                    protected: protects,
                }
            }
        };
        *self.copy_mut(head.core, line) = filled;
        self.pending[usize::from(head.core)] = None;
        Ok(())
    }

    /// State-level invariant check: SWMR and copy currency.
    #[must_use]
    pub fn check_state(&self, config: &ModelConfig) -> Option<ModelViolation> {
        let cores = config.cores() as u8;
        for line in 0..config.lines as u8 {
            let mut modified = Vec::new();
            let mut shared = Vec::new();
            for core in 0..cores {
                match self.copy(core, line).state {
                    CopyState::Modified => modified.push(core),
                    CopyState::Shared => shared.push(core),
                    CopyState::Invalid => {}
                }
            }
            if modified.len() > 1 {
                return Some(ModelViolation {
                    kind: ViolationKind::Swmr,
                    message: format!("cores {modified:?} all hold l{line} Modified"),
                });
            }
            if let (Some(&m), false) = (modified.first(), shared.is_empty()) {
                return Some(ModelViolation {
                    kind: ViolationKind::Swmr,
                    message: format!(
                        "c{m} holds l{line} Modified while cores {shared:?} still share it"
                    ),
                });
            }
            // Every surviving copy must be current: the protocol only lets a
            // writer commit after dispossessing all other holders.
            for core in 0..cores {
                let copy = self.copy(core, line);
                if copy.valid() && copy.version != self.current_version[usize::from(line)] {
                    return Some(ModelViolation {
                        kind: ViolationKind::DataValue,
                        message: format!(
                            "c{core}'s copy of l{line} is stale (v{} vs committed v{})",
                            copy.version,
                            self.current_version[usize::from(line)]
                        ),
                    });
                }
            }
        }
        None
    }

    /// Liveness check: every non-empty waiter queue must have a path
    /// forward — either its head is serveable now, or a timer expiry that
    /// unblocks it is still enabled.
    #[must_use]
    pub fn check_progress(&self, config: &ModelConfig) -> Option<ModelViolation> {
        let enabled = self.enabled_events(config);
        for line in 0..config.lines as u8 {
            if self.waiters[usize::from(line)].is_empty() {
                continue;
            }
            let can_progress = enabled.iter().any(|e| {
                matches!(e, ModelEvent::ServeHead { line: l } if *l == line)
                    || matches!(e, ModelEvent::TimerExpire { line: l, .. } if *l == line)
            });
            if !can_progress {
                let head = self.waiters[usize::from(line)].head().expect("non-empty queue");
                return Some(ModelViolation {
                    kind: ViolationKind::Liveness,
                    message: format!(
                        "c{}'s {} on l{line} is stuck: no serve or expiry can ever fire",
                        head.core, head.kind
                    ),
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_core(mutation: Mutation) -> ModelConfig {
        ModelConfig::new(&[ThetaClass::Timed, ThetaClass::Msi], 1).with_mutation(mutation)
    }

    #[test]
    fn initial_state_is_clean_and_quiescent() {
        let config = two_core(Mutation::None);
        let s = ModelState::initial(&config);
        assert!(s.check_state(&config).is_none());
        assert!(s.check_progress(&config).is_none());
        // Only loads and stores are enabled from cold.
        for e in s.enabled_events(&config) {
            assert!(matches!(e, ModelEvent::Load { .. } | ModelEvent::Store { .. }), "{e}");
        }
    }

    #[test]
    fn store_miss_enqueues_and_serve_fills_modified() {
        let config = two_core(Mutation::None);
        let s0 = ModelState::initial(&config);
        let s1 = s0.apply(&config, ModelEvent::Store { core: 0, line: 0 }).unwrap();
        assert_eq!(s1.pending[0], Some(0));
        let s2 = s1.apply(&config, ModelEvent::ServeHead { line: 0 }).unwrap();
        assert_eq!(s2.owner(&config, 0), Some(0));
        assert_eq!(s2.current_version[0], 1);
        assert!(s2.copy(0, 0).protected, "a Timed core's fill opens a protection window");
        assert!(s2.check_state(&config).is_none());
    }

    #[test]
    fn protected_holder_blocks_serve_until_expiry() {
        let config = two_core(Mutation::None);
        let mut s = ModelState::initial(&config);
        for e in [
            ModelEvent::Store { core: 0, line: 0 },
            ModelEvent::ServeHead { line: 0 },
            ModelEvent::Store { core: 1, line: 0 },
        ] {
            s = s.apply(&config, e).unwrap();
        }
        let enabled = s.enabled_events(&config);
        assert!(
            !enabled.contains(&ModelEvent::ServeHead { line: 0 }),
            "c1's GetM must wait for c0's window"
        );
        assert!(enabled.contains(&ModelEvent::TimerExpire { core: 0, line: 0 }));
        assert!(s.check_progress(&config).is_none(), "expiry keeps the queue live");

        s = s.apply(&config, ModelEvent::TimerExpire { core: 0, line: 0 }).unwrap();
        assert!(s.enabled_events(&config).contains(&ModelEvent::ServeHead { line: 0 }));
        let s = s.apply(&config, ModelEvent::ServeHead { line: 0 }).unwrap();
        assert!(!s.copy(0, 0).valid(), "GetM dispossessed the old owner");
        assert_eq!(s.owner(&config, 0), Some(1));
        assert!(s.check_state(&config).is_none());
    }

    #[test]
    fn msi_holder_is_never_protected() {
        let config = two_core(Mutation::None);
        let mut s = ModelState::initial(&config);
        for e in [
            ModelEvent::Store { core: 1, line: 0 }, // c1 is the MSI core
            ModelEvent::ServeHead { line: 0 },
            ModelEvent::Store { core: 0, line: 0 },
        ] {
            s = s.apply(&config, e).unwrap();
        }
        assert!(!s.copy(1, 0).protected);
        assert!(s.enabled_events(&config).contains(&ModelEvent::ServeHead { line: 0 }));
    }

    #[test]
    fn ignore_timer_protection_mutation_trips_the_transition_check() {
        let config = two_core(Mutation::IgnoreTimerProtection);
        let mut s = ModelState::initial(&config);
        for e in [
            ModelEvent::Store { core: 0, line: 0 },
            ModelEvent::ServeHead { line: 0 },
            ModelEvent::Store { core: 1, line: 0 },
        ] {
            s = s.apply(&config, e).unwrap();
        }
        assert!(
            s.enabled_events(&config).contains(&ModelEvent::ServeHead { line: 0 }),
            "the mutation must enable the premature serve"
        );
        let err = s.apply(&config, ModelEvent::ServeHead { line: 0 }).unwrap_err();
        assert_eq!(err.kind, ViolationKind::TimerProtection);
    }

    #[test]
    fn skip_invalidation_mutation_breaks_swmr() {
        let config = two_core(Mutation::SkipInvalidation);
        let mut s = ModelState::initial(&config);
        for e in [
            ModelEvent::Load { core: 1, line: 0 }, // MSI sharer, never protected
            ModelEvent::ServeHead { line: 0 },
            ModelEvent::Store { core: 0, line: 0 },
            ModelEvent::ServeHead { line: 0 },
        ] {
            s = s.apply(&config, e).unwrap();
        }
        let v = s.check_state(&config).expect("the stale sharer must be detected");
        assert_eq!(v.kind, ViolationKind::Swmr);
    }

    #[test]
    fn skip_evict_writeback_mutation_serves_stale_data() {
        let config = two_core(Mutation::SkipEvictWriteback);
        let mut s = ModelState::initial(&config);
        for e in [
            ModelEvent::Store { core: 1, line: 0 },
            ModelEvent::ServeHead { line: 0 },
            ModelEvent::Evict { core: 1, line: 0 }, // dirty eviction, writeback dropped
            ModelEvent::Load { core: 0, line: 0 },
        ] {
            s = s.apply(&config, e).unwrap();
        }
        let err = s.apply(&config, ModelEvent::ServeHead { line: 0 }).unwrap_err();
        assert_eq!(err.kind, ViolationKind::DataValue);
    }

    #[test]
    fn drop_timer_expiry_mutation_starves_the_queue() {
        let config = two_core(Mutation::DropTimerExpiry);
        let mut s = ModelState::initial(&config);
        for e in [
            ModelEvent::Store { core: 0, line: 0 },
            ModelEvent::ServeHead { line: 0 },
            ModelEvent::Store { core: 1, line: 0 },
        ] {
            s = s.apply(&config, e).unwrap();
        }
        let v = s.check_progress(&config).expect("the queue must be reported stuck");
        assert_eq!(v.kind, ViolationKind::Liveness);
    }

    #[test]
    fn mutation_slugs_round_trip() {
        for m in [Mutation::None].iter().chain(Mutation::ALL.iter()).copied() {
            assert_eq!(Mutation::from_slug(m.slug()), Some(m));
        }
        assert_eq!(Mutation::from_slug("bogus"), None);
    }
}
