//! Bus arbitration policies: RROF, round-robin, TDM (PENDULUM) and FCFS.

use std::collections::VecDeque;

use cohort_types::Cycles;

use crate::ArbiterKind;

/// What a core wants to do with the bus when granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateKind {
    /// Pull ready data for its oldest pending request (the owner has
    /// released the line and the request is at the head of the line queue).
    Receive,
    /// Broadcast its oldest not-yet-broadcast request.
    Broadcast,
}

/// A core's bus candidate at an arbitration instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Receive or broadcast.
    pub kind: CandidateKind,
    /// Issue time of the underlying request (FCFS ordering key).
    pub issued: Cycles,
    /// The line the underlying request targets (so the engine does not
    /// re-derive it after a grant).
    pub line: cohort_types::LineAddr,
}

/// Stateful bus arbiter.
///
/// The engine calls [`Arbiter::grant`] whenever the bus is free, passing a
/// function that builds a core's optional [`Candidate`]; the arbiter asks
/// only the cores its policy inspects and picks the core to serve.
/// [`Arbiter::on_grant`] and [`Arbiter::on_request_served`] update the
/// rotation state:
///
/// - **RROF** rotates a core to the back only when its oldest request is
///   *served* (a completed data transfer), so a core that merely broadcasts
///   keeps its position — the property that tightens Eq. 1;
/// - **round-robin** rotates on any grant;
/// - **TDM** grants only at slot boundaries, to the slot-owning critical
///   core, or to a non-critical core only if *no* critical core wants the
///   bus (PENDULUM's unfair rule);
/// - **FCFS** picks the oldest request system-wide (COTS baseline).
#[derive(Debug, Clone)]
pub struct Arbiter {
    policy: Policy,
    slot_width: Cycles,
}

#[derive(Debug, Clone)]
enum Policy {
    Rrof { order: VecDeque<usize> },
    RoundRobin { order: VecDeque<usize> },
    Tdm { critical: Vec<usize>, noncritical: VecDeque<usize> },
    Fcfs { cores: usize },
}

impl Arbiter {
    /// Creates an arbiter for `cores` cores with the given slot width
    /// (`SW`, used only by TDM).
    ///
    /// # Panics
    ///
    /// Panics if a TDM mask length mismatches `cores` or names no critical
    /// core — [`crate::SimConfig`] validation rejects these before an
    /// arbiter is ever constructed.
    #[must_use]
    pub fn new(kind: &ArbiterKind, cores: usize, slot_width: Cycles) -> Self {
        let policy = match kind {
            ArbiterKind::Rrof => Policy::Rrof { order: (0..cores).collect() },
            ArbiterKind::RoundRobin => Policy::RoundRobin { order: (0..cores).collect() },
            ArbiterKind::Tdm { critical } => {
                assert_eq!(critical.len(), cores, "TDM mask must cover all cores");
                let crit: Vec<usize> =
                    critical.iter().enumerate().filter(|(_, &c)| c).map(|(i, _)| i).collect();
                assert!(!crit.is_empty(), "TDM needs a critical core");
                let noncrit =
                    critical.iter().enumerate().filter(|(_, &c)| !c).map(|(i, _)| i).collect();
                Policy::Tdm { critical: crit, noncritical: noncrit }
            }
            ArbiterKind::Fcfs => Policy::Fcfs { cores },
        };
        Arbiter { policy, slot_width }
    }

    /// Picks the core to grant the bus to at cycle `now`, with its
    /// candidate, or `None` if no candidate is grantable at this instant.
    ///
    /// `candidate(id)` builds core `id`'s candidate; it must be pure, so
    /// the grant does not depend on which cores are asked. Each policy asks
    /// only the cores it inspects: RROF and round-robin stop at the first
    /// core in rotation order with a candidate, TDM asks no core off a slot
    /// boundary and the slot owner first, and FCFS asks every core once.
    #[must_use]
    pub fn grant(
        &self,
        now: Cycles,
        mut candidate: impl FnMut(usize) -> Option<Candidate>,
    ) -> Option<(usize, Candidate)> {
        match &self.policy {
            Policy::Rrof { order } | Policy::RoundRobin { order } => {
                first_with_candidate(order.iter().copied(), &mut candidate)
            }
            Policy::Tdm { critical, noncritical } => {
                if !now.get().is_multiple_of(self.slot_width.get()) {
                    return None; // transactions start on slot boundaries
                }
                let slot = (now.get() / self.slot_width.get()) as usize % critical.len();
                let owner = critical[slot];
                if let Some(cand) = candidate(owner) {
                    return Some((owner, cand));
                }
                // PENDULUM rule: non-critical cores ride a slot only when no
                // critical core has a pending candidate.
                if critical.iter().any(|&c| c != owner && candidate(c).is_some()) {
                    return None; // idle slot
                }
                first_with_candidate(noncritical.iter().copied(), &mut candidate)
            }
            Policy::Fcfs { cores } => (0..*cores)
                .filter_map(|core| candidate(core).map(|cand| (core, cand)))
                .min_by_key(|&(core, cand)| (cand.issued, core)),
        }
    }

    /// The earliest instant strictly relevant for a new grant attempt after
    /// `now` if nothing else changes (TDM slot alignment); event-driven
    /// policies can grant at any cycle, so they return `now`.
    #[must_use]
    pub fn next_grant_opportunity(&self, now: Cycles) -> Cycles {
        match &self.policy {
            Policy::Tdm { .. } => {
                let sw = self.slot_width.get();
                Cycles::new((now.get() / sw + 1) * sw)
            }
            _ => now,
        }
    }

    /// Notifies the arbiter that `core` was granted the bus (any action).
    pub fn on_grant(&mut self, core: usize) {
        if let Policy::RoundRobin { order } = &mut self.policy {
            rotate_to_back(order, core);
        }
    }

    /// Notifies the arbiter that `core`'s oldest request completed (data
    /// received) — the RROF rotation point.
    pub fn on_request_served(&mut self, core: usize) {
        if let Policy::Rrof { order } = &mut self.policy {
            rotate_to_back(order, core);
        }
    }

    /// Current rotation order (for the event log and tests); `None` for
    /// policies without one.
    #[must_use]
    pub fn order(&self) -> Option<Vec<usize>> {
        match &self.policy {
            Policy::Rrof { order } | Policy::RoundRobin { order } => {
                Some(order.iter().copied().collect())
            }
            _ => None,
        }
    }
}

/// The first of `cores` with a candidate, asking no core after it.
fn first_with_candidate(
    mut cores: impl Iterator<Item = usize>,
    candidate: &mut impl FnMut(usize) -> Option<Candidate>,
) -> Option<(usize, Candidate)> {
    cores.find_map(|core| candidate(core).map(|cand| (core, cand)))
}

fn rotate_to_back(order: &mut VecDeque<usize>, core: usize) {
    if let Some(pos) = order.iter().position(|&c| c == core) {
        order.remove(pos);
        order.push_back(core);
    }
}

#[cfg(test)]
mod tests {
    use cohort_prop::prelude::*;

    use super::*;

    #[allow(clippy::unnecessary_wraps)] // candidate slots are Option-typed
    fn cand(issued: u64, kind: CandidateKind) -> Option<Candidate> {
        Some(Candidate { kind, issued: Cycles::new(issued), line: cohort_types::LineAddr::new(0) })
    }

    const SW: Cycles = Cycles::new(54);

    /// The core `arb` grants at `now` when core `id`'s candidate is `c[id]`.
    fn granted(arb: &Arbiter, now: Cycles, c: &[Option<Candidate>]) -> Option<usize> {
        arb.grant(now, |id| c[id]).map(|(core, cand)| {
            assert_eq!(Some(cand), c[core], "the grant returns the core's own candidate");
            core
        })
    }

    /// Grants at `now` and returns the grant with the cores asked, in order.
    fn asked(arb: &Arbiter, now: Cycles, c: &[Option<Candidate>]) -> (Option<usize>, Vec<usize>) {
        let mut log = Vec::new();
        let grant = arb.grant(now, |id| {
            log.push(id);
            c[id]
        });
        (grant.map(|(core, _)| core), log)
    }

    #[test]
    fn rrof_keeps_position_until_served() {
        let mut arb = Arbiter::new(&ArbiterKind::Rrof, 3, SW);
        let c = [cand(0, CandidateKind::Broadcast), cand(0, CandidateKind::Broadcast), None];
        assert_eq!(granted(&arb, Cycles::ZERO, &c), Some(0));
        // Core 0 broadcast (not served): keeps its position.
        assert_eq!(granted(&arb, Cycles::new(4), &c), Some(0));
        // Once served, it rotates to the back.
        arb.on_request_served(0);
        assert_eq!(granted(&arb, Cycles::new(8), &c), Some(1));
        assert_eq!(arb.order().unwrap(), vec![1, 2, 0]);
    }

    #[test]
    fn rrof_skips_cores_without_candidates() {
        let arb = Arbiter::new(&ArbiterKind::Rrof, 3, SW);
        let c = [None, None, cand(0, CandidateKind::Receive)];
        assert_eq!(granted(&arb, Cycles::ZERO, &c), Some(2));
    }

    #[test]
    fn round_robin_rotates_on_any_grant() {
        let mut arb = Arbiter::new(&ArbiterKind::RoundRobin, 2, SW);
        let c = [cand(0, CandidateKind::Broadcast), cand(0, CandidateKind::Broadcast)];
        assert_eq!(granted(&arb, Cycles::ZERO, &c), Some(0));
        arb.on_grant(0);
        assert_eq!(granted(&arb, Cycles::new(4), &c), Some(1));
        arb.on_grant(1);
        assert_eq!(granted(&arb, Cycles::new(8), &c), Some(0));
    }

    #[test]
    fn tdm_grants_only_on_slot_boundaries() {
        let kind = ArbiterKind::Tdm { critical: vec![true, true, false, false] };
        let arb = Arbiter::new(&kind, 4, SW);
        let c = [cand(0, CandidateKind::Receive), None, None, None];
        assert_eq!(granted(&arb, Cycles::ZERO, &c), Some(0));
        assert_eq!(granted(&arb, Cycles::new(1), &c), None, "mid-slot grant refused");
        // Slot 1 belongs to core 1, which has nothing; core 0 (critical)
        // wants the bus, so the slot idles — strict TDM.
        assert_eq!(granted(&arb, SW, &c), None);
        // Core 0's own slot comes around again.
        assert_eq!(granted(&arb, Cycles::new(108), &c), Some(0));
    }

    #[test]
    fn tdm_noncritical_rides_only_fully_idle_slots() {
        let kind = ArbiterKind::Tdm { critical: vec![true, false] };
        let arb = Arbiter::new(&kind, 2, SW);
        // Critical core idle, non-critical wants the bus: granted.
        let only_ncr = [None, cand(0, CandidateKind::Broadcast)];
        assert_eq!(granted(&arb, Cycles::ZERO, &only_ncr), Some(1));
        // Critical core busy-wanting: the non-critical core is starved even
        // in slots the critical owner leaves idle elsewhere.
        let both = [cand(5, CandidateKind::Broadcast), cand(0, CandidateKind::Broadcast)];
        assert_eq!(granted(&arb, Cycles::ZERO, &both), Some(0));
    }

    #[test]
    fn tdm_next_opportunity_is_next_boundary() {
        let kind = ArbiterKind::Tdm { critical: vec![true] };
        let arb = Arbiter::new(&kind, 1, SW);
        assert_eq!(arb.next_grant_opportunity(Cycles::ZERO).get(), 54);
        assert_eq!(arb.next_grant_opportunity(Cycles::new(53)).get(), 54);
        assert_eq!(arb.next_grant_opportunity(Cycles::new(54)).get(), 108);
    }

    #[test]
    fn fcfs_picks_globally_oldest() {
        let arb = Arbiter::new(&ArbiterKind::Fcfs, 3, SW);
        let c = [
            cand(9, CandidateKind::Broadcast),
            cand(3, CandidateKind::Broadcast),
            cand(3, CandidateKind::Receive),
        ];
        // Tie on issue time broken by core index.
        assert_eq!(granted(&arb, Cycles::ZERO, &c), Some(1));
    }

    #[test]
    fn event_driven_policies_need_no_alignment() {
        let arb = Arbiter::new(&ArbiterKind::Rrof, 2, SW);
        assert_eq!(arb.next_grant_opportunity(Cycles::new(17)).get(), 17);
    }

    #[test]
    fn rotation_policies_stop_at_the_first_core_with_a_candidate() {
        let c = [None, cand(0, CandidateKind::Broadcast), cand(0, CandidateKind::Receive), None];
        for kind in [ArbiterKind::Rrof, ArbiterKind::RoundRobin] {
            let mut arb = Arbiter::new(&kind, 4, SW);
            assert_eq!(asked(&arb, Cycles::ZERO, &c), (Some(1), vec![0, 1]));
            // Rotation order decides who is asked first.
            arb.on_grant(0);
            arb.on_request_served(0);
            assert_eq!(asked(&arb, Cycles::new(3), &c), (Some(1), vec![1]));
            // Nobody wants the bus: every core is asked once.
            assert_eq!(asked(&arb, Cycles::new(5), &[None; 4]).1.len(), 4);
        }
    }

    #[test]
    fn tdm_asks_no_core_mid_slot_and_the_slot_owner_first() {
        let kind = ArbiterKind::Tdm { critical: vec![true, true, false, false] };
        let arb = Arbiter::new(&kind, 4, SW);
        let all = [cand(0, CandidateKind::Broadcast); 4];
        assert_eq!(asked(&arb, Cycles::new(1), &all), (None, vec![]));
        assert_eq!(asked(&arb, Cycles::new(53), &all), (None, vec![]));
        // Slot 1 belongs to core 1: it is asked first and granted.
        assert_eq!(asked(&arb, SW, &all), (Some(1), vec![1]));
        // An idle owner: the other critical core wants the bus, so the slot
        // idles without asking a non-critical core.
        let c = [cand(0, CandidateKind::Broadcast), None, cand(0, CandidateKind::Receive), None];
        assert_eq!(asked(&arb, SW, &c), (None, vec![1, 0]));
        // No critical core wants the bus: the non-critical cores are asked
        // in order until one has a candidate.
        let c = [None, None, None, cand(0, CandidateKind::Receive)];
        assert_eq!(asked(&arb, SW, &c), (Some(3), vec![1, 0, 2, 3]));
    }

    properties! {
        #![cases(64)]

        /// The engine asks only its ready cores and answers `None` for the
        /// rest. Whatever superset of the cores with candidates it asks
        /// (exactly those, every core, or a seeded mix between), the grant
        /// must equal the grant over every core. Each case runs one policy
        /// on 4 or 64 cores over seeded candidate sets of every density,
        /// rotation states, TDM critical masks and grant instants.
        #[test]
        fn a_grant_over_any_superset_of_the_candidate_cores_matches_a_grant_over_every_core(
            seed in any::<u64>(),
            many in any::<bool>(),
            policy in 0usize..4,
        ) {
            let cores = if many { 64 } else { 4 };
            let mut step = 0;
            let mut draw = |span: u64| {
                step += 1;
                cohort_types::splitmix64(seed, step) % span
            };
            let kind = match policy {
                0 => ArbiterKind::Rrof,
                1 => ArbiterKind::RoundRobin,
                2 => ArbiterKind::Tdm {
                    critical: (0..cores).map(|id| id == 0 || draw(2) == 0).collect(),
                },
                _ => ArbiterKind::Fcfs,
            };
            let mut arb = Arbiter::new(&kind, cores, SW);
            for _ in 0..300 {
                // One in `sparsity` cores has a candidate (none when 0).
                let sparsity = draw(6);
                let mut with = 0u64;
                let c: Vec<Option<Candidate>> = (0..cores)
                    .map(|id| {
                        if sparsity == 0 || draw(sparsity) != 0 {
                            return None;
                        }
                        with |= 1 << id;
                        let kind = [CandidateKind::Broadcast, CandidateKind::Receive][id % 2];
                        cand(draw(50), kind)
                    })
                    .collect();
                let asked = with
                    | match draw(3) {
                        0 => 0,
                        1 => u64::MAX,
                        _ => draw(u64::MAX) & draw(u64::MAX),
                    };
                let now =
                    Cycles::new(if draw(2) == 0 { SW.get() * draw(40) } else { draw(2_000) });
                let restricted =
                    arb.grant(now, |id| if asked & 1 << id == 0 { None } else { c[id] });
                assert_eq!(restricted, arb.grant(now, |id| c[id]), "{kind:?} at {now}");
                if let Some((core, _)) = restricted {
                    arb.on_grant(core);
                    if draw(2) == 0 {
                        arb.on_request_served(core);
                    }
                }
            }
        }
    }

    #[test]
    fn fcfs_asks_each_core_once() {
        let arb = Arbiter::new(&ArbiterKind::Fcfs, 4, SW);
        let c = [None, cand(7, CandidateKind::Broadcast), None, cand(2, CandidateKind::Receive)];
        assert_eq!(asked(&arb, Cycles::ZERO, &c), (Some(3), vec![0, 1, 2, 3]));
    }
}
