use core::fmt;

/// Error type shared by the CoHoRT workspace crates.
///
/// Every fallible public constructor or operation in the stack reports
/// failures through this enum, so downstream crates can bubble errors with
/// `?` without defining conversion boilerplate for each layer.
///
/// # Examples
///
/// ```
/// use cohort_types::{Error, TimerValue};
///
/// let err = TimerValue::timed(u64::from(u16::MAX) + 1).unwrap_err();
/// assert!(matches!(err, Error::TimerOutOfRange { .. }));
/// assert!(err.to_string().contains("timer"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A timer threshold exceeded the 16-bit register range mandated by the
    /// CoHoRT cache-controller architecture (§III-B of the paper).
    TimerOutOfRange {
        /// The rejected θ value.
        value: u64,
        /// The maximum representable θ (2¹⁶ − 1).
        max: u64,
    },
    /// A criticality level or mode index was zero or exceeded the number of
    /// levels supported by the system.
    LevelOutOfRange {
        /// The rejected level.
        value: u32,
        /// The highest level the system supports.
        max: u32,
    },
    /// A core index referenced a core that does not exist in the system.
    UnknownCore {
        /// The rejected core index.
        index: usize,
        /// The number of cores in the system.
        cores: usize,
    },
    /// A configuration value was structurally invalid (empty system, zero
    /// cache size, non-power-of-two line size, …).
    InvalidConfig(String),
    /// A trace or workload could not be decoded.
    Codec(String),
    /// The optimization engine could not find a feasible timer assignment
    /// (constraint C1 cannot be met for at least one task).
    Infeasible(String),
    /// A pool job panicked; the payload is the panic message. Produced by
    /// the fallible worker pool (`run_jobs`), which catches the unwind so
    /// the job's siblings still run.
    JobPanicked(String),
    /// The simulation engine made no observable progress for its defensive
    /// watchdog window — an engine bug or a pathological configuration,
    /// never a legal run. Watchdog and chaos harnesses match on this
    /// variant to distinguish a wedged engine from a rejected input.
    Deadlock {
        /// The cycle at which the watchdog gave up.
        cycle: u64,
    },
    /// A fleet worker tried to complete a job whose lease had already
    /// expired and been re-claimed at a newer epoch. The late result is
    /// discarded — determinism guarantees the re-claimer recomputes the
    /// identical outcome, so nothing is lost.
    LeaseExpired {
        /// The epoch the stale completion was claimed at.
        held: u64,
        /// The epoch the job has since advanced to.
        current: u64,
    },
    /// A content-addressed store entry failed its integrity check: the
    /// payload's recomputed fingerprint does not match the one recorded
    /// when the entry was written (disk corruption or a tampered file).
    StoreCorrupt {
        /// The entry's content-address key (hex fingerprint).
        key: String,
        /// What the corruption check found wrong.
        detail: String,
    },
    /// A fleet job exhausted its attempt budget: every issued lease
    /// expired without a completion, so the queue moved the job to the
    /// `Quarantined` terminal state instead of re-claiming it forever (a
    /// poison job crashes whichever worker touches it). The diagnostics
    /// name the last claim so the poison can be reproduced.
    JobQuarantined {
        /// The job's content-address key (hex fingerprint).
        key: String,
        /// How many leases were issued before the budget ran out.
        attempts: u64,
        /// The worker holding the final, fatal claim.
        worker: u64,
        /// The epoch of the final claim.
        epoch: u64,
        /// The final lease's deadline (clock ticks, ns).
        deadline_ns: u64,
    },
    /// A bounded wait on a fleet job elapsed before the job reached a
    /// terminal state — the caller chose not to block forever on a stuck
    /// queue.
    WaitTimedOut {
        /// The awaited job's content-address key (hex fingerprint).
        key: String,
        /// How long the caller waited (milliseconds).
        waited_ms: u64,
    },
    /// The persistent store mirror kept failing past its bounded,
    /// deterministically-seeded retry backoff — the disk fault was not
    /// transient, and the store gives up rather than spin forever.
    StoreUnavailable {
        /// The path the mirror was writing.
        path: String,
        /// Write attempts made before giving up.
        attempts: u64,
        /// The final I/O error.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::TimerOutOfRange { value, max } => {
                write!(f, "timer value {value} exceeds the 16-bit register range (max {max})")
            }
            Error::LevelOutOfRange { value, max } => {
                write!(f, "criticality level or mode {value} outside the valid range 1..={max}")
            }
            Error::UnknownCore { index, cores } => {
                write!(f, "core index {index} out of range for a {cores}-core system")
            }
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Codec(msg) => write!(f, "trace codec error: {msg}"),
            Error::Infeasible(msg) => write!(f, "no feasible timer configuration: {msg}"),
            Error::JobPanicked(msg) => write!(f, "job panicked: {msg}"),
            Error::Deadlock { cycle } => {
                write!(f, "simulator made no observable progress (deadlock at cycle {cycle})")
            }
            Error::LeaseExpired { held, current } => {
                write!(
                    f,
                    "stale completion at epoch {held}: the job's lease expired and it was \
                     re-claimed at epoch {current}"
                )
            }
            Error::StoreCorrupt { key, detail } => {
                write!(f, "store entry {key} is corrupt: {detail}")
            }
            Error::JobQuarantined { key, attempts, worker, epoch, deadline_ns } => {
                write!(
                    f,
                    "job {key} quarantined after {attempts} expired leases (last claim: worker \
                     {worker}, epoch {epoch}, deadline {deadline_ns} ns)"
                )
            }
            Error::WaitTimedOut { key, waited_ms } => {
                write!(f, "wait for job {key} timed out after {waited_ms} ms")
            }
            Error::StoreUnavailable { path, attempts, detail } => {
                write!(f, "store mirror at {path} unavailable after {attempts} attempts: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_unpunctuated() {
        let cases = [
            Error::TimerOutOfRange { value: 70000, max: 65535 },
            Error::LevelOutOfRange { value: 9, max: 5 },
            Error::UnknownCore { index: 7, cores: 4 },
            Error::InvalidConfig("zero cores".into()),
            Error::Codec("truncated input".into()),
            Error::Infeasible("core 0 requirement too tight".into()),
            Error::JobPanicked("index out of bounds".into()),
            Error::Deadlock { cycle: 2_000_001 },
            Error::LeaseExpired { held: 1, current: 2 },
            Error::StoreCorrupt {
                key: "00ab".into(),
                detail: "payload fingerprint mismatch".into(),
            },
            Error::JobQuarantined {
                key: "00ab".into(),
                attempts: 3,
                worker: 1,
                epoch: 3,
                deadline_ns: 90_000,
            },
            Error::WaitTimedOut { key: "00ab".into(), waited_ms: 250 },
            Error::StoreUnavailable {
                path: "/tmp/memo/00ab.json".into(),
                attempts: 4,
                detail: "injected transient failure".into(),
            },
        ];
        for err in cases {
            let s = err.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'), "no trailing punctuation: {s}");
            assert!(s.chars().next().unwrap().is_lowercase(), "lowercase start: {s}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Error>();
    }
}
