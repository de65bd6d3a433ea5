//! A bounded worker pool over `std::thread::scope`: the one pool behind
//! the experiment runners and the GA's fitness evaluation.
//!
//! The pool runs on at most `workers` threads, the calling thread
//! included (never one per job, which oversubscribes the machine once a
//! sweep grows past the core count); the threads claim job indices from a
//! shared atomic counter, so finished workers immediately pull the next
//! job (no static partitioning) and results come back in **input order**
//! regardless of which worker ran what.
//!
//! [`run_indexed`] is the infallible core; [`run_jobs`] is the one
//! fallible runner built on it, for jobs that return [`Result`] and may
//! panic.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::{Error, Result};

/// The default worker count: the machine's available parallelism
/// (falling back to 1 when the OS cannot report it).
///
/// The value is read once per process and cached: on Linux each read
/// opens the cgroup quota files, and the GA asks once per generation. A
/// process whose CPU quota changes while it runs keeps the first value.
pub fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Runs `f(index, &items[index])` for every item on at most `workers`
/// threads and returns the results in input order. The calling thread is
/// one of them: the pool spawns `workers − 1` threads and runs the same
/// claim loop on the caller, so one worker is a plain loop with no spawn.
///
/// `f` is responsible for its own panic isolation: a panic that escapes it
/// takes the whole pool down (used deliberately by callers whose jobs must
/// not fail, e.g. mode configuration).
pub fn run_indexed<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.min(items.len());
    let next = AtomicUsize::new(0);
    let claim_loop = || {
        let mut local = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else { break };
            local.push((index, f(index, item)));
        }
        local
    };
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(claim_loop)).collect();
        let own = claim_loop();
        let spawned = handles.into_iter().flat_map(|h| h.join().expect("a pool job panicked"));
        for (index, result) in own.into_iter().chain(spawned) {
            slots[index] = Some(result);
        }
    });
    slots.into_iter().map(|slot| slot.expect("every index is claimed exactly once")).collect()
}

/// Runs the fallible `f(&items[index])` for every item on at most
/// `workers` threads (see [`run_indexed`]) and returns the results in
/// input order, or the first error in input order.
///
/// Every item runs, whatever its siblings return: a job that fails or
/// panics does not stop the others. A panic becomes
/// [`Error::JobPanicked`] carrying the panic message. The job borrows
/// only its item and `Sync` state, so nothing it half-mutated survives
/// the unwind.
///
/// # Errors
///
/// Returns the error of the first failed or panicked item in input
/// order, whichever thread ran it.
pub fn run_jobs<T, R, F>(items: &[T], workers: usize, f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R> + Sync,
{
    run_indexed(items, workers, |_, item| {
        catch_unwind(AssertUnwindSafe(|| f(item)))
            .unwrap_or_else(|payload| Err(Error::JobPanicked(panic_message(payload.as_ref()))))
    })
    .into_iter()
    .collect()
}

/// The message of a caught panic payload (`panic!` with a literal or a
/// formatted string).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn results_keep_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = run_indexed(&items, 4, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let out: Vec<u32> = run_indexed(&[] as &[u32], 8, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_is_bounded() {
        let items: Vec<u32> = (0..48).collect();
        let threads = Mutex::new(HashSet::new());
        run_indexed(&items, 3, |_, &x| {
            threads.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
            x
        });
        assert!(threads.lock().unwrap().len() <= 3);
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let items = [1u32, 2, 3];
        assert_eq!(run_indexed(&items, 0, |_, &x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn jobs_keep_input_order_and_the_first_error_wins() {
        let ok: Result<Vec<u32>> = run_jobs(&[1, 2, 3], 2, |&x| Ok(x * 10));
        assert_eq!(ok.unwrap(), [10, 20, 30]);

        let fail = |&x: &u32| match x {
            1 => Err(Error::InvalidConfig("bad job".into())),
            2 => panic!("job died"),
            _ => Ok(x),
        };
        assert_eq!(run_jobs(&[0, 2, 1], 2, fail), Err(Error::JobPanicked("job died".into())));
        // The first failure in input order wins, whichever thread ran it.
        assert_eq!(run_jobs(&[1, 2, 0], 2, fail), Err(Error::InvalidConfig("bad job".into())));
    }

    #[test]
    fn a_panicking_job_is_isolated_and_reported() {
        let formatted = |&x: &u32| -> Result<u32> { panic!("job {x} poisoned") };
        assert_eq!(run_jobs(&[7], 1, formatted), Err(Error::JobPanicked("job 7 poisoned".into())));
        let opaque = |_: &u32| -> Result<u32> { std::panic::panic_any(42u8) };
        assert_eq!(
            run_jobs(&[7], 1, opaque),
            Err(Error::JobPanicked("non-string panic payload".into()))
        );
    }

    #[test]
    fn every_sibling_of_a_failed_job_still_runs() {
        let items: Vec<u32> = (0..24).collect();
        for workers in [1, 3] {
            let ran = AtomicUsize::new(0);
            let result = run_jobs(&items, workers, |&x| {
                ran.fetch_add(1, Ordering::Relaxed);
                match x {
                    2 => Err(Error::InvalidConfig("bad job".into())),
                    5 => panic!("job died"),
                    _ => Ok(x),
                }
            });
            assert_eq!(result, Err(Error::InvalidConfig("bad job".into())));
            assert_eq!(ran.into_inner(), items.len(), "{workers} workers");
        }
    }
}
