//! A bounded worker pool over `std::thread::scope`: the one pool behind
//! the experiment sweeps and the GA's fitness evaluation.
//!
//! The pool runs on at most `workers` threads, the calling thread
//! included (never one per job, which oversubscribes the machine once a
//! sweep grows past the core count); the threads claim job indices from a
//! shared atomic counter, so finished workers immediately pull the next
//! job (no static partitioning) and results come back in **input order**
//! regardless of which worker ran what.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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

/// The message of a caught panic payload (`panic!` with a literal or a
/// formatted string), for pools that turn a panicking job into an error.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
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
}
