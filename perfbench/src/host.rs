//! The host this benchmark runs on: its current speed and the process's
//! peak memory.
//!
//! On a shared 2-core host the same request can take 80 ms in one minute
//! and 130 ms in the next, with no steal time reported. The slowdown hits
//! branchy, cache-resident code, which is the simulator's kind of code. A
//! DRAM-latency probe barely moves. So the benchmark measures host speed
//! with a fixed, benchmark-owned event loop of that same kind, on as many
//! threads as the workload keeps busy, and scales every reported time to a
//! host on which the probe takes [`NOMINAL_PROBE_MS`]. The probe runs
//! between requests in a short-lived child process: this executable
//! started with [`PROBE_FLAG`]. No program code runs in it, and the heap
//! and threads the program leaves in the measuring process cannot slow it
//! down, so scaling cannot cancel such a slowdown.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Probe time on the nominal host. Reported times are scaled to it, so on a
/// host whose probe takes this long they equal wall-clock time.
pub const NOMINAL_PROBE_MS: f64 = 4.0;

/// The argument that makes the benchmark executable print one probe time
/// ([`probe_here_ms`]) on the thread count that follows it, and exit.
pub const PROBE_FLAG: &str = "--host-probe";

/// One event loop: a discrete-event loop over 64 "cores" that pops the
/// next wake from a heap, updates a line's state in a hash map and
/// schedules the next wake. Returns its duration in milliseconds.
fn event_loop_ms(seed: u64) -> f64 {
    let start = Instant::now();
    let mut heap = BinaryHeap::new();
    let mut lines: HashMap<u64, (u8, u64)> = HashMap::new();
    let mut x = seed | 1;
    for core in 0..64u64 {
        heap.push(Reverse((core * 7, core)));
    }
    let mut acc = 0u64;
    for _ in 0..60_000 {
        let Some(Reverse((t, core))) = heap.pop() else { break };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let line = if x.is_multiple_of(16) { 1_000_000 + x % 4096 } else { core * 64 + x % 8 };
        let state = lines.entry(line).or_insert((0, 0));
        let delay = match state.0 {
            0 => {
                state.0 = 1;
                100
            }
            1 if x.is_multiple_of(4) => {
                *state = (2, t);
                30
            }
            2 if state.1 + 500 < t => {
                state.0 = 1;
                10
            }
            _ => 1,
        };
        acc = acc.wrapping_add(delay);
        heap.push(Reverse((t + delay + core % 5, core)));
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// One thread's probe: an event loop that faults in the heap, then the
/// median of three more, in milliseconds.
fn thread_probe_ms() -> f64 {
    event_loop_ms(0);
    let mut runs = [event_loop_ms(1), event_loop_ms(2), event_loop_ms(3)];
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// One probe in this process on `threads` threads at once, in
/// milliseconds: `threads / Σ 1/tᵢ` over the threads' times `tᵢ`, the
/// time in which the threads together do one probe's work per thread.
#[must_use]
pub fn probe_here_ms(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(thread_probe_ms)).collect();
        handles.into_iter().map(|h| h.join().expect("a probe thread does not panic")).collect()
    });
    times.len() as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
}

/// The host's current speed on `threads` threads: [`probe_here_ms`] run in
/// a child process.
///
/// # Errors
///
/// When the child cannot be started or prints no probe time.
#[cfg(not(test))]
pub fn probe_ms(threads: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("host probe: no executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([PROBE_FLAG, &threads.to_string()])
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("host probe: cannot start: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(ms) if out.status.success() && ms > 0.0 => Ok(ms),
        _ => Err(format!("host probe: {} printed `{}`", out.status, text.trim())),
    }
}

/// Unit tests run inside the test harness, which has no [`PROBE_FLAG`], so
/// they probe in process.
///
/// # Errors
///
/// Never.
#[cfg(test)]
pub fn probe_ms(threads: usize) -> Result<f64, String> {
    Ok(probe_here_ms(threads))
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
