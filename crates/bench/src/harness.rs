//! A minimal wall-clock benchmarking harness.
//!
//! Replaces the external benchmarking dependency so `cargo bench` works
//! with no registry access. The protocol is deliberately simple: warm up,
//! size the batch so one measurement takes a few milliseconds, take
//! several batches, and report the best (least-noise) per-iteration time.
//! Results print as `group/name  time/iter  iters` lines.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target duration of one measured batch.
const BATCH_TARGET: Duration = Duration::from_millis(20);
/// Number of measured batches; the fastest is reported.
const BATCHES: usize = 7;

/// Runs `f` repeatedly and prints the best per-iteration wall time.
///
/// The closure's return value is passed through [`black_box`] so the
/// optimizer cannot delete the measured work.
pub fn bench<R>(group: &str, name: &str, f: impl FnMut() -> R) {
    let (best, total_iters) = measure(f);
    println!(
        "{group}/{name:<24} {:>12}  ({total_iters} iters)",
        format_ns(best)
    );
}

/// As [`bench`], for work over `bytes` bytes per iteration: also prints
/// the throughput of the best iteration in MB/s (10^6 bytes per second).
pub fn bench_bytes<R>(group: &str, name: &str, bytes: usize, f: impl FnMut() -> R) {
    let (best, total_iters) = measure(f);
    let mb_per_s = bytes as f64 / best.as_secs_f64().max(1e-12) / 1e6;
    println!(
        "{group}/{name:<24} {:>12}  {mb_per_s:>9.1} MB/s  ({total_iters} iters)",
        format_ns(best)
    );
}

/// The best per-iteration time of `f` over [`BATCHES`] batches, and the
/// iterations run.
fn measure<R>(mut f: impl FnMut() -> R) -> (Duration, usize) {
    // Warm-up + calibration: time single iterations until we know how
    // many fit in one batch.
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(20));
    let per_batch = (BATCH_TARGET.as_nanos() / once.as_nanos()).clamp(1, 100_000) as usize;

    let mut best = Duration::MAX;
    let mut total_iters = 0usize;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..per_batch {
            black_box(f());
        }
        let elapsed = start.elapsed() / per_batch as u32;
        best = best.min(elapsed);
        total_iters += per_batch;
    }
    (best, total_iters)
}

/// Runs `f` once and prints the elapsed time (for heavyweight setups
/// where repeated measurement would take too long).
pub fn bench_once<R>(group: &str, name: &str, f: impl FnOnce() -> R) {
    let start = Instant::now();
    black_box(f());
    println!(
        "{group}/{name:<24} {:>12}  (1 iter)",
        format_ns(start.elapsed())
    );
}

fn format_ns(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_the_closure() {
        let mut n = 0u64;
        bench("test", "counter", || {
            n += 1;
            n
        });
        assert!(n > 0);
    }

    #[test]
    fn formats_cover_magnitudes() {
        assert!(format_ns(Duration::from_nanos(5)).ends_with("ns"));
        assert!(format_ns(Duration::from_micros(50)).ends_with("µs"));
        assert!(format_ns(Duration::from_millis(50)).ends_with("ms"));
        assert!(format_ns(Duration::from_secs(50)).ends_with('s'));
    }
}
