//! A scoped worker pool over `std::thread` and mpsc channels.
//!
//! The pool self-schedules: workers pull job indices from a shared atomic
//! counter (so a slow synthesis does not stall a whole stripe) and send
//! `(index, result)` pairs back over a channel; the caller reassembles
//! results **in job order**, which is what makes parallel compilation
//! deterministic — downstream code never observes completion order.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// One worker's share of a pool run (or, accumulated, of an engine's
/// lifetime): how long it spent inside job closures and how many jobs it
/// completed. Busy time excludes scheduling (the atomic fetch) and idle
/// tail time waiting for slower peers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerTotals {
    /// Milliseconds spent executing jobs.
    pub busy_ms: f64,
    /// Jobs completed.
    pub jobs: u64,
}

/// Utilization telemetry for one [`WorkerPool::run_profiled`] call.
///
/// The invariant tests lean on: each worker's `busy_ms` ≤ `wall_ms` (a
/// worker cannot be busy longer than the run existed), so
/// `Σ busy_ms ≤ wall_ms × workers.len()` — the gap is idle time (queue
/// exhaustion near the tail, scheduling overhead).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolRunStats {
    /// Wall-clock duration of the whole run.
    pub wall_ms: f64,
    /// Per-worker busy time and job counts, indexed by worker id (the
    /// `synth-N` thread name). Sequential runs report one entry.
    pub workers: Vec<WorkerTotals>,
}

impl PoolRunStats {
    /// Total busy milliseconds across workers.
    pub fn busy_ms(&self) -> f64 {
        self.workers.iter().map(|w| w.busy_ms).sum()
    }

    /// Fraction of the run's worker-seconds spent in job closures, in
    /// `[0, 1]` modulo clock noise; `0.0` for an empty run.
    pub fn utilization(&self) -> f64 {
        let denom = self.wall_ms * self.workers.len() as f64;
        if denom <= 0.0 {
            0.0
        } else {
            self.busy_ms() / denom
        }
    }
}

/// A fixed-width pool of synthesis workers.
///
/// The pool itself is trivially cheap (it holds only the width); threads
/// are spawned scoped per [`WorkerPool::run_profiled`] call so jobs and
/// the worker closure can borrow from the caller (e.g. the engine's
/// backends).
#[derive(Clone, Copy, Debug)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool of `threads` workers; `0` means one worker per available
    /// core.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
        } else {
            threads
        };
        WorkerPool { threads }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `worker` over every job, returning results in job order
    /// regardless of which worker finished which job when, plus
    /// per-worker utilization telemetry.
    ///
    /// With one worker (or ≤ 1 job) this degenerates to a sequential map
    /// on the calling thread — same results, no spawn overhead. The
    /// telemetry costs two `Instant` reads around each job closure, which
    /// is noise next to a synthesis. The stats are indexed by worker id,
    /// so they too are independent of completion order (though the
    /// *values* are wall-clock and thus not reproducible — they feed
    /// telemetry, never reports that promise determinism).
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker thread.
    pub fn run_profiled<J, R, F>(&self, jobs: &[J], worker: F) -> (Vec<R>, PoolRunStats)
    where
        J: Sync,
        R: Send,
        F: Fn(&J) -> R + Sync,
    {
        let t0 = Instant::now();
        let n = jobs.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            let mut busy_us = 0u64;
            let out: Vec<R> = jobs
                .iter()
                .map(|j| {
                    let t = Instant::now();
                    let r = worker(j);
                    busy_us += t.elapsed().as_micros() as u64;
                    r
                })
                .collect();
            let stats = PoolRunStats {
                wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                workers: if n == 0 {
                    Vec::new()
                } else {
                    vec![WorkerTotals {
                        busy_ms: busy_us as f64 / 1e3,
                        jobs: n as u64,
                    }]
                },
            };
            return (out, stats);
        }
        let next = AtomicUsize::new(0);
        // Per-worker accumulators, indexed by worker id. Atomics only so
        // the scoped borrow is shared; each slot is written by exactly
        // one worker.
        let busy_us: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let done: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        std::thread::scope(|s| {
            for w in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let worker = &worker;
                let busy_us = &busy_us;
                let done = &done;
                // Named threads so trace records (and debuggers) show
                // `synth-N` instead of an anonymous ThreadId.
                std::thread::Builder::new()
                    .name(format!("synth-{w}"))
                    .spawn_scoped(s, move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let t = Instant::now();
                        let r = worker(&jobs[i]);
                        busy_us[w].fetch_add(t.elapsed().as_micros() as u64, Ordering::Relaxed);
                        done[w].fetch_add(1, Ordering::Relaxed);
                        // A send error means the receiver is gone, which
                        // only happens if the collector below panicked;
                        // stop early.
                        if tx.send((i, r)).is_err() {
                            break;
                        }
                    })
                    .expect("spawn synthesis worker");
            }
            drop(tx);
            for (i, r) in rx {
                slots[i] = Some(r);
            }
        });
        let out: Vec<R> = slots
            .into_iter()
            .map(|s| s.expect("every job index was scheduled exactly once"))
            .collect();
        let stats = PoolRunStats {
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            workers: busy_us
                .iter()
                .zip(&done)
                .map(|(b, d)| WorkerTotals {
                    busy_ms: b.load(Ordering::Relaxed) as f64 / 1e3,
                    jobs: d.load(Ordering::Relaxed),
                })
                .collect(),
        };
        (out, stats)
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_job_order() {
        let jobs: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 8] {
            let pool = WorkerPool::new(threads);
            let (out, stats) = pool.run_profiled(&jobs, |j| j * j);
            assert_eq!(out, jobs.iter().map(|j| j * j).collect::<Vec<_>>());
            assert_eq!(stats.workers.len(), threads);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let jobs: Vec<usize> = (0..57).collect();
        let pool = WorkerPool::new(4);
        let (out, stats) = pool.run_profiled(&jobs, |j| {
            calls.fetch_add(1, Ordering::Relaxed);
            *j
        });
        assert_eq!(out.len(), 57);
        assert_eq!(calls.load(Ordering::Relaxed), 57);
        assert_eq!(stats.workers.len(), 4);
        let attributed: u64 = stats.workers.iter().map(|w| w.jobs).sum();
        assert_eq!(attributed, 57, "every job attributed to exactly one worker");
    }

    #[test]
    fn empty_and_single_job() {
        let pool = WorkerPool::new(8);
        assert!(pool.run_profiled(&Vec::<u32>::new(), |j| *j).0.is_empty());
        assert_eq!(pool.run_profiled(&[7u32], |j| *j + 1).0, vec![8]);
    }

    #[test]
    fn zero_means_auto() {
        assert!(WorkerPool::new(0).threads() >= 1);
    }

    #[test]
    fn busy_time_is_bounded_by_wall_time() {
        // busy + idle ≈ wall: each worker's busy time can't exceed the
        // run's wall time, so the pool-wide busy sum is bounded by
        // wall × workers. Sleep jobs make busy time large enough to
        // measure; 2ms slack absorbs clock granularity.
        let jobs: Vec<u64> = (0..12).collect();
        let pool = WorkerPool::new(4);
        let (_, stats) = pool.run_profiled(&jobs, |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert_eq!(stats.workers.len(), 4);
        for w in &stats.workers {
            assert!(
                w.busy_ms <= stats.wall_ms + 2.0,
                "worker busy {} > wall {}",
                w.busy_ms,
                stats.wall_ms
            );
        }
        assert!(stats.busy_ms() <= stats.wall_ms * 4.0 + 8.0);
        // 12 × 2ms of sleep across 4 workers: the run is genuinely busy.
        assert!(stats.busy_ms() >= 12.0 * 2.0 * 0.5, "busy {}", stats.busy_ms());
        let u = stats.utilization();
        assert!(u > 0.0 && u <= 1.05, "utilization {u}");
    }

    #[test]
    fn empty_profiled_run_reports_no_workers() {
        let pool = WorkerPool::new(4);
        let (out, stats) = pool.run_profiled(&Vec::<u32>::new(), |j| *j);
        assert!(out.is_empty());
        assert!(stats.workers.is_empty());
        assert_eq!(stats.utilization(), 0.0);
    }
}
