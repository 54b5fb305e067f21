//! Job dispatch for [`crate::PathService`] (DESIGN.md §13): one FIFO
//! queue shared by every worker.
//!
//! The queue is a [`VecDeque`] behind one mutex, and idle workers park
//! on a condvar that shares that mutex, so a push can never slip
//! between a worker's empty check and its sleep. Every worker pops the
//! oldest job, so a worker busy on a slow job holds up nothing but that
//! job: the others keep draining the queue behind it. A queue operation
//! costs nanoseconds next to a millisecond-scale FEM search.
//!
//! The queue counts what an operator needs to tell dispatch from
//! saturation: jobs executed per worker, the queue depth and its
//! high-water mark, and a log₂-bucketed histogram of how long jobs sat
//! queued before a worker picked them up.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Number of log₂ microsecond buckets in a [`WaitHistogram`]: bucket `i`
/// counts waits in `[2^i, 2^(i+1))` µs, the last bucket is open-ended
/// (≥ ~32 ms).
pub const WAIT_BUCKETS: usize = 16;

/// A log₂-bucketed histogram of queue-wait times in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitHistogram {
    /// `buckets[i]` counts waits in `[2^i, 2^(i+1))` µs.
    pub buckets: [u64; WAIT_BUCKETS],
}

impl WaitHistogram {
    fn bucket(us: u64) -> usize {
        ((64 - us.max(1).leading_zeros() as usize) - 1).min(WAIT_BUCKETS - 1)
    }

    fn record(&mut self, us: u64) {
        self.buckets[Self::bucket(us)] += 1;
    }

    /// Total recorded waits.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper edge (µs) of the bucket holding quantile `q` (0.0–1.0) —
    /// a conservative bound on the quantile, not an interpolation.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << WAIT_BUCKETS
    }
}

/// Counter snapshot of a [`StealQueues`] (all monotonic except `depth`).
#[derive(Debug, Clone, Default)]
pub struct QueueStats {
    /// Jobs each worker executed, in worker order.
    pub executed: Vec<u64>,
    /// Jobs queued right now.
    pub depth: usize,
    /// High-water mark of the queue depth.
    pub depth_hwm: u64,
    /// How long every popped job sat queued.
    pub wait: WaitHistogram,
}

struct Queue<T> {
    /// The jobs, each stamped with its enqueue time.
    jobs: VecDeque<(T, Instant)>,
    /// Cleared by [`StealQueues::close`]; pushes are refused after.
    open: bool,
    /// Workers parked on the condvar, so a push skips the wakeup call
    /// while every worker is busy.
    parked: usize,
    stats: QueueStats,
}

/// Locks the queue, surviving poisoning: it holds only plain queue data
/// and no job runs under the lock, so the contents stay coherent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The job queue under [`crate::PathService`]: one FIFO for the whole
/// pool. (The name dates from per-worker queues with stealing; the
/// benchmark harness compiles against it.)
pub struct StealQueues<T> {
    queue: Mutex<Queue<T>>,
    ready: Condvar,
}

impl<T> StealQueues<T> {
    /// A queue for `workers` workers (min 1).
    pub fn new(workers: usize) -> StealQueues<T> {
        StealQueues {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                open: true,
                parked: 0,
                stats: QueueStats {
                    executed: vec![0; workers.max(1)],
                    ..QueueStats::default()
                },
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues `job` at the back. Returns the job back when the pool is
    /// closed.
    pub fn push(&self, job: T) -> Result<(), T> {
        let mut q = lock(&self.queue);
        if !q.open {
            return Err(job);
        }
        q.jobs.push_back((job, Instant::now()));
        q.stats.depth_hwm = q.stats.depth_hwm.max(q.jobs.len() as u64);
        let wake = q.parked > 0;
        drop(q);
        if wake {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Blocks until a job is queued and returns the oldest, charged to
    /// `worker`'s `executed` count; `None` once the pool is closed *and*
    /// drained — "no more jobs, ever".
    pub fn pop(&self, worker: usize) -> Option<T> {
        let mut q = lock(&self.queue);
        loop {
            if let Some((job, queued_at)) = q.jobs.pop_front() {
                q.stats.wait.record(queued_at.elapsed().as_micros() as u64);
                q.stats.executed[worker] += 1;
                return Some(job);
            }
            if !q.open {
                return None;
            }
            q.parked += 1;
            q = self.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            q.parked -= 1;
        }
    }

    /// Refuses further pushes and wakes every parked worker. Jobs already
    /// queued are still handed out, so workers drain before exiting.
    pub fn close(&self) {
        lock(&self.queue).open = false;
        self.ready.notify_all();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> QueueStats {
        let q = lock(&self.queue);
        QueueStats {
            depth: q.jobs.len(),
            ..q.stats.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    #[test]
    fn wait_histogram_buckets_and_quantiles() {
        assert_eq!(WaitHistogram::bucket(0), 0);
        assert_eq!(WaitHistogram::bucket(1), 0);
        assert_eq!(WaitHistogram::bucket(2), 1);
        assert_eq!(WaitHistogram::bucket(3), 1);
        assert_eq!(WaitHistogram::bucket(4), 2);
        assert_eq!(WaitHistogram::bucket(u64::MAX), WAIT_BUCKETS - 1);
        let mut h = WaitHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        h.buckets[0] = 90; // < 2 µs
        h.buckets[5] = 10; // 32–64 µs
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.5), 2);
        assert_eq!(h.quantile_us(0.99), 64);
        h.record(40);
        assert_eq!(h.buckets[5], 11);
    }

    #[test]
    fn push_pop_single_worker() {
        let q: StealQueues<u32> = StealQueues::new(1);
        q.push(7).unwrap();
        q.push(8).unwrap();
        assert_eq!(q.pop(0), Some(7), "FIFO order");
        assert_eq!(q.pop(0), Some(8));
        q.close();
        assert_eq!(q.pop(0), None);
        assert!(q.push(9).is_err(), "closed pool refuses jobs");
    }

    #[test]
    fn a_held_job_holds_up_nothing_but_itself() {
        let q: Arc<StealQueues<u32>> = Arc::new(StealQueues::new(2));
        for v in 0..8 {
            q.push(v).unwrap();
        }
        // Worker 0 takes the oldest job and blocks inside it.
        let (took, took_rx) = channel();
        let (release, release_rx) = channel::<()>();
        let holder = {
            let q = q.clone();
            std::thread::spawn(move || {
                let job = q.pop(0);
                took.send(job).unwrap();
                release_rx.recv().unwrap();
            })
        };
        assert_eq!(took_rx.recv().unwrap(), Some(0));
        // Worker 1 drains every later job, oldest first, while worker 0
        // is still held.
        for v in 1..8 {
            assert_eq!(q.pop(1), Some(v), "FIFO behind the held job");
        }
        release.send(()).unwrap();
        holder.join().unwrap();
        let s = q.stats();
        assert_eq!(s.executed, vec![1, 7]);
        assert_eq!(s.depth, 0);
        assert_eq!(s.depth_hwm, 8);
        assert_eq!(s.wait.count(), 8, "every job's wait is recorded");
    }

    #[test]
    fn close_drains_queued_jobs_before_ending() {
        let q: StealQueues<u32> = StealQueues::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        let mut got = vec![q.pop(0), q.pop(1), q.pop(0)];
        got.sort();
        assert_eq!(got, vec![None, Some(1), Some(2)]);
    }

    #[test]
    fn concurrent_producers_and_workers() {
        let q: Arc<StealQueues<usize>> = Arc::new(StealQueues::new(3));
        let total = 3000usize;
        let sum = Arc::new(AtomicUsize::new(0));
        let taken = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for w in 0..3 {
            let q = q.clone();
            let sum = sum.clone();
            let taken = taken.clone();
            handles.push(std::thread::spawn(move || {
                while let Some(v) = q.pop(w) {
                    sum.fetch_add(v, Ordering::Relaxed);
                    taken.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for v in 0..total / 2 {
                        q.push(2 * v + p).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        // Spin until the workers drained everything, then close.
        while taken.load(Ordering::Relaxed) < total {
            std::thread::yield_now();
        }
        q.close();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), total * (total - 1) / 2);
        let s = q.stats();
        assert_eq!(s.executed.iter().sum::<u64>() as usize, total);
        assert_eq!(
            s.wait.count() as usize,
            total,
            "every job's queue wait is recorded"
        );
    }
}
