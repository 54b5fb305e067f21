//! Contention-free job dispatch for [`crate::PathService`] (DESIGN.md §13).
//!
//! The first service revision funneled every job through one
//! `Arc<Mutex<Receiver>>`: each dequeue bounced the same lock (and the
//! same cache line) across every worker, so adding workers added queueing
//! instead of throughput. This module replaces it with **per-worker
//! queues plus work-stealing**, the shape crossbeam's deque gives a
//! thread pool, implemented locally (no crates.io):
//!
//! * every worker owns a private FIFO ([`VecDeque`] behind its own
//!   mutex). Producers round-robin jobs across the queues, so in steady
//!   state each queue is touched by one producer and one consumer and
//!   the per-queue locks are essentially uncontended — dispatch cost no
//!   longer grows with the worker count;
//! * a worker whose own queue is empty **steals** the oldest job from a
//!   sibling (FIFO order keeps tail latency honest), so an uneven
//!   workload still keeps every core busy;
//! * idle workers park on one condvar and are woken per-push; a bounded
//!   `wait_timeout` is kept purely as a liveness backstop.
//!
//! Every queue keeps lightweight counters — jobs executed, jobs stolen,
//! queue-depth high-water mark, and a log₂-bucketed histogram of how
//! long jobs sat queued before a worker picked them up. The
//! `service-throughput` experiment surfaces them so a scaling regression
//! shows up as numbers, not vibes.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Number of log₂ microsecond buckets in a [`WaitHistogram`]: bucket `i`
/// counts waits in `[2^i, 2^(i+1))` µs, the last bucket is open-ended
/// (≥ ~32 ms — exactly the pathology the old single-queue service showed).
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

    /// Total recorded waits.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Adds another histogram into this one.
    pub fn merge(&mut self, other: &WaitHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
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

/// Counter snapshot for one worker queue (all monotonic except `depth`).
#[derive(Debug, Clone, Default)]
pub struct WorkerQueueStats {
    /// Jobs this worker executed (own queue + stolen).
    pub executed: u64,
    /// Jobs this worker took from a sibling's queue.
    pub stolen: u64,
    /// Jobs currently sitting in this worker's queue.
    pub depth: usize,
    /// High-water mark of this worker's queue depth.
    pub depth_hwm: u64,
    /// Queue-wait of jobs that sat in **this** worker's queue (whoever
    /// ended up executing them).
    pub wait: WaitHistogram,
}

struct Slot<T> {
    /// The jobs, each stamped with its enqueue time.
    queue: Mutex<VecDeque<(T, Instant)>>,
    executed: AtomicU64,
    stolen: AtomicU64,
    depth_hwm: AtomicU64,
    wait: [AtomicU64; WAIT_BUCKETS],
}

impl<T> Slot<T> {
    fn new() -> Slot<T> {
        Slot {
            queue: Mutex::new(VecDeque::new()),
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            depth_hwm: AtomicU64::new(0),
            wait: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record_wait(&self, queued_at: Instant) {
        let us = queued_at.elapsed().as_micros() as u64;
        // ORDERING: Relaxed — monotonic histogram counter, read racily
        // for reporting; nothing is ordered against it.
        self.wait[WaitHistogram::bucket(us)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Locks a mutex, surviving poisoning: dispatch state is only plain
/// queue data, and no user code ever runs under these locks, so a
/// poisoned lock can only mean a sibling worker panicked *elsewhere* —
/// the queue contents are still coherent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-worker job queues with work-stealing — the dispatch fabric under
/// [`crate::PathService`].
pub struct StealQueues<T> {
    slots: Vec<Slot<T>>,
    /// Jobs pushed but not yet taken, across all queues. Incremented
    /// *before* the queue push so a worker that observes `pending > 0`
    /// and finds every queue empty knows a push is mid-flight and must
    /// re-scan instead of parking through it.
    pending: AtomicUsize,
    /// Cleared by [`StealQueues::close`]; pushes are refused after.
    open: AtomicBool,
    /// Workers currently parked on `wake` — lets the push path skip the
    /// sleep lock entirely while every worker is busy.
    idle: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
    /// Round-robin cursor for target selection.
    rr: AtomicUsize,
}

impl<T> StealQueues<T> {
    /// `workers` queues (min 1).
    pub fn new(workers: usize) -> StealQueues<T> {
        StealQueues {
            slots: (0..workers.max(1)).map(|_| Slot::new()).collect(),
            pending: AtomicUsize::new(0),
            open: AtomicBool::new(true),
            idle: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            rr: AtomicUsize::new(0),
        }
    }

    /// Number of worker queues.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Enqueues `job` on the next round-robin queue. Returns the job
    /// back when the pool is closed.
    pub fn push(&self, job: T) -> Result<(), T> {
        // ORDERING: Relaxed — the cursor only spreads load; any
        // interleaving of the RMWs yields distinct, valid targets.
        let target = self.rr.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        self.push_to(target, job)
    }

    /// Enqueues `job` on `worker`'s queue (stealable by every sibling).
    pub fn push_to(&self, worker: usize, job: T) -> Result<(), T> {
        if !self.open.load(Ordering::SeqCst) {
            return Err(job);
        }
        let slot = &self.slots[worker % self.slots.len()];
        self.pending.fetch_add(1, Ordering::SeqCst);
        {
            let mut q = lock(&slot.queue);
            q.push_back((job, Instant::now()));
            // ORDERING: Relaxed — diagnostic high-water mark; the queue
            // mutex already orders the len() read it records.
            slot.depth_hwm.fetch_max(q.len() as u64, Ordering::Relaxed);
        }
        if self.idle.load(Ordering::SeqCst) > 0 {
            // Taking (and dropping) the sleep lock orders this wakeup
            // against a worker that is between its last queue scan and
            // its `wait` — without it the notify could land in that
            // window and be lost.
            drop(lock(&self.sleep));
            self.wake.notify_one();
        }
        Ok(())
    }

    /// Blocks until a job is available for worker `me` (own queue first,
    /// then stealing, oldest job first) or the pool is closed *and*
    /// drained; `None` means "no more jobs, ever".
    pub fn pop(&self, me: usize) -> Option<T> {
        loop {
            if let Some(job) = self.try_take(me) {
                return Some(job);
            }
            if self.pending.load(Ordering::SeqCst) > 0 {
                // A push is mid-flight (pending is incremented before the
                // queue insert) — re-scan rather than park through it.
                std::hint::spin_loop();
                continue;
            }
            if !self.open.load(Ordering::SeqCst) {
                return None;
            }
            let guard = lock(&self.sleep);
            if self.pending.load(Ordering::SeqCst) > 0 || !self.open.load(Ordering::SeqCst) {
                continue;
            }
            self.idle.fetch_add(1, Ordering::SeqCst);
            // The timeout is a liveness backstop only; every push that
            // sees an idle worker notifies explicitly.
            let _ = self.wake.wait_timeout(guard, Duration::from_millis(20));
            self.idle.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn try_take(&self, me: usize) -> Option<T> {
        let n = self.slots.len();
        for k in 0..n {
            let victim = (me + k) % n;
            let taken = lock(&self.slots[victim].queue).pop_front();
            if let Some((job, queued_at)) = taken {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                self.slots[victim].record_wait(queued_at);
                // ORDERING: Relaxed — monotonic diagnostic counters read
                // racily by `queue_stats`; nothing is ordered against them.
                self.slots[me].executed.fetch_add(1, Ordering::Relaxed);
                if victim != me {
                    self.slots[me].stolen.fetch_add(1, Ordering::Relaxed);
                }
                return Some(job);
            }
        }
        None
    }

    /// Refuses further pushes and wakes every parked worker. Jobs already
    /// queued are still handed out, so workers drain before exiting.
    pub fn close(&self) {
        self.open.store(false, Ordering::SeqCst);
        drop(lock(&self.sleep));
        self.wake.notify_all();
    }

    /// Counter snapshot for worker `i`'s queue.
    pub fn queue_stats(&self, i: usize) -> WorkerQueueStats {
        let slot = &self.slots[i];
        // ORDERING: Relaxed — racy snapshot of diagnostic counters; a
        // torn view across counters is acceptable for reporting.
        WorkerQueueStats {
            executed: slot.executed.load(Ordering::Relaxed),
            stolen: slot.stolen.load(Ordering::Relaxed),
            depth: lock(&slot.queue).len(),
            depth_hwm: slot.depth_hwm.load(Ordering::Relaxed),
            wait: WaitHistogram {
                buckets: std::array::from_fn(|b| slot.wait[b].load(Ordering::Relaxed)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut m = WaitHistogram::default();
        m.merge(&h);
        m.merge(&h);
        assert_eq!(m.count(), 200);
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
    fn stealing_drains_sibling_queues() {
        let q: StealQueues<u32> = StealQueues::new(4);
        for v in 0..8 {
            q.push_to(0, v).unwrap(); // all jobs on worker 0's queue
        }
        // Worker 3 can drain them all by stealing.
        for v in 0..8 {
            assert_eq!(q.pop(3), Some(v), "steals oldest first");
        }
        let s = q.queue_stats(3);
        assert_eq!(s.executed, 8);
        assert_eq!(s.stolen, 8);
        assert_eq!(q.queue_stats(0).depth, 0);
        assert_eq!(q.queue_stats(0).depth_hwm, 8);
        assert_eq!(
            q.queue_stats(0).wait.count(),
            8,
            "waits land on the home queue"
        );
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
    fn concurrent_producers_and_stealing_workers() {
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
        let executed: u64 = (0..3).map(|i| q.queue_stats(i).executed).sum();
        assert_eq!(executed as usize, total);
        let waits: u64 = (0..3).map(|i| q.queue_stats(i).wait.count()).sum();
        assert_eq!(waits as usize, total, "every job's queue wait is recorded");
    }
}
