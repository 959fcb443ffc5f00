//! A long-lived worker pool for batch execution.
//!
//! PR 3's engine spawned `workers` *scoped* threads per `run_batch` call;
//! on repeated small-batch traffic (the service shape) that per-batch spawn
//! cost dominates, which is exactly the flat 1→4 worker scaling the
//! `batch` bench-gate scenario recorded.  This pool spawns its threads **once** (on
//! the first parallel batch) and feeds them jobs over a channel: a batch
//! dispatch is then an enqueue plus a completion wait, with no thread
//! creation on the hot path.
//!
//! Workers share one `Mutex<Receiver>` — the lock is held only for the
//! dequeue itself, and jobs are coarse (one job per participating worker
//! per batch, each draining an atomic work queue), so contention is a few
//! lock acquisitions per batch, not per query.  Dropping the pool closes
//! the channel; workers observe the disconnect and exit, and `Drop` joins
//! them so no thread outlives the owning engine.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A unit of pool work: a boxed closure run to completion on one worker.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of long-lived worker threads.
#[derive(Debug)]
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Spawns `threads` workers (at least one).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..threads)
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                std::thread::spawn(move || worker_loop(&receiver))
            })
            .collect();
        WorkerPool { sender: Some(sender), handles, threads }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enqueues one job; some idle worker will pick it up.
    pub fn submit(&self, job: Job) {
        if let Some(sender) = &self.sender {
            // Send only fails if every worker has exited (after Drop), and
            // Drop takes the sender first — unreachable in practice.
            let _ = sender.send(job);
        }
    }
}

fn worker_loop(receiver: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the lock only for the dequeue, never while running the job.
        let job = match receiver.lock() {
            Ok(rx) => rx.recv(),
            Err(poisoned) => poisoned.into_inner().recv(),
        };
        match job {
            Ok(job) => {
                // A panicking job must not kill the worker: the pool is
                // long-lived, and a dead thread would silently shrink it
                // for the engine's whole lifetime.  The panic is still
                // observable by the batch dispatcher — the job's
                // completion signal is dropped unsent during unwinding.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            }
            Err(_) => break, // channel closed: the pool is shutting down
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel unblocks every worker's recv.
        drop(self.sender.take());
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_run_and_complete() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = channel::<()>();
        for _ in 0..32 {
            let counter = Arc::clone(&counter);
            let done = done_tx.clone();
            pool.submit(Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                let _ = done.send(());
            }));
        }
        for _ in 0..32 {
            done_rx.recv().expect("all jobs complete");
        }
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        let pool = WorkerPool::new(1);
        pool.submit(Box::new(|| panic!("job panic must stay inside the worker")));
        // The single worker must survive to run the next job.
        let (done_tx, done_rx) = channel::<()>();
        pool.submit(Box::new(move || {
            let _ = done_tx.send(());
        }));
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("worker survived the panicking job");
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(2);
        let (done_tx, done_rx) = channel::<()>();
        pool.submit(Box::new(move || {
            let _ = done_tx.send(());
        }));
        done_rx.recv().unwrap();
        drop(pool); // must not hang
    }
}
