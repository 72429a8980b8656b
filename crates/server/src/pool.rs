//! Fixed-size worker pool over a bounded `std::sync::mpsc` channel.
//!
//! The pool is generic over the work item (the server feeds it accepted
//! `TcpStream`s) with one shared handler fixed at construction. The
//! queue is bounded: when it is full, [`WorkerPool::try_execute`] fails
//! fast and *returns the item*, so the accept loop can answer 503
//! instead of queueing unboundedly or silently dropping the connection.
//! Workers share the one receiver behind a mutex, held only to take an
//! item. A handler that panics loses its item, not its worker. Dropping
//! the pool closes the channel; workers drain what is queued and exit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A fixed pool of worker threads consuming items from a bounded queue.
pub struct WorkerPool<T> {
    // `None` only while dropping: taking it closes the channel.
    sender: Option<SyncSender<T>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawn `workers` threads sharing a queue of at most `queue_cap`
    /// pending items, each running `handler` on the items it receives.
    /// Both counts are clamped to at least 1.
    pub fn new<F>(workers: usize, queue_cap: usize, handler: F) -> Self
    where
        F: Fn(T) + Send + Sync + 'static,
    {
        let (sender, receiver) = mpsc::sync_channel::<T>(queue_cap.max(1));
        let receiver = Arc::new(Mutex::new(receiver));
        let handler = Arc::new(handler);
        let workers = (0..workers.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("atlas-worker-{i}"))
                    .spawn(move || loop {
                        // recv() errors once the sender is gone and the
                        // queue is drained — that is the shutdown signal.
                        let Ok(item) = receiver.lock().unwrap().recv() else {
                            break;
                        };
                        // The panic hook has already printed the payload.
                        let _ = catch_unwind(AssertUnwindSafe(|| handler(item)));
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Submit an item, failing fast when the queue is full. The item
    /// comes back in the error so the caller can reject it gracefully.
    pub fn try_execute(&self, item: T) -> Result<(), Rejected<T>> {
        let sender = self.sender.as_ref().expect("sender lives until drop");
        sender.try_send(item).map_err(|e| match e {
            TrySendError::Full(item) | TrySendError::Disconnected(item) => Rejected(item),
        })
    }
}

impl<T> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        drop(self.sender.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The pool queue was full; the item is handed back.
#[derive(Debug, PartialEq, Eq)]
pub struct Rejected<T>(pub T);

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn runs_all_items_across_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let pool = WorkerPool::new(4, 64, move |n: usize| {
            c.fetch_add(n, Ordering::SeqCst);
        });
        for _ in 0..32 {
            while pool.try_execute(1).is_err() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        drop(pool); // joins workers, draining the queue
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn saturated_queue_returns_the_item() {
        let gate = Arc::new(Barrier::new(2));
        let g = Arc::clone(&gate);
        let pool = WorkerPool::new(1, 1, move |block: bool| {
            if block {
                g.wait();
            }
        });
        pool.try_execute(true).unwrap();
        // With the single worker blocked on the barrier, the queue (cap 1)
        // eventually fills and further submissions must bounce.
        let mut bounced = None;
        let mut accepted = 0;
        for _ in 0..64 {
            match pool.try_execute(false) {
                Err(Rejected(item)) => {
                    bounced = Some(item);
                    break;
                }
                Ok(()) => {
                    accepted += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        assert_eq!(bounced, Some(false));
        assert!(
            accepted <= 1,
            "the bounce means the queue is at capacity, not past it"
        );
        gate.wait();
    }

    #[test]
    fn a_panicking_handler_keeps_its_worker() {
        let (done, handled) = mpsc::channel();
        let pool = WorkerPool::new(1, 4, move |item: u32| {
            if item == 0 {
                panic!("handler failed on item 0");
            }
            done.send(item).unwrap();
        });
        pool.try_execute(0).unwrap();
        pool.try_execute(1).unwrap();
        assert_eq!(handled.recv_timeout(Duration::from_secs(5)), Ok(1));
    }
}
