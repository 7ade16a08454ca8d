//! Admission control and backpressure for the serve engine.
//!
//! The planner is a bounded priority queue between connection threads
//! (producers) and compile workers (consumers). Three properties matter:
//!
//! * **Bounded, with a typed rejection.** A full queue rejects a
//!   submission with [`Overloaded`] — the daemon never queues unbounded
//!   work, and a client sees an explicit retryable condition instead of a
//!   stalled connection. Every request is one item, a `suite` included.
//! * **Smallest first.** Items carry a numeric priority (the serve engine
//!   uses the instruction count: a region's, or a whole suite's); lower
//!   values are served first, so small regions jump the queue instead of
//!   convoying behind a large suite. Ties are FIFO via a monotone
//!   sequence number, which keeps service order deterministic.
//! * **Drainable.** [`Planner::drain`] stops admission and lets workers
//!   exit once the queue is empty; [`Planner::wait_idle`] additionally
//!   waits for in-flight items, which is what the daemon's graceful
//!   SIGTERM/EOF shutdown needs before persisting the cache.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex, PoisonError};

/// Typed admission-control rejection: the queue was full (or draining) and
/// the submitted item was **not** enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded {
    /// Items queued at rejection time.
    pub queued: usize,
    /// The queue's capacity.
    pub capacity: usize,
}

struct Item<T> {
    priority: u64,
    seq: u64,
    work: T,
}

// Order by (priority, seq) only; `work` does not participate.
impl<T> PartialEq for Item<T> {
    fn eq(&self, other: &Item<T>) -> bool {
        (self.priority, self.seq) == (other.priority, other.seq)
    }
}
impl<T> Eq for Item<T> {}
impl<T> PartialOrd for Item<T> {
    fn partial_cmp(&self, other: &Item<T>) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Item<T> {
    fn cmp(&self, other: &Item<T>) -> std::cmp::Ordering {
        (self.priority, self.seq).cmp(&(other.priority, other.seq))
    }
}

struct State<T> {
    queue: BinaryHeap<Reverse<Item<T>>>,
    seq: u64,
    in_flight: usize,
    draining: bool,
}

/// A bounded smallest-first work queue.
pub struct Planner<T> {
    state: Mutex<State<T>>,
    cond: Condvar,
    capacity: usize,
}

impl<T> Planner<T> {
    /// Creates a planner admitting at most `capacity` queued items
    /// (in-flight items do not count). Capacity 0 rejects everything —
    /// useful for exercising overload paths.
    pub fn new(capacity: usize) -> Planner<T> {
        Planner {
            state: Mutex::new(State {
                queue: BinaryHeap::new(),
                seq: 0,
                in_flight: 0,
                draining: false,
            }),
            cond: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Submits one item: queued when the queue has room, else
    /// [`Overloaded`] reports the observed occupancy. Lower priority values
    /// are served first; equal priorities are FIFO. A draining planner
    /// rejects everything as overloaded.
    pub fn submit(&self, priority: u64, work: T) -> Result<(), Overloaded> {
        let mut st = self.lock();
        if st.draining || st.queue.len() >= self.capacity {
            return Err(Overloaded {
                queued: st.queue.len(),
                capacity: self.capacity,
            });
        }
        let seq = st.seq;
        st.seq += 1;
        st.queue.push(Reverse(Item {
            priority,
            seq,
            work,
        }));
        drop(st);
        self.cond.notify_all();
        Ok(())
    }

    /// Blocks for the next item in (priority, seq) order, marking it
    /// in-flight; the worker must pair it with [`Planner::task_done`].
    /// Returns `None` once the planner is draining and empty — the
    /// worker-thread exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(Reverse(item)) = st.queue.pop() {
                st.in_flight += 1;
                return Some(item.work);
            }
            if st.draining {
                return None;
            }
            st = self.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks one popped item finished.
    pub fn task_done(&self) {
        let mut st = self.lock();
        st.in_flight = st.in_flight.saturating_sub(1);
        drop(st);
        // Wakes `wait_idle` (and, while draining, idle workers in `pop`).
        self.cond.notify_all();
    }

    /// Stops admission; once the queue empties, `pop` returns `None` to
    /// every worker.
    pub fn drain(&self) {
        self.lock().draining = true;
        self.cond.notify_all();
    }

    /// Blocks until the queue is empty and nothing is in flight. Callers
    /// that want this to terminate should `drain()` first (or stop
    /// submitting).
    pub fn wait_idle(&self) {
        let mut st = self.lock();
        while !st.queue.is_empty() || st.in_flight > 0 {
            st = self.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Items currently queued (excludes in-flight).
    pub fn queued(&self) -> usize {
        self.lock().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn serves_smallest_priority_first_fifo_within_ties() {
        let p = Planner::new(16);
        for (priority, work) in [(30, "big"), (5, "small-a"), (5, "small-b"), (1, "tiny")] {
            p.submit(priority, work).unwrap();
        }
        p.drain();
        let mut order = Vec::new();
        while let Some(w) = p.pop() {
            order.push(w);
            p.task_done();
        }
        assert_eq!(order, ["tiny", "small-a", "small-b", "big"]);
    }

    #[test]
    fn a_full_queue_rejects_and_keeps_what_it_holds() {
        let p = Planner::new(2);
        p.submit(1, 'a').unwrap();
        p.submit(2, 'b').unwrap();
        let err = p.submit(0, 'c').unwrap_err();
        assert_eq!(
            err,
            Overloaded {
                queued: 2,
                capacity: 2
            }
        );
        assert_eq!(p.queued(), 2);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let p = Planner::new(0);
        let err = p.submit(1, ()).unwrap_err();
        assert_eq!(
            err,
            Overloaded {
                queued: 0,
                capacity: 0
            }
        );
    }

    #[test]
    fn draining_rejects_new_work_and_releases_workers() {
        let p: Arc<Planner<u32>> = Arc::new(Planner::new(8));
        p.submit(1, 7).unwrap();
        p.drain();
        assert!(p.submit(1, 8).is_err());
        assert_eq!(p.pop(), Some(7));
        p.task_done();
        assert_eq!(p.pop(), None);

        // A worker blocked in pop() is woken by drain().
        let p2: Arc<Planner<u32>> = Arc::new(Planner::new(8));
        let worker = {
            let p2 = Arc::clone(&p2);
            std::thread::spawn(move || p2.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        p2.drain();
        assert_eq!(worker.join().unwrap(), None);
    }

    #[test]
    fn wait_idle_blocks_until_in_flight_work_finishes() {
        let p: Arc<Planner<u32>> = Arc::new(Planner::new(8));
        p.submit(1, 1).unwrap();
        p.submit(2, 2).unwrap();
        let worker = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                while let Some(_w) = p.pop() {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    p.task_done();
                }
            })
        };
        p.drain();
        p.wait_idle();
        assert_eq!(p.queued(), 0);
        worker.join().unwrap();
    }

    #[test]
    fn concurrent_submitters_and_workers_conserve_items() {
        let p: Arc<Planner<u64>> = Arc::new(Planner::new(1024));
        let submitters: Vec<_> = (0..4)
            .map(|t| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        p.submit(i % 7, t * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    let mut n = 0u32;
                    while let Some(_w) = p.pop() {
                        n += 1;
                        p.task_done();
                    }
                    n
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        p.drain();
        let total: u32 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, 200);
    }
}
