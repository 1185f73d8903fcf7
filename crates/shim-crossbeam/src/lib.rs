//! Offline stand-in for the `crossbeam` crate.
//!
//! The workspace uses two slices of crossbeam:
//!
//! - `crossbeam::thread::scope` for structured fork/join parallelism;
//!   since Rust 1.63 the standard library provides the same capability,
//!   so [`thread`] is a thin adapter over [`std::thread::scope`] that
//!   preserves crossbeam's call shape (`scope(|s| { s.spawn(|_| …); })`
//!   returning a `Result`).
//! - `crossbeam::deque` for work-stealing schedulers. [`deque`]
//!   reproduces the `Worker`/`Stealer`/`Injector`/`Steal` API in safe
//!   Rust over a locked `VecDeque` — correctness-compatible with the
//!   lock-free original, with coarser contention behaviour that is
//!   irrelevant at chamber-task granularity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Work-stealing double-ended queues compatible with `crossbeam::deque`.
///
/// Each worker thread owns a [`Worker`](deque::Worker) it pushes and
/// pops locally (LIFO or FIFO); other threads hold
/// [`Stealer`](deque::Stealer) handles and take work from the opposite
/// end. Tasks produced outside any worker go through a shared FIFO
/// [`Injector`](deque::Injector) that every worker can steal from. The
/// shim backs each queue with one mutexed `VecDeque`, so every
/// operation is linearizable and an uncontended one takes no system
/// call; [`Steal::Retry`](deque::Steal::Retry) is reserved for
/// lock-poisoning (a panicking peer), which callers treat exactly like
/// crossbeam's transient contention signal.
pub mod deque {
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// Most tasks one batch steal moves out of an [`Injector`]
    /// (crossbeam's bound).
    const MAX_BATCH: usize = 32;

    /// Which end [`Worker::pop`] takes from.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Flavor {
        /// Pop the most recently pushed task (depth-first).
        Lifo,
        /// Pop the least recently pushed task (breadth-first).
        Fifo,
    }

    /// The owner side of a work-stealing deque.
    #[derive(Debug)]
    pub struct Worker<T> {
        queue: Arc<Mutex<VecDeque<T>>>,
        flavor: Flavor,
    }

    impl<T> Worker<T> {
        /// A deque whose owner pops the most recently pushed task.
        pub fn new_lifo() -> Worker<T> {
            Worker {
                queue: Arc::new(Mutex::new(VecDeque::new())),
                flavor: Flavor::Lifo,
            }
        }

        /// A deque whose owner pops the least recently pushed task.
        pub fn new_fifo() -> Worker<T> {
            Worker {
                queue: Arc::new(Mutex::new(VecDeque::new())),
                flavor: Flavor::Fifo,
            }
        }

        /// Pushes a task onto the owner's end.
        pub fn push(&self, task: T) {
            self.queue.lock().expect("deque poisoned").push_back(task);
        }

        /// Pops a task from the owner's end (`None` when empty).
        pub fn pop(&self) -> Option<T> {
            let mut q = self.queue.lock().expect("deque poisoned");
            match self.flavor {
                Flavor::Lifo => q.pop_back(),
                Flavor::Fifo => q.pop_front(),
            }
        }

        /// Whether the deque is currently empty.
        pub fn is_empty(&self) -> bool {
            self.queue.lock().expect("deque poisoned").is_empty()
        }

        /// Number of tasks currently queued.
        pub fn len(&self) -> usize {
            self.queue.lock().expect("deque poisoned").len()
        }

        /// A stealer handle other threads can take work through.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }
    }

    /// The thief side of a work-stealing deque; clone freely.
    #[derive(Debug)]
    pub struct Stealer<T> {
        queue: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Stealer<T> {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }
    }

    impl<T> Stealer<T> {
        /// Steals the task at the opposite end from the owner's pops.
        pub fn steal(&self) -> Steal<T> {
            match self.queue.lock() {
                Ok(mut q) => match q.pop_front() {
                    Some(task) => Steal::Success(task),
                    None => Steal::Empty,
                },
                // A poisoned lock means a peer panicked mid-operation;
                // report the crossbeam "try again" signal rather than
                // propagating the panic into every thief.
                Err(_) => Steal::Retry,
            }
        }

        /// Whether the deque is currently empty.
        pub fn is_empty(&self) -> bool {
            self.queue.lock().map(|q| q.is_empty()).unwrap_or(true)
        }
    }

    /// A FIFO queue shared by every worker, for tasks produced outside
    /// the workers' own deques.
    #[derive(Debug)]
    pub struct Injector<T> {
        queue: Mutex<VecDeque<T>>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Injector<T> {
            Injector::new()
        }
    }

    impl<T> Injector<T> {
        /// An empty injector.
        pub fn new() -> Injector<T> {
            Injector {
                queue: Mutex::new(VecDeque::new()),
            }
        }

        /// Pushes a task onto the back of the queue.
        pub fn push(&self, task: T) {
            self.queue
                .lock()
                .expect("injector poisoned")
                .push_back(task);
        }

        /// Steals the task at the front of the queue.
        pub fn steal(&self) -> Steal<T> {
            match self.queue.lock() {
                Ok(mut q) => match q.pop_front() {
                    Some(task) => Steal::Success(task),
                    None => Steal::Empty,
                },
                Err(_) => Steal::Retry,
            }
        }

        /// Moves a batch of tasks from the front of the queue into
        /// `dest`: about half of them, at most 32.
        pub fn steal_batch(&self, dest: &Worker<T>) -> Steal<()> {
            let mut q = match self.queue.lock() {
                Ok(q) => q,
                Err(_) => return Steal::Retry,
            };
            let batch = q.len().div_ceil(2).min(MAX_BATCH);
            if batch == 0 {
                return Steal::Empty;
            }
            for task in q.drain(..batch) {
                dest.push(task);
            }
            Steal::Success(())
        }

        /// Like [`Injector::steal_batch`], but pops the first task of the
        /// batch and returns it instead of pushing it into `dest`.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let mut q = match self.queue.lock() {
                Ok(q) => q,
                Err(_) => return Steal::Retry,
            };
            let batch = q.len().div_ceil(2).min(MAX_BATCH);
            let mut taken = q.drain(..batch);
            match taken.next() {
                Some(first) => {
                    for task in taken {
                        dest.push(task);
                    }
                    Steal::Success(first)
                }
                None => Steal::Empty,
            }
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.queue.lock().map(|q| q.is_empty()).unwrap_or(true)
        }

        /// Number of tasks currently queued.
        pub fn len(&self) -> usize {
            self.queue.lock().map(|q| q.len()).unwrap_or(0)
        }
    }

    /// Outcome of a [`Stealer::steal`] attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The deque was empty.
        Empty,
        /// A task was stolen.
        Success(T),
        /// The attempt lost a race; try again.
        Retry,
    }

    impl<T> Steal<T> {
        /// The stolen task, if the attempt succeeded.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(task) => Some(task),
                _ => None,
            }
        }

        /// Whether the deque was observed empty.
        pub fn is_empty(&self) -> bool {
            matches!(self, Steal::Empty)
        }

        /// Whether the attempt should be retried.
        pub fn is_retry(&self) -> bool {
            matches!(self, Steal::Retry)
        }
    }
}

/// Scoped-thread API compatible with `crossbeam::thread`.
pub mod thread {
    /// A scope in which borrowed-data threads can be spawned.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. The closure receives the scope again
        /// (crossbeam's signature) so workers may spawn sub-workers.
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: for<'a> FnOnce(&'a Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            inner.spawn(move || f(&Scope { inner }))
        }
    }

    /// Runs `f` with a thread scope; every spawned thread is joined
    /// before this returns. Unlike crossbeam, a panicking child makes
    /// the *scope* panic (std semantics), so the `Err` branch is only
    /// reachable through a caller-level `catch_unwind`; callers that
    /// `.expect()` the result observe identical behaviour either way.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn std::any::Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_joins_all_threads() {
        let counter = AtomicUsize::new(0);
        super::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| counter.fetch_add(1, Ordering::Relaxed));
            }
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn scope_returns_closure_value() {
        let v = super::thread::scope(|s| {
            let h = s.spawn(|_| 21);
            h.join().unwrap() * 2
        })
        .unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn nested_spawn_via_scope_argument() {
        let counter = AtomicUsize::new(0);
        super::thread::scope(|s| {
            s.spawn(|inner| {
                inner.spawn(|_| counter.fetch_add(1, Ordering::Relaxed));
            });
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    mod deque {
        use crate::deque::{Injector, Steal, Worker};

        #[test]
        fn lifo_owner_pops_newest() {
            let w = Worker::new_lifo();
            w.push(1);
            w.push(2);
            assert_eq!(w.pop(), Some(2));
            assert_eq!(w.pop(), Some(1));
            assert_eq!(w.pop(), None);
        }

        #[test]
        fn fifo_owner_pops_oldest() {
            let w = Worker::new_fifo();
            w.push(1);
            w.push(2);
            assert_eq!(w.pop(), Some(1));
            assert_eq!(w.pop(), Some(2));
        }

        #[test]
        fn stealer_takes_from_opposite_end() {
            let w = Worker::new_lifo();
            let s = w.stealer();
            w.push(1);
            w.push(2);
            // Owner would pop 2; the thief takes the oldest task, 1.
            assert_eq!(s.steal(), Steal::Success(1));
            assert_eq!(w.pop(), Some(2));
            assert!(s.steal().is_empty());
        }

        #[test]
        fn steal_from_empty_reports_empty() {
            let w: Worker<u32> = Worker::new_lifo();
            let s = w.stealer();
            assert!(s.is_empty());
            assert_eq!(s.steal(), Steal::Empty);
            assert_eq!(s.steal().success(), None);
        }

        #[test]
        fn len_and_is_empty_track_contents() {
            let w = Worker::new_fifo();
            assert!(w.is_empty());
            w.push(7);
            w.push(8);
            assert_eq!(w.len(), 2);
            assert!(!w.is_empty());
        }

        #[test]
        fn concurrent_workers_drain_everything_exactly_once() {
            use std::sync::atomic::{AtomicUsize, Ordering};
            const TASKS: usize = 10_000;
            let owner = Worker::new_lifo();
            for i in 0..TASKS {
                owner.push(i);
            }
            let taken = AtomicUsize::new(0);
            let sum = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    let s = owner.stealer();
                    let (taken, sum) = (&taken, &sum);
                    scope.spawn(move || loop {
                        match s.steal() {
                            Steal::Success(v) => {
                                taken.fetch_add(1, Ordering::Relaxed);
                                sum.fetch_add(v, Ordering::Relaxed);
                            }
                            Steal::Empty => break,
                            Steal::Retry => {}
                        }
                    });
                }
            });
            assert_eq!(taken.load(Ordering::Relaxed), TASKS);
            assert_eq!(sum.load(Ordering::Relaxed), TASKS * (TASKS - 1) / 2);
        }

        #[test]
        fn injector_is_fifo() {
            let q = Injector::default();
            assert!(q.is_empty());
            q.push(1);
            q.push(2);
            assert_eq!(q.len(), 2);
            assert_eq!(q.steal(), Steal::Success(1));
            assert_eq!(q.steal(), Steal::Success(2));
            assert_eq!(q.steal(), Steal::Empty);
        }

        #[test]
        fn injector_batch_moves_half_in_order() {
            let q = Injector::new();
            for i in 0..5 {
                q.push(i);
            }
            let w = Worker::new_fifo();
            assert_eq!(q.steal_batch(&w), Steal::Success(()));
            // ⌈5/2⌉ = 3 tasks moved, oldest first.
            assert_eq!(
                (w.pop(), w.pop(), w.pop(), w.pop()),
                (Some(0), Some(1), Some(2), None)
            );
            assert_eq!(q.len(), 2);
            assert_eq!(q.steal_batch_and_pop(&w), Steal::Success(3));
            assert!(w.is_empty(), "a batch of one is popped, not pushed");
            assert_eq!(q.steal_batch_and_pop(&w), Steal::Success(4));
            assert_eq!(q.steal_batch_and_pop(&w), Steal::Empty);
            assert_eq!(q.steal_batch(&w), Steal::Empty);
        }

        #[test]
        fn injector_batch_is_capped() {
            let q = Injector::new();
            for i in 0..1000 {
                q.push(i);
            }
            let w = Worker::new_fifo();
            assert_eq!(q.steal_batch_and_pop(&w), Steal::Success(0));
            assert_eq!(w.len(), 31, "at most 32 tasks per batch");
            assert_eq!(q.len(), 1000 - 32);
        }

        #[test]
        fn concurrent_producer_and_consumers_see_every_task_once() {
            use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
            const TASKS: usize = 10_000;
            let q = Injector::new();
            let done = AtomicBool::new(false);
            let taken = AtomicUsize::new(0);
            let sum = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    let (q, done, taken, sum) = (&q, &done, &taken, &sum);
                    scope.spawn(move || {
                        let local = Worker::new_fifo();
                        loop {
                            let finished = done.load(Ordering::Acquire);
                            let task = local
                                .pop()
                                .or_else(|| q.steal_batch_and_pop(&local).success());
                            match task {
                                Some(v) => {
                                    taken.fetch_add(1, Ordering::Relaxed);
                                    sum.fetch_add(v, Ordering::Relaxed);
                                }
                                None if finished => break,
                                None => std::thread::yield_now(),
                            }
                        }
                    });
                }
                for i in 0..TASKS {
                    q.push(i);
                }
                done.store(true, Ordering::Release);
            });
            assert_eq!(taken.load(Ordering::Relaxed), TASKS);
            assert_eq!(sum.load(Ordering::Relaxed), TASKS * (TASKS - 1) / 2);
        }
    }
}
