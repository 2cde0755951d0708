//! Vendored stand-in for the `rayon` subset this workspace uses.
//!
//! The build container has no route to a cargo registry, so this crate
//! re-implements the handful of rayon entry points the workspace calls —
//! `par_iter().map().collect()`, `into_par_iter().step_by().map().collect()`
//! and `current_num_threads()` — on top of `std::thread::scope`. Parallelism is real (contiguous chunking,
//! one worker per available core), ordering is preserved, and the API shape
//! matches rayon closely enough that swapping the real crate back in is a
//! Cargo.toml-only change.

use std::num::NonZeroUsize;
use std::sync::{mpsc, Arc, Mutex};

/// Number of worker threads the pool-less fallback will use.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Error type of [`ThreadPoolBuilder::build`] — mirrors rayon's
/// `ThreadPoolBuildError`. The stand-in pool cannot actually fail to build,
/// but keeping the `Result` shape means swapping the real crate back in is
/// still a Cargo.toml-only change.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Mirror of rayon's `ThreadPoolBuilder` (the subset `cello-serve` uses:
/// `num_threads` + `build`).
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Fresh builder (defaults to one worker per available core).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (0 = one per available core, like rayon).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            current_num_threads()
        } else {
            self.num_threads
        };
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    let job = {
                        let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
                        guard.recv()
                    };
                    match job {
                        // A panicking job must not take the worker down with
                        // it: a long-running service owns this pool, and one
                        // bad request killing a worker would slowly drain the
                        // pool. Mirrors rayon, which catches unwinds at the
                        // job boundary.
                        Ok(job) => {
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        }
                        Err(_) => return, // pool dropped: all senders gone
                    }
                })
            })
            .collect();
        Ok(ThreadPool {
            tx: Some(tx),
            workers,
        })
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of worker threads consuming [`ThreadPool::spawn`]ed jobs from
/// a shared queue — the stand-in for rayon's `ThreadPool` as a long-running
/// service's connection pool. Dropping the pool closes the queue and joins
/// the workers (outstanding jobs finish first).
pub struct ThreadPool {
    tx: Option<mpsc::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Number of worker threads.
    pub fn current_num_threads(&self) -> usize {
        self.workers.len()
    }

    /// Queues a job for the next free worker (rayon's fire-and-forget
    /// `spawn`).
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        if let Some(tx) = &self.tx {
            // Send can only fail after the pool was dropped, which `&self`
            // rules out; ignore the impossible error rather than unwrap.
            let _ = tx.send(Box::new(job));
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.tx.take(); // close the queue so workers see Err and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Ordered parallel map over owned items: splits into contiguous chunks, one
/// scoped thread per chunk, then re-concatenates in order.
fn parallel_map<I, U, F>(items: Vec<I>, f: &F) -> Vec<U>
where
    I: Send,
    U: Send,
    F: Fn(I) -> U + Sync,
{
    let threads = current_num_threads().min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<I>> = Vec::with_capacity(threads);
    let mut items = items;
    while !items.is_empty() {
        let rest = items.split_off(items.len().min(chunk));
        chunks.push(std::mem::replace(&mut items, rest));
    }
    let mut out = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| scope.spawn(move || c.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        for h in handles {
            out.extend(h.join().expect("rayon-compat worker panicked"));
        }
    });
    out
}

/// Parallel for-each over owned items (no result collection).
fn parallel_for_each<I, F>(items: Vec<I>, f: &F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    let threads = current_num_threads().min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        items.into_iter().for_each(f);
        return;
    }
    let chunk = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<I>> = Vec::with_capacity(threads);
    let mut items = items;
    while !items.is_empty() {
        let rest = items.split_off(items.len().min(chunk));
        chunks.push(std::mem::replace(&mut items, rest));
    }
    std::thread::scope(|scope| {
        for c in chunks {
            scope.spawn(move || c.into_iter().for_each(f));
        }
    });
}

/// Borrowing parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps each element (in parallel at collect time).
    pub fn map<U, F>(self, f: F) -> ParMap<'a, T, F>
    where
        U: Send,
        F: Fn(&'a T) -> U + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Parallel for-each over `&T`.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        parallel_for_each(self.items.iter().collect(), &|t| f(t));
    }
}

/// Mapped borrowing parallel iterator.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, F> ParMap<'a, T, F> {
    /// Runs the map in parallel and collects in order.
    pub fn collect<C, U>(self) -> C
    where
        U: Send,
        F: Fn(&'a T) -> U + Sync,
        C: FromIterator<U>,
    {
        parallel_map(self.items.iter().collect::<Vec<&'a T>>(), &|t| (self.f)(t))
            .into_iter()
            .collect()
    }
}

/// Parallel iterator over owned items (ranges, vecs).
pub struct IntoParIter<I> {
    items: Vec<I>,
}

impl<I: Send> IntoParIter<I> {
    /// Keeps every `step`-th element, mirroring `Iterator::step_by`.
    pub fn step_by(self, step: usize) -> IntoParIter<I> {
        IntoParIter {
            items: self.items.into_iter().step_by(step.max(1)).collect(),
        }
    }

    /// Maps each element (in parallel at collect time).
    pub fn map<U, F>(self, f: F) -> IntoParMap<I, F>
    where
        U: Send,
        F: Fn(I) -> U + Sync,
    {
        IntoParMap {
            items: self.items,
            f,
        }
    }

    /// Parallel for-each over owned items.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(I) + Sync,
    {
        parallel_for_each(self.items, &f);
    }
}

/// Mapped owning parallel iterator.
pub struct IntoParMap<I, F> {
    items: Vec<I>,
    f: F,
}

impl<I: Send, F> IntoParMap<I, F> {
    /// Runs the map in parallel and collects in order.
    pub fn collect<C, U>(self) -> C
    where
        U: Send,
        F: Fn(I) -> U + Sync,
        C: FromIterator<U>,
    {
        parallel_map(self.items, &self.f).into_iter().collect()
    }
}

/// Mirror of rayon's `IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> IntoParIter<Self::Item>;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> IntoParIter<usize> {
        IntoParIter {
            items: self.collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> IntoParIter<T> {
        IntoParIter { items: self }
    }
}

/// Mirror of rayon's `IntoParallelRefIterator` (`par_iter` on slices/vecs).
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed element type.
    type Item: Sync + 'a;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// The rayon prelude: the traits that put `par_iter` & friends in scope.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_map_collect_preserves_order() {
        let v: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn into_par_iter_step_by_matches_sequential() {
        let par: Vec<usize> = (0..1000)
            .into_par_iter()
            .step_by(7)
            .map(|x| x + 1)
            .collect();
        let seq: Vec<usize> = (0..1000).step_by(7).map(|x| x + 1).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn current_num_threads_positive() {
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn thread_pool_runs_all_jobs_and_joins_on_drop() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        assert_eq!(pool.current_num_threads(), 4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins workers; queued jobs finish first
        assert_eq!(done.load(Ordering::SeqCst), 64);
    }

    /// A panicking job neither kills its worker nor poisons the queue.
    #[test]
    fn thread_pool_survives_panicking_jobs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..16 {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                if i % 2 == 0 {
                    panic!("job {i} goes down");
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }
}
