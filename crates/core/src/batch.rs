//! Batch solving and the suite's shared scheduling primitive.
//!
//! A controller re-provisions many flows at once (nightly re-optimization,
//! failure storms); the instances are independent, so the batch API fans
//! out over an [`Executor`]. The same executor type backs the long-running
//! `krsp-service` provisioning daemon, so all thread scheduling in the
//! suite lives in one place:
//!
//! * [`Executor::map`] — scoped fan-out over borrowed slices (what
//!   [`solve_batch`] uses); threads live only for the call. Executes on
//!   the vendored rayon pool (the same substrate as the solver's
//!   parallel seed scan) at this executor's width.
//! * [`Executor::submit`] — FIFO dispatch of `'static` jobs onto a
//!   lazily-started resident worker pool (what the service uses).

use crate::algorithm1::{solve_with, Config, SolveError, Solved};
use crate::bicameral::SearchScratch;
use crate::instance::Instance;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

thread_local! {
    /// True on threads owned by a resident pool (see
    /// [`Executor::on_worker_thread`]).
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };

    /// Per-worker solver arena for [`solve_batch`]: each pool thread keeps
    /// one [`SearchScratch`] (and, inside it, the Bellman–Ford buffers)
    /// alive across every query it processes, so a batch of N queries
    /// warms `width` arenas instead of allocating N. Scratch reuse is
    /// output-invariant (pinned by the scratch-reuse tests), so batched
    /// results stay bit-identical to independent [`solve`] calls.
    static WORKER_SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::new());
}

/// A boxed unit of work for the resident pool.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    not_empty: Condvar,
}

struct ResidentPool {
    shared: Arc<PoolShared>,
    handles: Vec<thread::JoinHandle<()>>,
}

/// The suite's scheduling primitive: a fixed worker width shared by scoped
/// batch fan-out ([`Executor::map`]) and a resident FIFO worker pool
/// ([`Executor::submit`]). The resident threads are started lazily on the
/// first `submit`, so batch-only users never spawn long-lived threads.
pub struct Executor {
    workers: usize,
    pool: Mutex<Option<ResidentPool>>,
}

impl Executor {
    /// An executor `workers` wide (clamped to at least 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Executor {
            workers: workers.max(1),
            pool: Mutex::new(None),
        }
    }

    /// Worker width.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// True when the current thread is a resident-pool worker (of *any*
    /// executor). Code that blocks waiting for a job submitted via
    /// [`Executor::submit`] must not do so from a worker thread — every
    /// worker could end up parked behind a job that needs a worker to run,
    /// deadlocking the pool. Callers use this to fall back to solving
    /// inline (see the singleflight layer in `krsp-service`).
    #[must_use]
    pub fn on_worker_thread() -> bool {
        IS_POOL_WORKER.with(Cell::get)
    }

    /// Applies `f` to every item, preserving order, using up to
    /// [`Executor::workers`] scoped threads. Panics in `f` propagate.
    ///
    /// Since PR 4 this delegates to the vendored rayon pool — the same
    /// scoped chunk-distributing substrate the bicameral seed scan runs
    /// on — with this executor's width; the result is identical to a
    /// sequential `items.iter().map(f).collect()` at any width.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        rayon::ParIter::from_fn(items.len(), |i| f(&items[i]))
            .with_width(self.workers)
            .collect()
    }

    /// Enqueues a job on the resident FIFO pool, starting the pool's
    /// threads on first use. Jobs run in submission order across
    /// [`Executor::workers`] threads.
    pub fn submit(&self, job: Job) {
        let mut pool = self.pool.lock().expect("executor pool poisoned");
        let resident = pool.get_or_insert_with(|| self.start_resident());
        {
            let mut st = resident.shared.state.lock().expect("pool state poisoned");
            st.queue.push_back(job);
        }
        resident.shared.not_empty.notify_one();
    }

    /// Number of jobs submitted but not yet started (0 if the resident pool
    /// was never started).
    #[must_use]
    pub fn queued(&self) -> usize {
        let pool = self.pool.lock().expect("executor pool poisoned");
        pool.as_ref().map_or(0, |r| {
            r.shared
                .state
                .lock()
                .expect("pool state poisoned")
                .queue
                .len()
        })
    }

    fn start_resident(&self) -> ResidentPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
        });
        let handles = (0..self.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    IS_POOL_WORKER.with(|f| f.set(true));
                    loop {
                        let job = {
                            let mut st = shared.state.lock().expect("pool state poisoned");
                            loop {
                                if let Some(j) = st.queue.pop_front() {
                                    break j;
                                }
                                if st.shutdown {
                                    return;
                                }
                                st = shared.not_empty.wait(st).expect("pool state poisoned");
                            }
                        };
                        job();
                    }
                })
            })
            .collect();
        ResidentPool { shared, handles }
    }
}

impl Drop for Executor {
    /// Drains the resident queue (pending jobs still run) and joins the
    /// workers.
    fn drop(&mut self) {
        let resident = self.pool.lock().expect("executor pool poisoned").take();
        if let Some(resident) = resident {
            resident
                .shared
                .state
                .lock()
                .expect("pool state poisoned")
                .shutdown = true;
            resident.shared.not_empty.notify_all();
            for h in resident.handles {
                let _ = h.join();
            }
        }
    }
}

/// The process-wide executor used by [`solve_batch`]: the rayon pool's
/// resolved width (`KRSP_THREADS` override, else one worker per available
/// CPU), captured at first use.
pub fn shared_executor() -> &'static Executor {
    static SHARED: OnceLock<Executor> = OnceLock::new();
    SHARED.get_or_init(|| Executor::new(rayon::current_num_threads()))
}

/// Why one query of a batch failed. Granular per query: a panicking
/// instance maps to [`BatchError::Panicked`] for *that* slot only instead
/// of unwinding through the pool and poisoning its siblings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// The solver ran to completion and reported failure.
    Solve(SolveError),
    /// The solver panicked; the payload message is attached. Sibling
    /// queries in the same batch are unaffected.
    Panicked(String),
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Solve(e) => e.fmt(f),
            BatchError::Panicked(msg) => write!(f, "solver panicked: {msg}"),
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchError::Solve(e) => Some(e),
            BatchError::Panicked(_) => None,
        }
    }
}

/// Best-effort panic payload rendering (panics carry `&str` or `String`
/// in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Solves every instance in parallel, preserving order.
///
/// Each pool worker reuses one resident [`SearchScratch`] arena across all
/// the queries it processes, and each query runs inside `catch_unwind`:
/// a panicking instance yields [`BatchError::Panicked`] in its own slot
/// while every sibling query completes normally. Results are bit-identical
/// to N independent [`solve`](crate::solve) calls at any worker width.
///
/// ```
/// use krsp::{solve_batch, Config, Instance};
/// use krsp_graph::{DiGraph, NodeId};
///
/// let mk = |d| {
///     let g = DiGraph::from_edges(4, &[
///         (0, 1, 1, 5), (1, 3, 1, 5), (0, 2, 4, 1), (2, 3, 4, 1),
///     ]);
///     Instance::new(g, NodeId(0), NodeId(3), 2, d).unwrap()
/// };
/// let batch = vec![mk(20), mk(3)];
/// let results = solve_batch(&batch, &Config::default());
/// assert!(results[0].is_ok());
/// assert!(results[1].is_err()); // budget 3 is unsatisfiable
/// ```
#[must_use]
pub fn solve_batch(instances: &[Instance], cfg: &Config) -> Vec<Result<Solved, BatchError>> {
    // A transient executor at the *current* solver width: `map` is scoped
    // (no resident threads), so this is just a width capture — and unlike
    // the process-wide executor, it tracks `set_solver_width` /
    // `KRSP_THREADS` changes made after the first batch.
    Executor::new(rayon::current_num_threads()).map(instances, |inst| {
        WORKER_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            match catch_unwind(AssertUnwindSafe(|| solve_with(inst, cfg, &mut scratch))) {
                Ok(Ok(out)) => Ok(out),
                Ok(Err(e)) => Err(BatchError::Solve(e)),
                Err(payload) => Err(BatchError::Panicked(panic_message(payload.as_ref()))),
            }
        })
    })
}

/// Aggregate statistics over a batch result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchSummary {
    /// Number of solved instances.
    pub solved: usize,
    /// Number of infeasible instances.
    pub infeasible: usize,
    /// Number of queries whose solver panicked (isolated per query).
    pub panicked: usize,
    /// Total cost over solved instances.
    pub total_cost: i64,
    /// Worst delay utilization (delay / D) over solved instances.
    pub worst_delay_utilization: f64,
}

/// Summarizes a batch result against its instances.
#[must_use]
pub fn summarize(instances: &[Instance], results: &[Result<Solved, BatchError>]) -> BatchSummary {
    let mut s = BatchSummary::default();
    for (inst, r) in instances.iter().zip(results) {
        match r {
            Ok(out) => {
                s.solved += 1;
                s.total_cost += out.solution.cost;
                let u = out.solution.delay as f64 / inst.delay_bound.max(1) as f64;
                s.worst_delay_utilization = s.worst_delay_utilization.max(u);
            }
            Err(BatchError::Panicked(_)) => s.panicked += 1,
            Err(BatchError::Solve(_)) => s.infeasible += 1,
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve;
    use krsp_graph::{DiGraph, NodeId};

    fn inst(d: i64) -> Instance {
        let g = DiGraph::from_edges(4, &[(0, 1, 1, 5), (1, 3, 1, 5), (0, 2, 4, 1), (2, 3, 4, 1)]);
        Instance::new(g, NodeId(0), NodeId(3), 2, d).unwrap()
    }

    #[test]
    fn batch_matches_sequential() {
        let batch: Vec<Instance> = [20, 12, 8, 3].into_iter().map(inst).collect();
        let cfg = Config::default();
        let par = solve_batch(&batch, &cfg);
        for (i, r) in par.iter().enumerate() {
            let seq = solve(&batch[i], &cfg);
            match (r, seq) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.solution.cost, b.solution.cost);
                    assert_eq!(a.solution.delay, b.solution.delay);
                }
                (Err(BatchError::Solve(a)), Err(b)) => assert_eq!(a, &b),
                other => panic!("batch/sequential disagree: {other:?}"),
            }
        }
    }

    #[test]
    fn batch_reuses_worker_scratch_bit_identically() {
        // Many queries per worker: the per-thread scratch is hit warm and
        // the answers must still match fresh solves exactly.
        let batch: Vec<Instance> = (0..24).map(|i| inst(12 + (i % 9))).collect();
        let cfg = Config::default();
        let results = solve_batch(&batch, &cfg);
        for (i, r) in results.iter().enumerate() {
            let fresh = solve(&batch[i], &cfg).expect("instances are feasible");
            let got = r.as_ref().expect("batch result matches");
            assert_eq!(got.solution.cost, fresh.solution.cost);
            assert_eq!(got.solution.delay, fresh.solution.delay);
            assert_eq!(got.solution.edges, fresh.solution.edges);
        }
    }

    #[test]
    fn executor_map_preserves_order() {
        let ex = Executor::new(4);
        let items: Vec<u64> = (0..100).collect();
        let out = ex.map(&items, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn executor_submit_runs_all_jobs() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let ex = Executor::new(3);
        let sum = Arc::new(AtomicU64::new(0));
        for i in 1..=50u64 {
            let sum = Arc::clone(&sum);
            ex.submit(Box::new(move || {
                sum.fetch_add(i, Ordering::Relaxed);
            }));
        }
        drop(ex); // drains the queue and joins the workers
        assert_eq!(sum.load(Ordering::Relaxed), 50 * 51 / 2);
    }

    #[test]
    fn worker_thread_marker_distinguishes_pool_threads() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        assert!(!Executor::on_worker_thread(), "test thread is not a worker");
        let ex = Executor::new(2);
        let seen = Arc::new(AtomicBool::new(false));
        {
            let seen = Arc::clone(&seen);
            ex.submit(Box::new(move || {
                seen.store(Executor::on_worker_thread(), Ordering::SeqCst);
            }));
        }
        drop(ex);
        assert!(seen.load(Ordering::SeqCst), "pool job must see the marker");
        // Scoped map threads are not resident workers; blocking there is
        // safe because the resident pool can still drain.
        let ex = Executor::new(2);
        let flags = ex.map(&[0u8; 4], |_| Executor::on_worker_thread());
        assert_eq!(flags, vec![false; 4]);
    }

    #[test]
    fn summary_counts() {
        let batch: Vec<Instance> = [20, 12, 3].into_iter().map(inst).collect();
        let results = solve_batch(&batch, &Config::default());
        let s = summarize(&batch, &results);
        assert_eq!(s.solved, 2);
        assert_eq!(s.infeasible, 1); // D = 3 < min total delay 12... (fast pair delay 2+... )
        assert!(s.worst_delay_utilization <= 1.0);
    }
}
