//! # krsp — k Disjoint Restricted Shortest Paths
//!
//! A from-scratch implementation of
//!
//! > *Brief Announcement: Efficient Approximation Algorithms for Computing
//! > k Disjoint Restricted Shortest Paths* — Guo, Liao, Shen, Li
//! > (SPAA 2015)
//!
//! The **kRSP** problem: given a digraph with nonnegative integral edge
//! costs and delays, find `k` edge-disjoint `s→t` paths minimizing total
//! cost subject to a bound `D` on *total* delay. NP-hard; this crate
//! provides the paper's bifactor approximation algorithms:
//!
//! * [`phase1`] — the `(2, 2)` LP-rounding of Lemma 5 (reference \[9\]),
//!   with a parametric (Lagrangian) and an exact-simplex backend;
//! * [`bicameral`] — bicameral cycles (Definition 10) and the search
//!   engines of Section 4 (layered auxiliary graphs, LP (6));
//! * [`algorithm1`] — the cycle-cancellation driver achieving the `(1, 2)`
//!   bifactor of Lemma 3/11;
//! * [`scaling`] — Theorem 4's `(1+ε₁, 2+ε₂)` polynomial-time scaling;
//! * [`exact`] — exponential exact solvers (brute force, branch-and-bound)
//!   used to measure true approximation ratios;
//! * [`baselines`] — the comparison algorithms from the related work
//!   (\[9\], \[17\], \[18\], \[20, 21\]).
//!
//! ## Quick start
//!
//! ```
//! use krsp::{solve, Config, Instance};
//! use krsp_graph::{DiGraph, NodeId};
//!
//! // Two disjoint paths from 0 to 3, total delay at most 12.
//! let g = DiGraph::from_edges(4, &[
//!     (0, 1, 1, 2), (1, 3, 1, 2),   // cheap-ish pair
//!     (0, 2, 3, 4), (2, 3, 3, 4),   // second route
//!     (0, 3, 9, 1),                 // direct express link
//! ]);
//! let inst = Instance::new(g, NodeId(0), NodeId(3), 2, 12).unwrap();
//! let solved = solve(&inst, &Config::default()).unwrap();
//! assert!(solved.solution.delay <= 12);
//! assert_eq!(solved.solution.paths(&inst).len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm1;
pub mod auxgraph;
pub mod baselines;
pub mod batch;
pub mod bicameral;
pub mod exact;
pub mod extensions;
pub mod instance;
pub mod phase1;
pub mod scaling;
pub mod solution;
pub mod verify;

pub use algorithm1::{solve, solve_warm_with, solve_with, Config, RunStats, SolveError, Solved};

/// The data-parallel width the solver's internal fan-outs (the bicameral
/// seed scan, [`solve_batch`]'s default executor) will use: the
/// [`set_solver_width`] override if set, else the `KRSP_THREADS`
/// environment variable, else one worker per available CPU. Solver output
/// is bit-identical at any width; this only changes wall-clock time.
#[must_use]
pub fn solver_width() -> usize {
    rayon::current_num_threads()
}

/// Overrides [`solver_width`] process-wide (`0` clears the override).
/// Safe to call at any time; reductions re-read the width when they start.
pub fn set_solver_width(width: usize) {
    rayon::set_num_threads(width);
}
pub use batch::{shared_executor, solve_batch, summarize, BatchError, BatchSummary, Executor};
pub use bicameral::{BSearch, CycleKind, Engine, SearchScratch};
pub use instance::{Instance, InstanceError};
pub use krsp_flow::CancelToken;
pub use krsp_flow::{
    kernel as rsp_kernel, DpScratch, KernelError, KernelKind, RspKernel, KERNEL_KINDS,
};
pub use phase1::Phase1Backend;
pub use scaling::{solve_scaled, Eps, ScaledSolved};
pub use solution::Solution;
pub use verify::{audit, Violation};
