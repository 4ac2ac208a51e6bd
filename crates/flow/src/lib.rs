//! Graph-algorithm substrate for the `krsp` suite.
//!
//! Everything the paper's algorithms and baselines stand on, implemented
//! from scratch:
//!
//! * [`bellman_ford`](mod@bellman_ford) — shortest paths with arbitrary signed weights and
//!   negative-cycle *extraction* (the engine behind cycle cancellation).
//! * [`dijkstra`](mod@dijkstra) — nonnegative-weight shortest paths.
//! * [`dinic`] — unit-capacity max flow (`k`-disjoint-path feasibility,
//!   Menger-style).
//! * [`mcf`] — min-cost flow via successive shortest paths (one Dijkstra
//!   per augmentation) over generic nonnegative ordered weights, including
//!   exact lexicographic tie-breaking on packed `i64` keys (the phase-1
//!   parametric backend and the Suurballe-style min-sum baseline [20, 21]
//!   both reduce to this).
//! * [`karp`] — Karp's minimum mean cycle (the Orda–Sprintson \[18\] baseline
//!   cancels minimum-mean cycles in a nonnegative-cost residual graph).
//! * [`csp`] — delay-constrained shortest path: exact pseudo-polynomial DP
//!   and the Lorenz–Raz style FPTAS \[17\] (the `k = 1` special case of kRSP,
//!   and the scaling template behind Theorem 4).
//! * [`weight`] — the [`weight::Weight`] abstraction (`i64`, `i128`,
//!   [`krsp_numeric::Lex2`]) shared by all of the above, and
//!   [`weight::pack_lex_keys`], which runs a lexicographic search on one
//!   `i64` key per edge wherever a bound proves that exact.
//! * [`cancel`] — the [`CancelToken`] kernels poll so deadline-expired or
//!   shed requests actually stop computing (DESIGN.md §4.13).
//! * `reference` — pre-rewrite kernels kept verbatim as oracles: the 2-D
//!   budgeted DP and its FPTAS, the textbook Bellman–Ford, and the
//!   Bellman–Ford-per-augmentation min-cost flow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bellman_ford;
pub mod cancel;
pub mod csp;
pub mod dijkstra;
pub mod dinic;
#[cfg(test)]
mod edmonds_karp;
pub mod karp;
pub mod kernel;
pub mod mcf;
pub mod reference;
pub mod weight;
pub mod yen;

pub use bellman_ford::{bellman_ford, find_negative_cycle_in, walk_terms, BfResult, BfScratch};
pub use cancel::CancelToken;
pub use csp::{
    constrained_shortest_path, constrained_shortest_path_digested, constrained_shortest_path_with,
    constrained_shortest_paths_digested, rsp_fptas, rsp_fptas_interval, rsp_fptas_interval_with,
    rsp_fptas_with, CspPath, CspQuery, DpScratch, TopoDigest,
};
pub use dijkstra::dijkstra;
pub use dinic::{max_edge_disjoint_paths, Dinic};
pub use karp::min_mean_cycle;
pub use kernel::{
    kernel, ClassicFptas, IntervalScalingFptas, KernelError, KernelKind, RspKernel, KERNEL_KINDS,
};
pub use mcf::{flow_terms, min_cost_k_flow, min_cost_k_flow_lex, McfFlow};
pub use weight::{pack_lex_keys, Weight};
pub use yen::{k_shortest_paths, WeightedPath};
