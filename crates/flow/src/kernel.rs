//! Pluggable restricted-shortest-path kernels (DESIGN.md §4.16).
//!
//! The `(1+ε)` RSP subproblem — the `k = 1` core every baseline and service
//! rung leans on — now sits behind the [`RspKernel`] trait, with two
//! interchangeable backends:
//!
//! * [`ClassicFptas`] — the Lorenz–Raz style scheme
//!   ([`crate::csp::rsp_fptas_with`]), bit-identical to the preserved
//!   [`crate::reference`] oracle;
//! * [`IntervalScalingFptas`] — the Holzmüller-style interval-scaling
//!   scheme ([`crate::csp::rsp_fptas_interval_with`]): incumbent-tightened
//!   geometric bracketing plus a refinement ladder of cheap interval tests,
//!   so the final scaled DP runs over an `(1+o(1))`-narrow budget window
//!   instead of the classic fixed `4·lb` range.
//!
//! Both open with the same threshold search ([`crate::csp::threshold_search`]:
//! one reverse min-delay search, pruned probes and one witness search on the
//! scratch's buffers), and both share one DP sweep that stops at the first
//! delay-feasible budget level (every shrink test, interval test and final
//! DP), so neither computes the levels above its answer. The classic scheme
//! skips every shrink test that the cheapest path in hand already passes,
//! and starts its final DP from a wider bracket.
//!
//! Both give the same `(1+ε)` guarantee but generally different paths, so
//! differential testing across kernels asserts *guarantees* (delay ≤ D,
//! cost ≤ (1+ε)·OPT), not bit-identity — see `tests/kernel_diff.rs`.
//!
//! The trait entry points are the *checked* surface: ε ≤ 0 is rejected with
//! a structured [`KernelError`] and ε > 1 is clamped to 1 (clamping down
//! only strengthens the `(1+ε)` promise), instead of the raw functions'
//! asserts. Exact digested (batched) solving is kernel-independent — the
//! provided [`RspKernel::solve_exact_digested`] delegates to the shared
//! [`TopoDigest`] plane for every backend.

use crate::csp::{
    constrained_shortest_paths_digested, rsp_fptas_interval_with, rsp_fptas_with, CspPath,
    CspQuery, DpScratch, TopoDigest,
};
use krsp_graph::{DiGraph, NodeId};
use serde::{Content, DeError, Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Selects an [`RspKernel`] backend; the wire/CLI names are `classic` and
/// `interval`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// The Lorenz–Raz style FPTAS (the pre-trait default).
    #[default]
    Classic,
    /// The Holzmüller-style interval-scaling FPTAS.
    Interval,
}

/// All kernel kinds, in wire order.
pub const KERNEL_KINDS: [KernelKind; 2] = [KernelKind::Classic, KernelKind::Interval];

impl KernelKind {
    /// The snake_case wire/CLI name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            KernelKind::Classic => "classic",
            KernelKind::Interval => "interval",
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for KernelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "classic" => Ok(KernelKind::Classic),
            "interval" => Ok(KernelKind::Interval),
            other => Err(format!(
                "unknown kernel `{other}` (expected `classic` or `interval`)"
            )),
        }
    }
}

impl Serialize for KernelKind {
    fn to_content(&self) -> Content {
        Content::Str(self.as_str().to_owned())
    }
}

impl Deserialize for KernelKind {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Str(s) => s.parse().map_err(DeError),
            other => Err(DeError::expected("kernel kind string", other)),
        }
    }
}

/// Structured failures of the checked kernel entry points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// ε = eps_num/eps_den is nonpositive (a zero numerator or denominator);
    /// the scaling arithmetic is undefined there, so the request is rejected
    /// instead of panicking mid-division.
    InvalidEpsilon {
        /// Rejected numerator.
        num: u32,
        /// Rejected denominator.
        den: u32,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::InvalidEpsilon { num, den } => {
                write!(f, "invalid epsilon {num}/{den}: must be positive")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// Validates and normalizes ε = `num/den` for the checked kernel surface:
/// ε ≤ 0 (zero numerator or denominator) is a structured error; ε > 1 is
/// clamped to exactly 1 — the kernels' guarantees only strengthen under a
/// smaller ε, and ε > 1 buys nothing the ε = 1 interval test does not
/// already provide. Valid ε ∈ (0, 1] pass through untouched, so the checked
/// surface is bit-identical to the raw functions on every sensible request.
pub fn validate_eps(num: u32, den: u32) -> Result<(u32, u32), KernelError> {
    if num == 0 || den == 0 {
        return Err(KernelError::InvalidEpsilon { num, den });
    }
    if num > den {
        return Ok((1, 1));
    }
    Ok((num, den))
}

/// A backend for the restricted-shortest-path subproblem: minimum-cost
/// `s→t` path with `delay ≤ delay_bound`, to within a `(1+ε)` cost factor.
///
/// Implementations must be stateless (all mutable state rides in the
/// caller's [`DpScratch`], including the
/// [`CancelToken`](crate::CancelToken) polled mid-solve), so a single `&'static`
/// instance serves every thread.
pub trait RspKernel: Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> KernelKind;

    /// One-shot solve with a fresh scratch arena.
    fn solve(
        &self,
        graph: &DiGraph,
        s: NodeId,
        t: NodeId,
        delay_bound: i64,
        eps_num: u32,
        eps_den: u32,
    ) -> Result<Option<CspPath>, KernelError> {
        self.solve_with(
            graph,
            s,
            t,
            delay_bound,
            eps_num,
            eps_den,
            &mut DpScratch::new(),
        )
    }

    /// Solve over a caller-owned scratch arena (the amortized entry point;
    /// repeated solves reuse one allocation, and the scratch's cancel token
    /// is polled throughout).
    #[allow(clippy::too_many_arguments)]
    fn solve_with(
        &self,
        graph: &DiGraph,
        s: NodeId,
        t: NodeId,
        delay_bound: i64,
        eps_num: u32,
        eps_den: u32,
        scratch: &mut DpScratch,
    ) -> Result<Option<CspPath>, KernelError>;

    /// Exact batched solves against a shared [`TopoDigest`]. The exact DP
    /// is kernel-independent — ε plays no role — so the default answers
    /// through the shared digest plane for every backend, and the batch
    /// plane keeps its bit-identity invariant regardless of the configured
    /// kernel.
    fn solve_exact_digested(
        &self,
        graph: &DiGraph,
        digest: &TopoDigest,
        queries: &[CspQuery],
        scratch: &mut DpScratch,
    ) -> Vec<Option<CspPath>> {
        constrained_shortest_paths_digested(graph, digest, queries, scratch)
    }
}

/// The Lorenz–Raz style FPTAS, unchanged behind the trait:
/// bit-identical to [`crate::csp::rsp_fptas_with`] (and hence to the
/// preserved [`crate::reference`] oracle) for every valid ε.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassicFptas;

impl RspKernel for ClassicFptas {
    fn kind(&self) -> KernelKind {
        KernelKind::Classic
    }

    fn solve_with(
        &self,
        graph: &DiGraph,
        s: NodeId,
        t: NodeId,
        delay_bound: i64,
        eps_num: u32,
        eps_den: u32,
        scratch: &mut DpScratch,
    ) -> Result<Option<CspPath>, KernelError> {
        let (num, den) = validate_eps(eps_num, eps_den)?;
        Ok(rsp_fptas_with(graph, s, t, delay_bound, num, den, scratch))
    }
}

/// The Holzmüller-style interval-scaling FPTAS
/// ([`crate::csp::rsp_fptas_interval_with`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct IntervalScalingFptas;

impl RspKernel for IntervalScalingFptas {
    fn kind(&self) -> KernelKind {
        KernelKind::Interval
    }

    fn solve_with(
        &self,
        graph: &DiGraph,
        s: NodeId,
        t: NodeId,
        delay_bound: i64,
        eps_num: u32,
        eps_den: u32,
        scratch: &mut DpScratch,
    ) -> Result<Option<CspPath>, KernelError> {
        let (num, den) = validate_eps(eps_num, eps_den)?;
        Ok(rsp_fptas_interval_with(
            graph,
            s,
            t,
            delay_bound,
            num,
            den,
            scratch,
        ))
    }
}

/// The shared static instance for a kind — kernels are stateless, so one
/// `&'static dyn` per backend serves every caller.
#[must_use]
pub fn kernel(kind: KernelKind) -> &'static dyn RspKernel {
    match kind {
        KernelKind::Classic => &ClassicFptas,
        KernelKind::Interval => &IntervalScalingFptas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::csp::rsp_fptas;

    fn tradeoff_graph() -> DiGraph {
        DiGraph::from_edges(
            4,
            &[(0, 1, 1, 10), (1, 3, 1, 10), (0, 2, 10, 1), (2, 3, 10, 1)],
        )
    }

    #[test]
    fn kind_round_trips_strings_and_serde() {
        for kind in KERNEL_KINDS {
            assert_eq!(kind.as_str().parse::<KernelKind>(), Ok(kind));
            assert_eq!(
                KernelKind::from_content(&kind.to_content()),
                Ok(kind),
                "{kind}"
            );
        }
        assert!("flat".parse::<KernelKind>().is_err());
        assert!(KernelKind::from_content(&Content::Int(0)).is_err());
    }

    #[test]
    fn classic_kernel_is_bit_identical_to_raw_fptas() {
        let g = tradeoff_graph();
        for d in [1i64, 5, 11, 20] {
            for (num, den) in [(1u32, 2u32), (1, 4), (3, 10), (1, 1)] {
                let raw = rsp_fptas(&g, NodeId(0), NodeId(3), d, num, den);
                let via = kernel(KernelKind::Classic)
                    .solve(&g, NodeId(0), NodeId(3), d, num, den)
                    .unwrap();
                assert_eq!(raw, via, "d={d} eps={num}/{den}");
            }
        }
    }

    #[test]
    fn interval_kernel_meets_guarantees() {
        let g = tradeoff_graph();
        // Loose budget: OPT = 2.
        let p = kernel(KernelKind::Interval)
            .solve(&g, NodeId(0), NodeId(3), 20, 1, 2)
            .unwrap()
            .unwrap();
        assert!(p.delay <= 20);
        assert!(2 * p.cost <= 3 * 2, "cost {} > (1+1/2)·2", p.cost);
        // Tight budget: OPT = 20.
        let p = kernel(KernelKind::Interval)
            .solve(&g, NodeId(0), NodeId(3), 5, 1, 2)
            .unwrap()
            .unwrap();
        assert!(p.delay <= 5);
        assert!(2 * p.cost <= 3 * 20);
        // Infeasible.
        assert_eq!(
            kernel(KernelKind::Interval)
                .solve(&g, NodeId(0), NodeId(3), 1, 1, 2)
                .unwrap(),
            None
        );
    }

    #[test]
    fn epsilon_edge_cases_are_structured() {
        let g = tradeoff_graph();
        for kind in KERNEL_KINDS {
            let k = kernel(kind);
            // ε = 0 in either slot: structured rejection, no panic.
            assert_eq!(
                k.solve(&g, NodeId(0), NodeId(3), 20, 0, 4),
                Err(KernelError::InvalidEpsilon { num: 0, den: 4 }),
                "{kind}"
            );
            assert_eq!(
                k.solve(&g, NodeId(0), NodeId(3), 20, 1, 0),
                Err(KernelError::InvalidEpsilon { num: 1, den: 0 }),
                "{kind}"
            );
            // Huge ε clamps to 1: still a valid answer within factor 2.
            let p = k
                .solve(&g, NodeId(0), NodeId(3), 20, 1000, 1)
                .unwrap()
                .unwrap();
            assert!(p.delay <= 20 && p.cost <= 4, "{kind}: cost {}", p.cost);
            // Tiny ε is valid (just expensive): answer is near-exact.
            let p = k
                .solve(&g, NodeId(0), NodeId(3), 20, 1, 1000)
                .unwrap()
                .unwrap();
            assert_eq!((p.cost, p.delay), (2, 20), "{kind}");
        }
        // Huge-ε clamp equals an explicit ε = 1 run, kernel by kernel.
        for kind in KERNEL_KINDS {
            let k = kernel(kind);
            let clamped = k.solve(&g, NodeId(0), NodeId(3), 20, 7, 3).unwrap();
            let unit = k.solve(&g, NodeId(0), NodeId(3), 20, 1, 1).unwrap();
            assert_eq!(clamped, unit, "{kind}");
        }
    }

    #[test]
    fn cancellation_mid_interval_solve_returns_none_and_recovers() {
        let g = tradeoff_graph();
        let mut scratch = DpScratch::new();
        let token = CancelToken::cancellable();
        token.cancel();
        scratch.set_cancel(token);
        assert_eq!(
            kernel(KernelKind::Interval)
                .solve_with(&g, NodeId(0), NodeId(3), 20, 1, 16, &mut scratch)
                .unwrap(),
            None
        );
        scratch.set_cancel(CancelToken::never());
        let p = kernel(KernelKind::Interval)
            .solve_with(&g, NodeId(0), NodeId(3), 20, 1, 16, &mut scratch)
            .unwrap()
            .unwrap();
        assert_eq!((p.cost, p.delay), (2, 20));
    }
}
