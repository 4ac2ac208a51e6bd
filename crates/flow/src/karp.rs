//! Minimum mean cycle (Karp) and minimum ratio cycle (Lawler/Dinkelbach).
//!
//! The paper's §2.1 recalls that previous work ([12, 18]) sets reversed-edge
//! costs to **zero** so their residual graphs stay nonnegative in cost, at
//! which point "the minimum-mean-cycle algorithm can be applied therein, and
//! hence a best cycle for cycle cancellation, i.e. `O` with `d(O)/c(O)`
//! minimized, can be computed in polynomial time \[15\]". This module provides
//! both primitives for the Orda–Sprintson-style baseline:
//!
//! * [`min_mean_cycle`] — Karp's `O(nm)` dynamic program.
//! * [`min_ratio_cycle`] — Dinkelbach iteration over exact rationals,
//!   minimizing `Σ num / Σ den` over cycles with `Σ den > 0` (per-edge
//!   `den ≥ 0` required); cycles with `Σ den = 0` and `Σ num < 0` are
//!   "infinitely good" and returned immediately.

use crate::bellman_ford::find_negative_cycle;
use krsp_graph::{DiGraph, EdgeId};
use krsp_numeric::Rat;

/// A cycle together with its numerator/denominator sums.
#[derive(Clone, Debug)]
pub struct RatioCycle {
    /// Contiguous closed edge list.
    pub edges: Vec<EdgeId>,
    /// `Σ num(e)` over the cycle.
    pub num: i64,
    /// `Σ den(e)` over the cycle (`≥ 0`; `0` means infinitely good).
    pub den: i64,
}

impl RatioCycle {
    /// The ratio as an exact rational; `None` when `den == 0`.
    #[must_use]
    pub fn ratio(&self) -> Option<Rat> {
        (self.den != 0).then(|| Rat::new(self.num as i128, self.den as i128))
    }
}

/// Karp's minimum mean cycle. Returns `(mean, cycle_edges)` or `None` for
/// acyclic graphs.
#[must_use]
pub fn min_mean_cycle(
    graph: &DiGraph,
    weight: impl Fn(EdgeId) -> i64,
) -> Option<(Rat, Vec<EdgeId>)> {
    let n = graph.node_count();
    if n == 0 || graph.edge_count() == 0 {
        return None;
    }
    // dp[k][v] = min weight of a k-edge walk ending at v (from any start),
    // realized by initializing dp[0][v] = 0 for all v.
    let mut dp = vec![vec![None::<i64>; n]; n + 1];
    #[allow(clippy::needless_range_loop)] // dp[0] init; iterator form obscures it
    for v in 0..n {
        dp[0][v] = Some(0);
    }
    for k in 1..=n {
        for (id, e) in graph.edge_iter() {
            if let Some(du) = dp[k - 1][e.src.index()] {
                let cand = du
                    .checked_add(weight(id))
                    .expect("min_mean_cycle weight overflow");
                if dp[k][e.dst.index()].is_none_or(|dv| cand < dv) {
                    dp[k][e.dst.index()] = Some(cand);
                }
            }
        }
    }

    // mean* = min_v max_{0<=k<n, dp[k][v] defined} (dp[n][v]-dp[k][v])/(n-k)
    let mut best: Option<(Rat, usize)> = None;
    #[allow(clippy::needless_range_loop)] // rows dp[n] and dp[k] indexed jointly
    for v in 0..n {
        let Some(dn) = dp[n][v] else { continue };
        let mut worst: Option<Rat> = None;
        #[allow(clippy::needless_range_loop)]
        for k in 0..n {
            if let Some(dk) = dp[k][v] {
                let val = Rat::new((dn - dk) as i128, (n - k) as i128);
                worst = Some(worst.map_or(val, |w: Rat| w.max(val)));
            }
        }
        if let Some(w) = worst {
            if best.as_ref().is_none_or(|(b, _)| w < *b) {
                best = Some((w, v));
            }
        }
    }
    let (mean, _) = best?;

    // Extraction: with mean* = p/q known, reweight every edge to
    // `(q·w(e) − p, −1)` lexicographically. No cycle is negative in the
    // primary component (mean* is minimal), and a minimum-mean cycle has
    // primary total exactly 0 and secondary total −len < 0 — i.e. it is
    // precisely a lex-negative cycle. This is exact and avoids the classic
    // pitfalls of walking Karp's DP parents.
    let (p, q) = (mean.num(), mean.den());
    let cycle = find_negative_cycle(graph, |e| {
        krsp_numeric::Lex2::new(
            (q * weight(e) as i128)
                .checked_sub(p)
                .expect("min-mean reweight overflow"),
            -1,
        )
    })
    .expect("a minimum-mean cycle exists by construction");
    debug_assert_eq!(
        {
            let total: i64 = cycle.iter().map(|&e| weight(e)).sum();
            Rat::new(total as i128, cycle.len() as i128)
        },
        mean
    );
    Some((mean, cycle))
}

/// Minimum ratio cycle via Dinkelbach iteration.
///
/// Minimizes `Σ num(e) / Σ den(e)` over directed cycles with `Σ den > 0`.
/// Requires `den(e) ≥ 0` for every edge (asserted). If a cycle with
/// `Σ den = 0` and `Σ num < 0` is encountered it is returned immediately
/// (`den == 0` in the result — "infinitely good").
#[must_use]
pub fn min_ratio_cycle(
    graph: &DiGraph,
    num: impl Fn(EdgeId) -> i64,
    den: impl Fn(EdgeId) -> i64,
) -> Option<RatioCycle> {
    for (id, _) in graph.edge_iter() {
        assert!(den(id) >= 0, "min_ratio_cycle requires den(e) >= 0");
    }
    let sums = |edges: &[EdgeId]| -> (i64, i64) {
        (
            edges.iter().map(|&e| num(e)).sum(),
            edges.iter().map(|&e| den(e)).sum(),
        )
    };

    // Bootstrap probe at μ larger than any achievable ratio.
    let mu_max = graph
        .edge_iter()
        .map(|(id, _)| num(id).abs())
        .sum::<i64>()
        .saturating_add(1);
    let probe = |mu: Rat| -> Option<Vec<EdgeId>> {
        let (p, q) = (mu.num(), mu.den());
        find_negative_cycle(graph, |e| {
            (q * num(e) as i128)
                .checked_sub(p * den(e) as i128)
                .expect("ratio probe overflow")
        })
    };

    let mut current = probe(Rat::int(mu_max as i128))?;
    loop {
        let (nsum, dsum) = sums(&current);
        if dsum == 0 {
            debug_assert!(nsum < 0);
            return Some(RatioCycle {
                edges: current,
                num: nsum,
                den: 0,
            });
        }
        let mu = Rat::new(nsum as i128, dsum as i128);
        match probe(mu) {
            Some(better) => current = better,
            None => {
                return Some(RatioCycle {
                    edges: current,
                    num: nsum,
                    den: dsum,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn simple_min_mean() {
        // Cycle A: 0→1→0 weights 2,2 → mean 2.
        // Cycle B: 2→3→2 weights 1,-3 → mean -1.
        let g = DiGraph::from_edges(
            4,
            &[(0, 1, 2, 0), (1, 0, 2, 0), (2, 3, 1, 0), (3, 2, -3, 0)],
        );
        let (mean, cyc) = min_mean_cycle(&g, |e| g.edge(e).cost).unwrap();
        assert_eq!(mean, Rat::int(-1));
        let total: i64 = cyc.iter().map(|&e| g.edge(e).cost).sum();
        assert_eq!(Rat::new(total as i128, cyc.len() as i128), Rat::int(-1));
    }

    #[test]
    fn acyclic_returns_none() {
        let g = DiGraph::from_edges(3, &[(0, 1, 1, 0), (1, 2, 1, 0)]);
        assert!(min_mean_cycle(&g, |e| g.edge(e).cost).is_none());
    }

    #[test]
    fn self_loop_mean() {
        let g = DiGraph::from_edges(2, &[(0, 0, 5, 0), (0, 1, 1, 0)]);
        let (mean, cyc) = min_mean_cycle(&g, |e| g.edge(e).cost).unwrap();
        assert_eq!(mean, Rat::int(5));
        assert_eq!(cyc, vec![EdgeId(0)]);
    }

    #[test]
    fn ratio_cycle_picks_best() {
        // Cycle A: num -4, den 4 → ratio -1.
        // Cycle B: num -6, den 2 → ratio -3 (better).
        let g = DiGraph::from_edges(
            4,
            &[
                (0, 1, -4, 2), // num=cost, den=delay here
                (1, 0, 0, 2),
                (2, 3, -6, 1),
                (3, 2, 0, 1),
            ],
        );
        let rc = min_ratio_cycle(&g, |e| g.edge(e).cost, |e| g.edge(e).delay).unwrap();
        assert_eq!(rc.ratio(), Some(Rat::int(-3)));
    }

    #[test]
    fn ratio_cycle_zero_denominator_preferred() {
        let g = DiGraph::from_edges(
            2,
            &[(0, 1, -1, 0), (1, 0, 0, 0)], // Σnum=-1, Σden=0
        );
        let rc = min_ratio_cycle(&g, |e| g.edge(e).cost, |e| g.edge(e).delay).unwrap();
        assert_eq!(rc.den, 0);
        assert!(rc.num < 0);
    }

    #[test]
    fn ratio_none_without_cycles() {
        let g = DiGraph::from_edges(3, &[(0, 1, -5, 1), (1, 2, -5, 1)]);
        assert!(min_ratio_cycle(&g, |e| g.edge(e).cost, |e| g.edge(e).delay).is_none());
    }

    #[test]
    fn positive_ratio_cycles_found() {
        // Only cycle has positive ratio 3/2; still returned (it is the min).
        let g = DiGraph::from_edges(2, &[(0, 1, 1, 1), (1, 0, 2, 1)]);
        let rc = min_ratio_cycle(&g, |e| g.edge(e).cost, |e| g.edge(e).delay).unwrap();
        assert_eq!(rc.ratio(), Some(Rat::new(3, 2)));
    }

    fn random_graph(edges: &[(u32, u32, i64)]) -> DiGraph {
        DiGraph::from_edges(
            6,
            &edges
                .iter()
                .map(|&(u, v, c)| (u, v, c, 1))
                .collect::<Vec<_>>(),
        )
    }

    /// Exhaustive minimum mean over all simple cycles (DFS enumeration).
    fn brute_min_mean(g: &DiGraph) -> Option<Rat> {
        let n = g.node_count();
        let mut best: Option<Rat> = None;
        // Enumerate simple cycles by DFS from each start node, only visiting
        // nodes > start to avoid duplicates... simpler: allow duplicates.
        fn dfs(
            g: &DiGraph,
            start: usize,
            cur: usize,
            visited: &mut Vec<bool>,
            weight_sum: i64,
            len: usize,
            best: &mut Option<Rat>,
        ) {
            for &e in g.out_edges(krsp_graph::NodeId(cur as u32)) {
                let rec = g.edge(e);
                let v = rec.dst.index();
                let w = weight_sum + rec.cost;
                if v == start {
                    let mean = Rat::new(w as i128, (len + 1) as i128);
                    if best.is_none_or(|b| mean < b) {
                        *best = Some(mean);
                    }
                } else if !visited[v] {
                    visited[v] = true;
                    dfs(g, start, v, visited, w, len + 1, best);
                    visited[v] = false;
                }
            }
        }
        for start in 0..n {
            let mut visited = vec![false; n];
            visited[start] = true;
            dfs(g, start, start, &mut visited, 0, 0, &mut best);
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_karp_matches_brute_force(
            edges in proptest::collection::vec((0u32..6, 0u32..6, -10i64..10), 1..14),
        ) {
            let g = random_graph(&edges);
            let ours = min_mean_cycle(&g, |e| g.edge(e).cost).map(|(m, _)| m);
            let brute = brute_min_mean(&g);
            prop_assert_eq!(ours, brute);
        }

        #[test]
        fn prop_ratio_with_unit_den_matches_mean(
            edges in proptest::collection::vec((0u32..5, 0u32..5, -8i64..8), 1..10),
        ) {
            let g = random_graph(&edges);
            let mean = min_mean_cycle(&g, |e| g.edge(e).cost).map(|(m, _)| m);
            let ratio = min_ratio_cycle(&g, |e| g.edge(e).cost, |_| 1)
                .map(|rc| rc.ratio().unwrap());
            prop_assert_eq!(mean, ratio);
        }
    }
}
