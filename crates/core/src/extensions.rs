//! Extensions beyond the paper's core statement.
//!
//! * [`solve_vertex_disjoint`] — the *vertex*-disjoint variant via the
//!   classical node-splitting transformation (every internal vertex `v`
//!   becomes `v_in → v_out` with a zero-cost zero-delay gate edge; vertex
//!   disjointness in `G` is edge disjointness in the gated graph).
//! * [`solve_qos`] — the paper's §1 reduction from the per-path-bounded
//!   `k` disjoint QoS path problem (Definition 1) to kRSP (Definition 2):
//!   solve with total budget `k·D` and "route the packages via the k paths
//!   according to their urgency priority", i.e. report paths sorted by
//!   delay so urgent traffic takes the fastest path.

use crate::algorithm1::{solve, Config, SolveError, Solved};
use crate::instance::Instance;
use crate::solution::Solution;
use krsp_graph::{DiGraph, EdgeId, EdgeSet, NodeId, Path};

/// Result of the vertex-disjoint solve: a normal [`Solved`] whose solution
/// is expressed back in the original graph.
pub struct VertexDisjointSolved {
    /// Solution on the *original* graph (vertex-disjoint paths).
    pub solution: Solution,
    /// Statistics from the underlying edge-disjoint solve.
    pub stats: crate::algorithm1::RunStats,
}

/// Solves the vertex-disjoint kRSP variant.
///
/// Internal vertices may appear on at most one path; `s` and `t` are
/// naturally shared. Implemented by node splitting + the edge-disjoint
/// solver, then mapping edges back.
pub fn solve_vertex_disjoint(
    inst: &Instance,
    cfg: &Config,
) -> Result<VertexDisjointSolved, SolveError> {
    let n = inst.n();
    // Split graph: node v -> in = 2v, out = 2v+1; gate edge in→out.
    let mut split = DiGraph::new(2 * n);
    // Gate edges come first: gate of v has edge id v.
    for v in 0..n {
        split.add_edge(NodeId(2 * v as u32), NodeId(2 * v as u32 + 1), 0, 0);
    }
    // Original edge e=(u,v) becomes (u_out, v_in) with id n + e.
    for (_, e) in inst.graph.edge_iter() {
        split.add_edge(
            NodeId(2 * e.src.0 + 1),
            NodeId(2 * e.dst.0),
            e.cost,
            e.delay,
        );
    }
    let split_inst = Instance {
        graph: split,
        s: NodeId(2 * inst.s.0 + 1), // depart from s_out
        t: NodeId(2 * inst.t.0),     // arrive at t_in
        ..inst.clone()
    };
    let solved: Solved = solve(&split_inst, cfg)?;

    // Map back: split edge ids ≥ n correspond to original edge id − n.
    let mut edges = EdgeSet::with_capacity(inst.m());
    for e in solved.solution.edges.iter() {
        if e.index() >= n {
            edges.insert(EdgeId((e.index() - n) as u32));
        }
    }
    let mut solution =
        Solution::from_edge_set(inst, edges).expect("split solution maps to a k-flow");
    solution.lower_bound = solved.solution.lower_bound;
    debug_assert!(vertex_disjoint_ok(inst, &solution));
    Ok(VertexDisjointSolved {
        solution,
        stats: solved.stats,
    })
}

/// Checks that no internal vertex is shared between paths.
#[must_use]
pub fn vertex_disjoint_ok(inst: &Instance, sol: &Solution) -> bool {
    let mut used = vec![false; inst.n()];
    for p in sol.paths(inst) {
        for v in p.nodes(&inst.graph) {
            if v == inst.s || v == inst.t {
                continue;
            }
            if used[v.index()] {
                return false;
            }
            used[v.index()] = true;
        }
    }
    true
}

/// The QoS-path reduction of §1: per-path delay target `per_path_bound`
/// becomes a kRSP instance with total budget `k·per_path_bound`; the
/// returned paths are sorted fastest-first ("urgency priority" routing).
pub struct QosSolved {
    /// Paths sorted by increasing delay (fastest first).
    pub paths: Vec<Path>,
    /// Total cost.
    pub cost: i64,
    /// Total delay (`≤ k · per_path_bound`).
    pub total_delay: i64,
    /// How many of the `k` paths individually meet the per-path bound.
    pub paths_meeting_bound: usize,
}

/// Solves the Definition-1 relaxation via kRSP (Definition 2).
pub fn solve_qos(
    inst_graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    k: usize,
    per_path_bound: i64,
    cfg: &Config,
) -> Result<QosSolved, SolveError> {
    let inst = Instance::new(
        inst_graph.clone(),
        s,
        t,
        k,
        per_path_bound.saturating_mul(k as i64),
    )
    .map_err(|_| SolveError::DelayInfeasible)?;
    let solved = solve(&inst, cfg)?;
    let mut paths = solved.solution.paths(&inst);
    paths.sort_by_key(Path::delay);
    let meeting = paths.iter().filter(|p| p.delay() <= per_path_bound).count();
    Ok(QosSolved {
        cost: solved.solution.cost,
        total_delay: solved.solution.delay,
        paths_meeting_bound: meeting,
        paths,
    })
}

/// Verdict of the kBCP solver.
#[derive(Clone, Debug)]
pub enum KbcpOutcome {
    /// A solution meeting **both** budgets exactly.
    Feasible(Solution),
    /// A solution meeting the delay budget with cost ≤ 2·C (kBCP is a
    /// weaker version of kRSP — §1.2 — so the (1, 2) kRSP guarantee
    /// transfers: if a (C, D)-feasible solution exists, the returned cost
    /// is at most 2·C_OPT(D) ≤ 2·C).
    Bifactor(Solution),
    /// Certificate of infeasibility: even the *fractional* optimum under
    /// delay budget `D` costs more than `C` (LP bound exceeds `C`), or no
    /// fractional solution meets `D` at all.
    Infeasible,
}

/// Solves the `k` disjoint bi-constrained path problem (\[12\]): `k` disjoint
/// paths with `Σcost ≤ cost_bound` **and** `Σdelay ≤ delay_bound`.
///
/// Implemented exactly as the paper positions it ("all approximations of
/// kRSP can be adopted to solve kBCP"): run the kRSP solver under the delay
/// budget and compare the resulting cost against `cost_bound`.
pub fn solve_kbcp(
    inst_graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    k: usize,
    cost_bound: i64,
    delay_bound: i64,
    cfg: &Config,
) -> KbcpOutcome {
    let Ok(inst) = Instance::new(inst_graph.clone(), s, t, k, delay_bound) else {
        return KbcpOutcome::Infeasible;
    };
    match solve(&inst, cfg) {
        Err(_) => KbcpOutcome::Infeasible,
        Ok(solved) => {
            let sol = solved.solution;
            if sol.cost <= cost_bound {
                return KbcpOutcome::Feasible(sol);
            }
            // The LP bound certifies infeasibility when it already exceeds C.
            if let Some(lb) = sol.lower_bound {
                if lb > krsp_numeric::Rat::int(cost_bound as i128) {
                    return KbcpOutcome::Infeasible;
                }
            }
            KbcpOutcome::Bifactor(sol)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two edge-disjoint routes share the hub vertex 2; a vertex-disjoint
    /// pair must pay for the bypass.
    fn hub_graph() -> DiGraph {
        DiGraph::from_edges(
            6,
            &[
                (0, 1, 1, 1), // s→a
                (1, 2, 1, 1), // a→hub
                (2, 5, 1, 1), // hub→t
                (0, 3, 1, 1), // s→b
                (3, 2, 1, 1), // b→hub
                (2, 5, 1, 1), // hub→t (parallel)
                (3, 4, 5, 5), // b→c  bypass
                (4, 5, 5, 5), // c→t
            ],
        )
    }

    #[test]
    fn vertex_disjoint_avoids_shared_hub() {
        let inst = Instance::new(hub_graph(), NodeId(0), NodeId(5), 2, 100).unwrap();
        // Edge-disjoint optimum routes both paths through the hub (cost 6).
        let edge_sol = solve(&inst, &Config::default()).unwrap();
        assert_eq!(edge_sol.solution.cost, 6);
        assert!(!vertex_disjoint_ok(&inst, &edge_sol.solution));
        // Vertex-disjoint must take the bypass (cost 1+1+1 + 1+5+5 = 14).
        let v = solve_vertex_disjoint(&inst, &Config::default()).unwrap();
        assert!(vertex_disjoint_ok(&inst, &v.solution));
        assert_eq!(v.solution.cost, 14);
    }

    #[test]
    fn vertex_disjoint_respects_delay_budget() {
        let inst = Instance::new(hub_graph(), NodeId(0), NodeId(5), 2, 14).unwrap();
        let v = solve_vertex_disjoint(&inst, &Config::default()).unwrap();
        assert!(v.solution.delay <= 14);
    }

    #[test]
    fn vertex_disjoint_infeasibility() {
        // Only route to t goes through the hub: k=2 vertex-disjoint
        // impossible.
        let g = DiGraph::from_edges(4, &[(0, 1, 1, 1), (0, 1, 1, 1), (1, 3, 1, 1), (1, 3, 1, 1)]);
        let inst = Instance::new(g, NodeId(0), NodeId(3), 2, 100).unwrap();
        assert!(solve(&inst, &Config::default()).is_ok()); // edge-disjoint OK
        assert!(solve_vertex_disjoint(&inst, &Config::default()).is_err());
    }

    #[test]
    fn kbcp_three_verdicts() {
        // Trade-off diamond: cheap-slow pair (6, 32), fast pair (34, 6),
        // mixes in between.
        let g = DiGraph::from_edges(
            6,
            &[
                (0, 1, 1, 10),
                (1, 5, 1, 10),
                (0, 2, 8, 1),
                (2, 5, 8, 1),
                (0, 3, 2, 6),
                (3, 5, 2, 6),
                (0, 4, 9, 2),
                (4, 5, 9, 2),
            ],
        );
        let cfg = Config::default();
        // Generous both: feasible.
        match solve_kbcp(&g, NodeId(0), NodeId(5), 2, 10, 40, &cfg) {
            KbcpOutcome::Feasible(sol) => {
                assert!(sol.cost <= 10 && sol.delay <= 40);
            }
            other => panic!("expected Feasible, got {other:?}"),
        }
        // Impossible pair: min cost at D=6 is 34 > 10; LP bound certifies.
        match solve_kbcp(&g, NodeId(0), NodeId(5), 2, 10, 6, &cfg) {
            KbcpOutcome::Infeasible => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }
        // Delay impossible outright.
        match solve_kbcp(&g, NodeId(0), NodeId(5), 2, 100, 3, &cfg) {
            KbcpOutcome::Infeasible => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn kbcp_bifactor_band() {
        // Cost bound between C_OPT(D) and the LP bound → Bifactor verdict
        // is allowed; whatever comes back must obey delay and 2·C.
        let g = DiGraph::from_edges(
            6,
            &[
                (0, 1, 1, 10),
                (1, 5, 1, 10),
                (0, 2, 8, 1),
                (2, 5, 8, 1),
                (0, 3, 2, 6),
                (3, 5, 2, 6),
                (0, 4, 9, 2),
                (4, 5, 9, 2),
            ],
        );
        for c_bound in [12i64, 16, 20, 30] {
            match solve_kbcp(&g, NodeId(0), NodeId(5), 2, c_bound, 14, &Config::default()) {
                KbcpOutcome::Feasible(sol) => {
                    assert!(sol.cost <= c_bound && sol.delay <= 14);
                }
                KbcpOutcome::Bifactor(sol) => {
                    assert!(sol.delay <= 14);
                    assert!(sol.cost <= 2 * c_bound);
                }
                KbcpOutcome::Infeasible => {
                    // Must genuinely be infeasible at (c_bound, 14).
                    let inst = Instance::new(g.clone(), NodeId(0), NodeId(5), 2, 14).unwrap();
                    let opt = crate::exact::brute_force(&inst).unwrap();
                    assert!(opt.cost > c_bound, "false infeasibility at C={c_bound}");
                }
            }
        }
    }

    #[test]
    fn qos_sorts_paths_by_delay() {
        let g = DiGraph::from_edges(
            4,
            &[
                (0, 1, 1, 9),
                (1, 3, 1, 9), // slow pair
                (0, 2, 5, 1),
                (2, 3, 5, 1), // fast pair
            ],
        );
        let out = solve_qos(&g, NodeId(0), NodeId(3), 2, 10, &Config::default()).unwrap();
        assert_eq!(out.paths.len(), 2);
        assert!(out.paths[0].delay() <= out.paths[1].delay());
        assert!(out.total_delay <= 20);
        assert!(out.paths_meeting_bound >= 1);
    }
}
