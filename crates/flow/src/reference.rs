//! Pre-rewrite kernels, kept verbatim as oracles.
//!
//! This module preserves four implementations exactly as they stood before
//! their rewrites:
//!
//! * the original 2-D `Option`-table budgeted DP and the FPTAS built on it,
//!   from before the flat and then sparse rewrites in [`crate::csp`];
//! * that FPTAS's threshold search (`threshold_search`): a full Dijkstra
//!   with sentinel weights per threshold, over every distinct edge cost,
//!   from before [`crate::csp::threshold_search`] pruned and reused one
//!   scratch;
//! * the textbook Bellman–Ford engine, which runs all n rounds and only
//!   then walks back from the last node relaxed, from before
//!   [`crate::bellman_ford`](mod@crate::bellman_ford) learned to stop at
//!   the first predecessor cycle;
//! * the min-cost flow that runs a Bellman–Ford over the residual network
//!   for every augmentation, from before [`crate::mcf`] became
//!   Dijkstra-only; it accepts negative weights.
//!
//! It exists for two reasons:
//!
//! 1. **Oracle testing** — the property suites pin the rewrites to these
//!    implementations: identical values, identical tie-breaking, identical
//!    recovered paths on random instances for the DP; the same `c*` and
//!    witness path for the threshold search; the same cycle
//!    verdict, and identical `dist`/`pred` when there is no cycle, for
//!    Bellman–Ford; the same optimal total weight for the min-cost flow.
//! 2. **A/B benchmarking** — `BENCH_kernels.json` tracks the speedup of
//!    each rewrite against this baseline on the same instances.
//!
//! Do not "improve" this module: its value is that it does not change.

#![doc(hidden)]

use crate::bellman_ford::BfResult;
use crate::csp::{geometric_midpoint, CspPath};
use crate::dijkstra::dijkstra;
use crate::mcf::McfFlow;
use crate::weight::Weight;
use krsp_graph::{DiGraph, EdgeId, EdgeSet, NodeId};

/// Budgeted DP tables in the original 2-D `Option` layout:
/// `value[b][v]` = minimum objective over `s→v` walks with `Σ budget ≤ b`.
pub struct BudgetDp {
    /// `value[b][v]`, `None` = unreachable at that level.
    pub value: Vec<Vec<Option<i64>>>,
    /// `parent[b][v] = (edge, b_prev)` on the optimal walk.
    pub parent: Vec<Vec<Option<(EdgeId, usize)>>>,
}

/// The original budgeted DP: per-level allocation, level cloning, `&dyn Fn`
/// weight dispatch, and a full-graph heap rebuild for every budget level.
pub fn budget_dp(
    graph: &DiGraph,
    s: NodeId,
    bound: usize,
    budget_of: &dyn Fn(EdgeId) -> i64,
    objective_of: &dyn Fn(EdgeId) -> i64,
) -> BudgetDp {
    let n = graph.node_count();
    for (id, _) in graph.edge_iter() {
        assert!(budget_of(id) >= 0, "budgets must be nonnegative");
        assert!(objective_of(id) >= 0, "objectives must be nonnegative");
    }
    let mut value: Vec<Vec<Option<i64>>> = Vec::with_capacity(bound + 1);
    let mut parent: Vec<Vec<Option<(EdgeId, usize)>>> = Vec::with_capacity(bound + 1);

    for b in 0..=bound {
        // Initialize from carry-over and cross-level transitions.
        let mut val: Vec<Option<i64>> = if b == 0 {
            vec![None; n]
        } else {
            value[b - 1].clone()
        };
        let mut par: Vec<Option<(EdgeId, usize)>> = vec![None; n];
        val[s.index()] = Some(0);
        for (id, e) in graph.edge_iter() {
            let be = budget_of(id) as usize;
            if be >= 1 && be <= b {
                if let Some(vu) = value[b - be][e.src.index()] {
                    let cand = vu + objective_of(id);
                    if val[e.dst.index()].is_none_or(|x| cand < x) {
                        val[e.dst.index()] = Some(cand);
                        par[e.dst.index()] = Some((id, b - be));
                    }
                }
            }
        }
        // Within-level relaxation over zero-budget edges (Dijkstra flavor:
        // repeatedly settle the smallest tentative value).
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(i64, u32)>> = val
            .iter()
            .enumerate()
            .filter_map(|(v, x)| x.map(|x| std::cmp::Reverse((x, v as u32))))
            .collect();
        let mut done = vec![false; n];
        while let Some(std::cmp::Reverse((dv, v))) = heap.pop() {
            let v = NodeId(v);
            if done[v.index()] || val[v.index()] != Some(dv) {
                continue;
            }
            done[v.index()] = true;
            for &e in graph.out_edges(v) {
                if budget_of(e) == 0 {
                    let u = graph.edge(e).dst;
                    let cand = dv + objective_of(e);
                    if val[u.index()].is_none_or(|x| cand < x) {
                        val[u.index()] = Some(cand);
                        par[u.index()] = Some((e, b));
                        heap.push(std::cmp::Reverse((cand, u.0)));
                    }
                }
            }
        }
        value.push(val);
        parent.push(par);
    }
    BudgetDp { value, parent }
}

/// Path reconstruction over the original tables.
pub fn recover(dp: &BudgetDp, graph: &DiGraph, s: NodeId, t: NodeId, mut b: usize) -> Vec<EdgeId> {
    let mut edges = Vec::new();
    let mut v = t;
    let mut guard = 0usize;
    while v != s {
        // Drop to the lowest level with the same value (carried entries have
        // no parent at this level).
        while b > 0 && dp.value[b - 1][v.index()] == dp.value[b][v.index()] {
            b -= 1;
        }
        let (e, bp) = dp.parent[b][v.index()].expect("dp parent chain intact");
        edges.push(e);
        v = graph.edge(e).src;
        b = bp;
        guard += 1;
        assert!(
            guard <= graph.edge_count() + dp.value.len(),
            "dp path recovery loop"
        );
    }
    edges.reverse();
    edges
}

/// The original exact restricted shortest path on the 2-D tables.
#[must_use]
pub fn constrained_shortest_path(
    graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    delay_bound: i64,
) -> Option<CspPath> {
    assert!(delay_bound >= 0);
    let dp = budget_dp(
        graph,
        s,
        delay_bound as usize,
        &|e| graph.edge(e).delay,
        &|e| graph.edge(e).cost,
    );
    dp.value[delay_bound as usize][t.index()]?;
    let edges = recover(&dp, graph, s, t, delay_bound as usize);
    let p = CspPath::from_edges(graph, edges);
    debug_assert!(p.delay <= delay_bound);
    Some(p)
}

/// The original threshold Dijkstra: the min-delay `s→t` path over the
/// edges of cost ≤ `threshold`, found by a full Dijkstra that gives every
/// other edge a sentinel weight above any real path delay and the bound;
/// `None` when its delay exceeds `delay_bound`.
#[must_use]
pub(crate) fn threshold_witness(
    graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    delay_bound: i64,
    threshold: i64,
) -> Option<Vec<EdgeId>> {
    let sentinel = graph.total_delay().max(delay_bound).saturating_add(1);
    let (dist, pred) = dijkstra(graph, s, |e| {
        if graph.edge(e).cost <= threshold {
            graph.edge(e).delay
        } else {
            sentinel
        }
    });
    match dist[t.index()] {
        Some(d) if d <= delay_bound => crate::dijkstra::path_to(graph, &dist, &pred, t),
        _ => None,
    }
}

/// The original threshold search: a full threshold Dijkstra at the
/// largest edge cost, a binary search over every distinct edge cost (and
/// 0) for the smallest feasible threshold `c*`, and the threshold
/// Dijkstra's path at `c*`. `None` when no path meets the bound.
#[must_use]
pub fn threshold_search(
    graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    delay_bound: i64,
) -> Option<(i64, CspPath)> {
    let feasible = |threshold: i64| threshold_witness(graph, s, t, delay_bound, threshold);
    let mut costs: Vec<i64> = graph.edges().iter().map(|e| e.cost).collect();
    costs.push(0);
    costs.sort_unstable();
    costs.dedup();
    feasible(*costs.last().unwrap())?;
    let mut lo = 0usize;
    let mut hi = costs.len() - 1;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if feasible(costs[mid]).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let witness = feasible(costs[lo]).expect("threshold c* is feasible by construction");
    Some((costs[lo], CspPath::from_edges(graph, witness)))
}

/// The original Lorenz–Raz FPTAS driving the 2-D DP.
#[must_use]
pub fn rsp_fptas(
    graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    delay_bound: i64,
    eps_num: u32,
    eps_den: u32,
) -> Option<CspPath> {
    assert!(eps_num > 0 && eps_den > 0, "epsilon must be positive");
    assert!(delay_bound >= 0);
    let n = graph.node_count() as i64;

    // Feasibility + bottleneck bounds: the smallest edge-cost threshold c*
    // whose subgraph contains a delay-feasible path gives OPT ∈ [c*, n·c*].
    let (cstar, witness) = threshold_search(graph, s, t, delay_bound)?;
    if cstar == 0 {
        // A zero-cost feasible path exists: the min-delay path over
        // zero-cost edges is optimal.
        debug_assert_eq!(witness.cost, 0);
        return Some(witness);
    }
    let mut lb = cstar; // OPT ≥ lb
    let mut ub = n * cstar; // a feasible path of cost ≤ ub exists

    // Scaled test: does a delay-feasible path of cost ≤ c(1+ε0) exist?
    let test = |c: i64| -> Option<CspPath> {
        let theta_num = c;
        let theta_den = n + 1;
        let scaled = |e: EdgeId| -> i64 { graph.edge(e).cost * theta_den / theta_num };
        let budget = (n + 1) as usize; // floor(c/θ) = n+1
        let dp = budget_dp(
            graph,
            s,
            budget,
            &|e| scaled(e).min(budget as i64 + 1),
            &|e| graph.edge(e).delay,
        );
        let b = (0..=budget).find(|&b| dp.value[b][t.index()].is_some_and(|d| d <= delay_bound))?;
        let edges = recover(&dp, graph, s, t, b);
        Some(CspPath::from_edges(graph, edges))
    };

    // Geometric shrink until ub ≤ 4·lb.
    while ub > 4 * lb {
        let c = geometric_midpoint(lb, ub);
        match test(c) {
            Some(p) => {
                debug_assert!(p.cost <= 2 * c, "test contract: cost ≤ (1+ε₀)·c");
                ub = ub.min((2 * c).max(lb));
            }
            None => {
                lb = c + 1;
            }
        }
        debug_assert!(lb <= ub);
    }

    // Final scaled DP with target ε.
    let denom = lb as i128 * eps_num as i128;
    let scaled = |e: EdgeId| -> i64 {
        ((graph.edge(e).cost as i128 * (n as i128 + 1) * eps_den as i128) / denom) as i64
    };
    let budget = ((ub as i128 * (n as i128 + 1) * eps_den as i128) / denom + n as i128 + 1)
        .min(i128::from(u32::MAX)) as usize;
    let dp = budget_dp(
        graph,
        s,
        budget,
        &|e| scaled(e).min(budget as i64 + 1),
        &|e| graph.edge(e).delay,
    );
    let b = (0..=budget).find(|&b| dp.value[b][t.index()].is_some_and(|d| d <= delay_bound))?;
    let edges = recover(&dp, graph, s, t, b);
    let p = CspPath::from_edges(graph, edges);
    debug_assert!(p.delay <= delay_bound);
    Some(p)
}

/// The textbook Bellman–Ford run from `sources`: up to n full rounds, then,
/// if round n still relaxed an edge, one walk back from the last node it
/// relaxed to extract the negative cycle. Buffers are allocated per call.
pub fn bellman_ford<W: Weight>(
    graph: &DiGraph,
    sources: impl Iterator<Item = NodeId>,
    weight: impl Fn(EdgeId) -> W,
) -> BfResult<W> {
    let n = graph.node_count();
    let mut dist: Vec<Option<W>> = vec![None; n];
    let mut pred: Vec<Option<EdgeId>> = vec![None; n];
    for s in sources {
        dist[s.index()] = Some(W::ZERO);
    }

    let mut last_relaxed: Option<NodeId> = None;
    for round in 0..n {
        last_relaxed = None;
        for (id, e) in graph.edge_iter() {
            let Some(du) = dist[e.src.index()] else {
                continue;
            };
            let cand = du.add_checked(weight(id));
            let better = match dist[e.dst.index()] {
                None => true,
                Some(dv) => cand < dv,
            };
            if better {
                dist[e.dst.index()] = Some(cand);
                pred[e.dst.index()] = Some(id);
                last_relaxed = Some(e.dst);
            }
        }
        if last_relaxed.is_none() {
            break;
        }
        let _ = round;
    }

    let Some(start) = last_relaxed else {
        return BfResult {
            dist,
            pred,
            negative_cycle: None,
        };
    };
    // Walk the predecessor graph backwards from the just-relaxed node until
    // a node repeats; the edges between the two occurrences form a cycle,
    // and every cycle in the predecessor graph at this point has negative
    // weight (standard Bellman–Ford argument).
    let mut order = vec![usize::MAX; n];
    let mut back_edges = Vec::new();
    let mut cur = start;
    order[cur.index()] = 0;
    loop {
        let e = pred[cur.index()].expect("pred chain from a round-n relaxation cannot terminate");
        back_edges.push(e);
        cur = graph.edge(e).src;
        if order[cur.index()] != usize::MAX {
            // Entered the cycle: edges from position `order[cur]` up to
            // here (in backward orientation) close it. Drop the approach
            // prefix in place and flip to forward orientation — no copy.
            let from = order[cur.index()];
            back_edges.drain(..from);
            back_edges.reverse();
            return BfResult {
                dist,
                pred,
                negative_cycle: Some(back_edges),
            };
        }
        order[cur.index()] = back_edges.len();
        assert!(
            back_edges.len() <= n,
            "predecessor walk exceeded node count without cycling"
        );
    }
}

/// The Bellman–Ford-per-augmentation min-cost flow.
///
/// Computes a minimum-weight flow of value exactly `k` from `s` to `t` with
/// unit capacity on every edge. Returns `None` if fewer than `k` disjoint
/// paths exist.
///
/// Requirement: `graph` has no negative-weight cycle under `weight`
/// (debug-asserted).
pub fn min_cost_k_flow<W: Weight>(
    graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    k: usize,
    weight: impl Fn(EdgeId) -> W,
) -> Option<McfFlow<W>> {
    assert_ne!(s, t, "source and sink must differ");
    debug_assert!(
        crate::bellman_ford::find_negative_cycle(graph, &weight).is_none(),
        "min_cost_k_flow requires a graph without negative-weight cycles"
    );

    let m = graph.edge_count();
    // flow[e] = true iff edge e currently carries a unit.
    let mut flow = vec![false; m];

    for _round in 0..k {
        // Bellman–Ford over the residual network: forward arcs for unused
        // edges (weight w), backward arcs for used edges (weight -w).
        let n = graph.node_count();
        let mut dist: Vec<Option<W>> = vec![None; n];
        // pred[v] = (edge, is_backward)
        let mut pred: Vec<Option<(EdgeId, bool)>> = vec![None; n];
        dist[s.index()] = Some(W::ZERO);
        for _ in 0..n {
            let mut changed = false;
            for (id, e) in graph.edge_iter() {
                if !flow[id.index()] {
                    if let Some(du) = dist[e.src.index()] {
                        let cand = du.add_checked(weight(id));
                        if dist[e.dst.index()].is_none_or(|dv| cand < dv) {
                            dist[e.dst.index()] = Some(cand);
                            pred[e.dst.index()] = Some((id, false));
                            changed = true;
                        }
                    }
                } else if let Some(dv) = dist[e.dst.index()] {
                    let cand = dv.add_checked(-weight(id));
                    if dist[e.src.index()].is_none_or(|du| cand < du) {
                        dist[e.src.index()] = Some(cand);
                        pred[e.src.index()] = Some((id, true));
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        dist[t.index()]?;
        // Augment one unit along the shortest path.
        let mut cur = t;
        let mut steps = 0;
        while cur != s {
            let (e, backward) = pred[cur.index()].expect("path reconstruction");
            if backward {
                flow[e.index()] = false;
                cur = graph.edge(e).dst;
            } else {
                flow[e.index()] = true;
                cur = graph.edge(e).src;
            }
            steps += 1;
            assert!(steps <= 2 * m + 1, "augmenting path reconstruction loop");
        }
    }

    let mut edges = EdgeSet::with_capacity(m);
    let mut total = W::ZERO;
    for (i, &f) in flow.iter().enumerate() {
        if f {
            let id = EdgeId(i as u32);
            edges.insert(id);
            total = total.add_checked(weight(id));
        }
    }
    debug_assert!(edges.is_k_flow(graph, s, t, k));
    Some(McfFlow {
        edges,
        weight: total,
        value: k,
    })
}
