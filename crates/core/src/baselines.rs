//! Baseline algorithms the paper compares against (Related Work, §1.2/§2.1).
//!
//! * [`min_sum`] — Suurballe-style minimum-cost `k` disjoint paths, delay
//!   oblivious ([20, 21]; the polynomially solvable special case).
//! * [`min_delay`] — minimum-delay `k` disjoint paths (the feasibility
//!   certificate; also the urgency-routing strawman).
//! * [`greedy_rsp`] — sequential restricted shortest paths with per-path
//!   budget `D/k` (the folklore heuristic; incomplete by design — it can
//!   report infeasible on feasible instances).
//! * [`orda_sprintson`] — the paper's characterization of \[18\]: cycle
//!   cancellation in a residual graph whose *reversed edges keep cost 0*
//!   (so costs stay nonnegative) driven by minimum-ratio cycles.
//! * [`lp_rounding_only`] — phase 1 alone, i.e. reference \[9\]'s `(2, 2)`.

use crate::instance::Instance;
use crate::phase1::{self, Phase1Backend};
use crate::solution::Solution;
use krsp_flow::karp::min_ratio_cycle;
use krsp_flow::{kernel, min_cost_k_flow_lex, DpScratch, KernelKind};
use krsp_graph::{DiGraph, EdgeId, EdgeSet, ResidualGraph};
use krsp_numeric::Lex2;

/// Minimum-cost `k` disjoint paths, ignoring delay entirely.
///
/// ```
/// use krsp::{baselines, Instance};
/// use krsp_graph::{DiGraph, NodeId};
///
/// let g = DiGraph::from_edges(4, &[
///     (0, 1, 1, 9), (1, 3, 1, 9),   // cheap but slow
///     (0, 2, 5, 1), (2, 3, 5, 1),   // fast but pricey
/// ]);
/// let inst = Instance::new(g, NodeId(0), NodeId(3), 2, 4).unwrap();
/// let sol = baselines::min_sum(&inst).unwrap();
/// assert_eq!(sol.cost, 12);          // both pairs must be used for k=2
/// assert!(sol.delay > inst.delay_bound); // …and the budget is ignored
/// ```
#[must_use]
pub fn min_sum(inst: &Instance) -> Option<Solution> {
    let f = min_cost_k_flow_lex(&inst.graph, inst.s, inst.t, inst.k, |e: EdgeId| {
        let r = inst.graph.edge(e);
        Lex2::new(r.cost as i128, r.delay as i128)
    })?;
    Solution::from_edge_set(inst, f.edges)
}

/// Minimum-delay `k` disjoint paths (ties broken by cost).
#[must_use]
pub fn min_delay(inst: &Instance) -> Option<Solution> {
    let f = min_cost_k_flow_lex(&inst.graph, inst.s, inst.t, inst.k, |e: EdgeId| {
        let r = inst.graph.edge(e);
        Lex2::new(r.delay as i128, r.cost as i128)
    })?;
    Solution::from_edge_set(inst, f.edges)
}

/// Sequential restricted-shortest-path heuristic: route one path at a time
/// with budget `⌊D/k⌋` each (FPTAS with `ε = 1/4` per path), deleting used
/// edges. Returns `None` when any stage fails — which can happen on
/// feasible instances (the heuristic is incomplete; that incompleteness is
/// one of the experiment axes).
#[must_use]
pub fn greedy_rsp(inst: &Instance) -> Option<Solution> {
    greedy_rsp_with_kernel(inst, KernelKind::Classic)
}

/// [`greedy_rsp`] with an explicit [RSP kernel](krsp_flow::RspKernel)
/// backend for the per-path FPTAS stages. `KernelKind::Classic` reproduces
/// [`greedy_rsp`] bit-for-bit; `KernelKind::Interval` gives the same
/// per-path `(1+1/4)` guarantee through the interval-scaling scheme (the
/// stages may pick different — equally certified — paths).
#[must_use]
pub fn greedy_rsp_with_kernel(inst: &Instance, kind: KernelKind) -> Option<Solution> {
    let rsp = kernel(kind);
    let per_path = inst.delay_bound / inst.k as i64;
    let mut remaining = inst.graph.clone();
    let mut chosen: Vec<EdgeId> = Vec::new();
    // Map from the shrinking graph's edges back to original ids.
    let mut back: Vec<EdgeId> = (0..inst.m()).map(|i| EdgeId(i as u32)).collect();
    // One DP arena for all k FPTAS stages.
    let mut scratch = DpScratch::new();
    for _ in 0..inst.k {
        let p = rsp
            .solve_with(&remaining, inst.s, inst.t, per_path, 1, 4, &mut scratch)
            .expect("1/4 is a valid epsilon")?;
        let used: std::collections::HashSet<EdgeId> = p.edges.iter().copied().collect();
        for &e in &p.edges {
            chosen.push(back[e.index()]);
        }
        // Rebuild the graph without the used edges.
        let mut next = DiGraph::new(remaining.node_count());
        let mut next_back = Vec::new();
        for (id, e) in remaining.edge_iter() {
            if !used.contains(&id) {
                next.add_edge(e.src, e.dst, e.cost, e.delay);
                next_back.push(back[id.index()]);
            }
        }
        remaining = next;
        back = next_back;
    }
    let set = EdgeSet::from_edges(inst.m(), &chosen);
    let sol = Solution::from_edge_set(inst, set)?;
    sol.is_delay_feasible(inst).then_some(sol)
}

/// The Orda–Sprintson-style baseline as described in §2.1: start from the
/// min-sum solution; build a residual graph whose reversed edges carry
/// **cost 0** (delay still negated); repeatedly cancel the minimum-ratio
/// cycle `argmin d(O)/c(O)` (computed via Dinkelbach over exact rationals)
/// until the delay budget holds or no delay-reducing cycle remains.
#[must_use]
pub fn orda_sprintson(inst: &Instance) -> Option<Solution> {
    let mut sol = min_sum(inst)?;
    let mut guard = 0usize;
    while sol.delay > inst.delay_bound {
        guard += 1;
        if guard > (inst.graph.total_delay().max(1)) as usize + inst.m() + 8 {
            break; // safety valve; each cycle reduces delay by ≥ 1
        }
        let mut residual = ResidualGraph::build(&inst.graph, &sol.edges);
        let rg = residual.graph();
        // Their weight model: reversed edges cost 0 (costs stay ≥ 0).
        let cost0 = |e: EdgeId| -> i64 {
            if residual.origin(e).is_reverse() {
                0
            } else {
                rg.edge(e).cost
            }
        };
        let delay_of = |e: EdgeId| rg.edge(e).delay;
        let rc = min_ratio_cycle(rg, delay_of, cost0)?;
        if rc.num >= 0 {
            break; // no delay-reducing cycle left
        }
        // Split into simple cycles, apply the most delay-reducing one.
        let pieces = krsp_graph::split_closed_walk(rg, &rc.edges);
        let best = pieces.into_iter().min_by_key(|p| residual.delay_of(p))?;
        if residual.delay_of(&best) >= 0 {
            break;
        }
        let mut edges = sol.edges.clone();
        residual.apply(&mut edges, &best);
        sol = Solution::from_edge_set(inst, edges)?;
    }
    sol.is_delay_feasible(inst).then_some(sol)
}

/// Practitioner's favourite: enumerate the `K` cheapest simple paths with
/// Yen's algorithm, then greedily scan the ranking for `k` edge-disjoint
/// paths whose total delay fits the budget. Incomplete *and* suboptimal by
/// design (the pool may not contain a disjoint feasible combination at
/// all), but very common in deployed QoS routers — the experiments measure
/// exactly how much it gives away.
#[must_use]
pub fn yen_disjoint(inst: &Instance, pool: usize) -> Option<Solution> {
    let paths = krsp_flow::k_shortest_paths(&inst.graph, inst.s, inst.t, pool, |e| {
        inst.graph.edge(e).cost
    });
    // Greedy scan in cost order; take a path whenever it is edge-disjoint
    // from what we already hold and keeps a feasible delay trajectory.
    let mut used = EdgeSet::with_capacity(inst.m());
    let mut delay = 0i64;
    let mut taken = 0usize;
    for p in &paths {
        if taken == inst.k {
            break;
        }
        if p.edges.iter().any(|&e| used.contains(e)) {
            continue;
        }
        let pd: i64 = p.edges.iter().map(|&e| inst.graph.edge(e).delay).sum();
        if delay + pd > inst.delay_bound {
            continue;
        }
        for &e in &p.edges {
            used.insert(e);
        }
        delay += pd;
        taken += 1;
    }
    if taken < inst.k {
        return None;
    }
    let sol = Solution::from_edge_set(inst, used)?;
    sol.is_delay_feasible(inst).then_some(sol)
}

/// The Min–Max relative (\[16\], §1.2): `k` disjoint paths minimizing the
/// *longest* path's delay. NP-complete; the classical 2-approximation
/// (\[16\] via \[20, 21\]) returns the min-(total-delay) disjoint paths — the
/// longest of which is within 2× of the optimal longest path for `k = 2`.
///
/// Returns `(solution, longest_path_delay)`.
#[must_use]
pub fn min_max_2approx(inst: &Instance) -> Option<(Solution, i64)> {
    let sol = min_delay(inst)?;
    let longest = sol
        .paths(inst)
        .iter()
        .map(krsp_graph::Path::delay)
        .max()
        .unwrap_or(0);
    Some((sol, longest))
}

/// Reference \[9\] alone: the phase-1 `(2, 2)` LP rounding, reported as-is
/// (its delay may exceed `D` by up to 2×; that is the point of phase 2).
#[must_use]
pub fn lp_rounding_only(inst: &Instance) -> Option<Solution> {
    let p1 = phase1::run(inst, Phase1Backend::Lagrangian).ok()?;
    let mut sol = Solution::from_edge_set(inst, p1.flow)?;
    sol.lower_bound = Some(p1.lp_bound);
    Some(sol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use krsp_graph::NodeId;

    fn tradeoff(d_bound: i64) -> Instance {
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
        Instance::new(g, NodeId(0), NodeId(5), 2, d_bound).unwrap()
    }

    #[test]
    fn min_sum_ignores_delay() {
        let inst = tradeoff(6);
        let sol = min_sum(&inst).unwrap();
        assert_eq!(sol.cost, 6); // cheap + middle
        assert_eq!(sol.delay, 32); // way over budget — by design
    }

    #[test]
    fn min_delay_certifies_feasibility() {
        let inst = tradeoff(6);
        let sol = min_delay(&inst).unwrap();
        assert_eq!(sol.delay, 6); // fast + spare fast
        assert!(sol.is_delay_feasible(&inst));
    }

    #[test]
    fn greedy_respects_budget_when_it_succeeds() {
        let inst = tradeoff(24);
        if let Some(sol) = greedy_rsp(&inst) {
            assert!(sol.delay <= 24);
        }
    }

    #[test]
    fn orda_sprintson_reaches_feasibility() {
        for d in [6, 14, 22, 32] {
            let inst = tradeoff(d);
            let sol = orda_sprintson(&inst).expect("feasible instance");
            assert!(sol.delay <= d, "delay {} > {d}", sol.delay);
        }
    }

    #[test]
    fn min_max_2approx_certifies() {
        let inst = tradeoff(1_000);
        let (sol, longest) = min_max_2approx(&inst).unwrap();
        // min-delay pair is fast(2)+sparefast(4): longest = 4.
        assert_eq!(longest, 4);
        assert_eq!(sol.delay, 6);
        // The 2-approx property vs the exhaustive min-max optimum.
        let mut best_longest = i64::MAX;
        // Enumerate all disjoint pairs in the 4-spoke graph: pairs of
        // distinct spokes i<j with delays {20, 2, 12, 4}.
        let spoke_delays = [20i64, 2, 12, 4];
        for i in 0..4 {
            for j in i + 1..4 {
                best_longest = best_longest.min(spoke_delays[i].max(spoke_delays[j]));
            }
        }
        assert!(longest <= 2 * best_longest);
    }

    #[test]
    fn yen_disjoint_respects_budget_and_disjointness() {
        for d in [6, 14, 22, 32] {
            let inst = tradeoff(d);
            if let Some(sol) = yen_disjoint(&inst, 16) {
                assert!(sol.delay <= d);
                assert!(sol.edges.is_k_flow(&inst.graph, inst.s, inst.t, 2));
            }
        }
        // Generous budget: the two cheapest paths are disjoint here.
        let inst = tradeoff(40);
        let sol = yen_disjoint(&inst, 16).expect("pool contains a pair");
        assert_eq!(sol.cost, 6);
    }

    #[test]
    fn yen_disjoint_can_fail_on_feasible_instances() {
        // Pool of 1 can never host two disjoint paths.
        let inst = tradeoff(40);
        assert!(yen_disjoint(&inst, 1).is_none());
    }

    #[test]
    fn lp_rounding_only_pairing() {
        let inst = tradeoff(14);
        let sol = lp_rounding_only(&inst).unwrap();
        // Lemma 5: delay ≤ 2D and cost ≤ 2·C_LP.
        assert!(sol.delay <= 2 * 14);
        let lb = sol.lower_bound.unwrap();
        assert!(krsp_numeric::Rat::int(sol.cost as i128) <= krsp_numeric::Rat::int(2) * lb);
    }
}
