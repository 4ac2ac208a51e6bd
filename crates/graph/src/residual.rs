//! Residual graphs (Definition 6) and the `⊕` cycle-cancellation step.
//!
//! Given the current solution `P_1..P_k` (as an [`EdgeSet`] `S`), the
//! residual graph `G̃ = G_res(P_1..P_k)` contains
//!
//! * a **forward** copy of every edge `e ∉ S` with its original `(c, d)`, and
//! * a **reverse** copy `e'(v,u)` of every edge `e(u,v) ∈ S` with *negated*
//!   cost and delay: `c(e') = −c(e)`, `d(e') = −d(e)`.
//!
//! `G̃` may be a multigraph (footnote 1 of the paper). Cancelling a residual
//! cycle `O` replaces `S` by `S ⊕ O`: forward members of `O` are added to the
//! solution, reverse members remove their originals. Residual edge `i` is
//! always base edge `i`, forward or reversed, so `G̃` can follow `S` in place:
//! only the edges whose membership changed are reversed.

use crate::digraph::{DiGraph, EdgeId, NodeId};
use crate::edgeset::EdgeSet;
use serde::{Deserialize, Serialize};

/// Origin of a residual edge in the base graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResEdge {
    /// Original edge, not in the solution; traversing it adds the edge.
    Forward(EdgeId),
    /// Reversed solution edge; traversing it removes the original edge.
    Reverse(EdgeId),
}

impl ResEdge {
    /// The underlying base-graph edge id.
    #[must_use]
    pub fn base(self) -> EdgeId {
        match self {
            ResEdge::Forward(e) | ResEdge::Reverse(e) => e,
        }
    }

    /// True for [`ResEdge::Reverse`].
    #[must_use]
    pub fn is_reverse(self) -> bool {
        matches!(self, ResEdge::Reverse(_))
    }
}

/// The residual graph of Definition 6.
///
/// Held as a [`DiGraph`] (so every algorithm in the suite runs on it
/// unchanged) plus a map from residual edge ids back to their [`ResEdge`]
/// origin. [`ResidualGraph::build`] materializes it once; [`apply`] and
/// [`retarget`] then update it in place by reversing edges. After either,
/// the edge records, every node's adjacency lists (in id order) and the
/// origins equal what `build` makes for the new solution.
///
/// [`apply`]: ResidualGraph::apply
/// [`retarget`]: ResidualGraph::retarget
#[derive(Clone, Debug)]
pub struct ResidualGraph {
    graph: DiGraph,
    origin: Vec<ResEdge>,
}

impl ResidualGraph {
    /// Builds `G_res(solution)` from the base graph and the solution set.
    #[must_use]
    pub fn build(base: &DiGraph, solution: &EdgeSet) -> Self {
        let mut graph = DiGraph::new(base.node_count());
        let mut origin = Vec::with_capacity(base.edge_count());
        for (id, e) in base.edge_iter() {
            if solution.contains(id) {
                graph.add_edge(e.dst, e.src, -e.cost, -e.delay);
                origin.push(ResEdge::Reverse(id));
            } else {
                graph.add_edge(e.src, e.dst, e.cost, e.delay);
                origin.push(ResEdge::Forward(id));
            }
        }
        ResidualGraph { graph, origin }
    }

    /// The materialized residual digraph (negative weights possible).
    #[must_use]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Origin of residual edge `e`.
    #[must_use]
    pub fn origin(&self, e: EdgeId) -> ResEdge {
        self.origin[e.index()]
    }

    /// Applies `solution ← solution ⊕ O` for a residual cycle (or a set of
    /// edge-disjoint residual cycles given as one edge list), and reverses
    /// those residual edges so the graph becomes `G_res(solution ⊕ O)`.
    ///
    /// Panics (debug) if a forward edge is already in the solution or a
    /// reverse edge is missing — which would indicate the cycle is stale.
    pub fn apply(&mut self, solution: &mut EdgeSet, cycle_edges: &[EdgeId]) {
        for &re in cycle_edges {
            match self.origin(re) {
                ResEdge::Forward(e) => {
                    let fresh = solution.insert(e);
                    debug_assert!(fresh, "forward residual edge already in solution");
                }
                ResEdge::Reverse(e) => {
                    let was = solution.remove(e);
                    debug_assert!(was, "reverse residual edge not in solution");
                }
            }
            self.reverse(re);
        }
    }

    /// Re-targets the graph to `G_res(solution)` in place, reversing only
    /// the edges whose membership differs from the current orientation.
    ///
    /// `solution` must be an edge set over the base graph this residual
    /// graph was built from.
    pub fn retarget(&mut self, solution: &EdgeSet) {
        debug_assert_eq!(solution.capacity(), self.origin.len());
        for i in 0..self.origin.len() {
            let e = EdgeId(i as u32);
            if solution.contains(e) != self.origin[i].is_reverse() {
                self.reverse(e);
            }
        }
    }

    /// Turns residual edge `e` around: endpoints swapped, cost and delay
    /// negated, origin flipped between forward and reverse.
    fn reverse(&mut self, e: EdgeId) {
        self.graph.reverse_edge(e);
        let r = self.graph.edge(e);
        self.graph.set_edge_weights(e, -r.cost, -r.delay);
        self.origin[e.index()] = match self.origin[e.index()] {
            ResEdge::Forward(b) => ResEdge::Reverse(b),
            ResEdge::Reverse(b) => ResEdge::Forward(b),
        };
    }

    /// Cost of a residual edge list (signed).
    #[must_use]
    pub fn cost_of(&self, edges: &[EdgeId]) -> i64 {
        edges.iter().map(|&e| self.graph.edge(e).cost).sum()
    }

    /// Delay of a residual edge list (signed).
    #[must_use]
    pub fn delay_of(&self, edges: &[EdgeId]) -> i64 {
        edges.iter().map(|&e| self.graph.edge(e).delay).sum()
    }

    /// Checks that an edge list is a (not necessarily simple) closed walk in
    /// the residual graph with every edge used at most once.
    #[must_use]
    pub fn is_valid_cycle_set(&self, edges: &[EdgeId]) -> bool {
        if edges.is_empty() {
            return false;
        }
        let mut seen = vec![false; self.graph.edge_count()];
        let mut excess = std::collections::HashMap::<NodeId, i64>::new();
        for &e in edges {
            if seen[e.index()] {
                return false;
            }
            seen[e.index()] = true;
            let r = self.graph.edge(e);
            *excess.entry(r.src).or_insert(0) += 1;
            *excess.entry(r.dst).or_insert(0) -= 1;
        }
        excess.values().all(|&x| x == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::NodeId;
    use proptest::prelude::*;

    /// 0→1→3 (in solution), 0→2→3 alternative, 2→1 chord.
    fn setup() -> (DiGraph, EdgeSet) {
        let g = DiGraph::from_edges(
            4,
            &[
                (0, 1, 5, 9), // e0 in solution
                (1, 3, 5, 9), // e1 in solution
                (0, 2, 1, 1), // e2
                (2, 3, 1, 1), // e3
                (2, 1, 1, 1), // e4
            ],
        );
        let s = EdgeSet::from_edges(g.edge_count(), &[EdgeId(0), EdgeId(1)]);
        (g, s)
    }

    #[test]
    fn residual_negates_solution_edges() {
        let (g, s) = setup();
        let res = ResidualGraph::build(&g, &s);
        let rg = res.graph();
        assert_eq!(rg.edge_count(), 5);
        // e0 reversed: 1→0 with negated weights.
        let r0 = rg.edge(EdgeId(0));
        assert_eq!(
            (r0.src, r0.dst, r0.cost, r0.delay),
            (NodeId(1), NodeId(0), -5, -9)
        );
        assert_eq!(res.origin(EdgeId(0)), ResEdge::Reverse(EdgeId(0)));
        // e2 forward unchanged.
        let r2 = rg.edge(EdgeId(2));
        assert_eq!(
            (r2.src, r2.dst, r2.cost, r2.delay),
            (NodeId(0), NodeId(2), 1, 1)
        );
        assert_eq!(res.origin(EdgeId(2)), ResEdge::Forward(EdgeId(2)));
    }

    /// Field-by-field equality with a fresh `build` on the same solution.
    fn same_as_built(res: &ResidualGraph, base: &DiGraph, solution: &EdgeSet) -> bool {
        let fresh = ResidualGraph::build(base, solution);
        let (a, b) = (res.graph(), fresh.graph());
        a.node_count() == b.node_count()
            && a.edges() == b.edges()
            && a.node_iter()
                .all(|v| a.out_edges(v) == b.out_edges(v) && a.in_edges(v) == b.in_edges(v))
            && res.origin == fresh.origin
    }

    #[test]
    fn apply_cycle_swaps_path() {
        let (g, mut s) = setup();
        let mut res = ResidualGraph::build(&g, &s);
        // Residual cycle: 0→2 (e2), 2→1 (e4), 1→0 (reverse e0).
        let cyc = vec![EdgeId(2), EdgeId(4), EdgeId(0)];
        assert!(res.is_valid_cycle_set(&cyc));
        assert_eq!(res.cost_of(&cyc), 1 + 1 - 5);
        assert_eq!(res.delay_of(&cyc), 1 + 1 - 9);
        res.apply(&mut s, &cyc);
        // Now the solution is 0→2→1→3.
        let members: Vec<_> = s.iter().collect();
        assert_eq!(members, vec![EdgeId(1), EdgeId(2), EdgeId(4)]);
        assert!(s.is_k_flow(&g, NodeId(0), NodeId(3), 1));
        // The residual graph followed the solution in place.
        assert!(same_as_built(&res, &g, &s));
        assert_eq!(res.origin(EdgeId(0)), ResEdge::Forward(EdgeId(0)));
        assert_eq!(res.graph().in_edges(NodeId(1)), &[EdgeId(0), EdgeId(1)]);
    }

    #[test]
    fn invalid_cycle_sets_rejected() {
        let (g, s) = setup();
        let res = ResidualGraph::build(&g, &s);
        assert!(!res.is_valid_cycle_set(&[])); // empty
        assert!(!res.is_valid_cycle_set(&[EdgeId(2)])); // open
        assert!(!res.is_valid_cycle_set(&[EdgeId(2), EdgeId(2)])); // repeated edge
    }

    #[test]
    fn resedge_base_and_direction() {
        assert_eq!(ResEdge::Forward(EdgeId(3)).base(), EdgeId(3));
        assert_eq!(ResEdge::Reverse(EdgeId(3)).base(), EdgeId(3));
        assert!(ResEdge::Reverse(EdgeId(0)).is_reverse());
        assert!(!ResEdge::Forward(EdgeId(0)).is_reverse());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// One residual graph re-targeted through a random sequence of edge
        /// sets, by whole-set `retarget` or by `apply` of an edge list, stays
        /// equal to a fresh `build` on the same set after every step: edge
        /// records, each node's `out_edges`/`in_edges` in order, and origins.
        /// The multigraphs carry parallel edges and self-loops.
        #[test]
        fn prop_in_place_updates_match_build(
            n in 1u32..7,
            edges in proptest::collection::vec((0u32..7, 0u32..7, 0i64..20, 0i64..20), 0..40),
            start in 0u64..=u64::MAX,
            steps in proptest::collection::vec((0u8..2, 0u64..=u64::MAX), 1..10),
        ) {
            let list: Vec<_> = edges.iter().map(|&(u, v, c, d)| (u % n, v % n, c, d)).collect();
            let g = DiGraph::from_edges(n as usize, &list);
            let m = g.edge_count();
            let set_of = |mask: u64| {
                let ids: Vec<EdgeId> =
                    (0..m).filter(|&i| mask >> i & 1 == 1).map(|i| EdgeId(i as u32)).collect();
                EdgeSet::from_edges(m, &ids)
            };
            let mut solution = set_of(start);
            let mut res = ResidualGraph::build(&g, &solution);
            for (by_apply, mask) in steps {
                if by_apply == 1 {
                    // Any list of distinct residual edges is a valid `⊕`
                    // argument; it flips exactly those memberships.
                    let flips: Vec<EdgeId> = set_of(mask).iter().collect();
                    res.apply(&mut solution, &flips);
                } else {
                    solution = set_of(mask);
                    res.retarget(&solution);
                }
                prop_assert!(same_as_built(&res, &g, &solution));
            }
        }
    }
}
