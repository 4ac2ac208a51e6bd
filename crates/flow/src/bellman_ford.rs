//! Bellman–Ford shortest paths with negative-cycle extraction.
//!
//! Residual graphs (Definition 6) carry negative costs *and* negative
//! delays, so every shortest-path computation downstream of cycle
//! cancellation must tolerate negative weights. This module also extracts an
//! explicit negative cycle when one exists — the primitive behind both the
//! Orda–Sprintson baseline and the layered bicameral-cycle engine.
//!
//! A negative cycle is reported as soon as the predecessor graph closes
//! one, not after n rounds. After every round that relaxed an edge, the
//! run walks back along predecessor edges from each node the round
//! relaxed, at most O(n) in all, and returns the first cycle a walk closes
//! (the amortized check Cherkassky and Goldberg compare in "Negative-cycle
//! detection algorithms", Math. Programming 85, 1999). Any such cycle is
//! strictly negative, under every [`Weight`] including `Lex2`: the
//! relaxation that closed it lowered the distance its successor edge was
//! set from. And a reachable negative cycle always closes one by round n,
//! so a cycle is found exactly when the textbook n-round run finds one.
//! Without a reachable negative cycle no walk finds anything, and the
//! rounds relax exactly as the textbook's
//! (`krsp_flow::reference::bellman_ford`, the oracle the tests compare
//! against).
//!
//! Algorithm 1's inner loop calls negative-cycle detection once per
//! cancellation iteration per layered pass; [`BfScratch`] lets those calls
//! share the `dist`/`pred`/`order`/`relaxed`/cycle buffers instead of
//! reallocating them every time, and carries the [`CancelToken`] each run
//! polls once per round (DESIGN.md §4.12).
//!
//! A lexicographic search runs on one packed `i64` key per edge when
//! [`crate::weight::pack_lex_keys`], given [`walk_terms`], proves that
//! exact; it then returns the cycle, `pred` and verdict of the `Lex2` run.

use crate::cancel::CancelToken;
use crate::weight::Weight;
use krsp_graph::{DiGraph, EdgeId, NodeId};

/// Output of a Bellman–Ford run.
#[derive(Clone, Debug)]
pub struct BfResult<W> {
    /// `dist[v]` = weight of the lightest walk from the source set to `v`
    /// (`None` if unreachable). Meaningless when a negative cycle is
    /// reported.
    pub dist: Vec<Option<W>>,
    /// Predecessor edge on the lightest walk.
    pub pred: Vec<Option<EdgeId>>,
    /// A reachable negative-total-weight cycle, if any (contiguous edge
    /// list, closed).
    pub negative_cycle: Option<Vec<EdgeId>>,
}

impl<W: Weight> BfResult<W> {
    /// Reconstructs the edge sequence of the lightest path to `v`, if
    /// reachable and no negative cycle was reported.
    #[must_use]
    pub fn path_to(&self, graph: &DiGraph, v: NodeId) -> Option<Vec<EdgeId>> {
        self.dist[v.index()]?;
        let mut edges = Vec::new();
        let mut cur = v;
        while let Some(e) = self.pred[cur.index()] {
            edges.push(e);
            cur = graph.edge(e).src;
            if edges.len() > graph.edge_count() {
                return None; // cycle in predecessor graph
            }
        }
        edges.reverse();
        Some(edges)
    }
}

/// Caller-owned buffers for repeated Bellman–Ford runs.
///
/// One scratch adapts to any graph size (buffers are resized per run,
/// capacity is retained), so a single instance can serve a whole
/// cancellation loop across residual and auxiliary graphs of different
/// shapes.
#[derive(Clone, Debug)]
pub struct BfScratch<W> {
    dist: Vec<Option<W>>,
    pred: Vec<Option<EdgeId>>,
    /// Per-node stamp of the last predecessor walk that reached it during
    /// the per-round cycle check. Stamps only grow within a run, so a round
    /// tells its own walks from earlier rounds' without clearing.
    order: Vec<usize>,
    /// Nodes the current round relaxed (repeats allowed). Every cycle a
    /// round closes in the predecessor graph passes through one of them.
    relaxed: Vec<NodeId>,
    /// Extracted cycle (closed, contiguous); valid after a run that
    /// returned `true`.
    cycle: Vec<EdgeId>,
    /// Cooperative-cancellation token polled once per relaxation round.
    /// Defaults to [`CancelToken::never`]; a cancelled run reports no cycle.
    cancel: CancelToken,
}

impl<W> Default for BfScratch<W> {
    fn default() -> Self {
        BfScratch {
            dist: Vec::new(),
            pred: Vec::new(),
            order: Vec::new(),
            relaxed: Vec::new(),
            cycle: Vec::new(),
            cancel: CancelToken::never(),
        }
    }
}

impl<W> BfScratch<W> {
    /// An empty scratch; buffers are sized lazily on first use.
    #[must_use]
    pub fn new() -> Self {
        BfScratch::default()
    }

    /// Installs the cancellation token future runs poll; pass
    /// [`CancelToken::never`] to make the scratch uncancellable again.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// The currently installed cancellation token.
    #[must_use]
    pub fn cancel(&self) -> &CancelToken {
        &self.cancel
    }
}

/// The most edge weights a value held by a run on `graph` can sum: `n·m`,
/// the bound [`crate::weight::pack_lex_keys`] packs a run's keys under.
///
/// Every distance a run holds is the weight of a walk, and so is every
/// candidate it compares. A source holds the empty walk. The candidate of
/// the `j`-th edge scan extends a distance set at an earlier scan by one
/// edge, so by induction it is a walk of at most `j` edges. A run makes at
/// most `n` rounds of `m` scans, and the cycle check compares no weights.
#[must_use]
pub fn walk_terms(graph: &DiGraph) -> u64 {
    graph.node_count() as u64 * graph.edge_count() as u64
}

/// Bellman–Ford from a single source.
pub fn bellman_ford<W: Weight>(
    graph: &DiGraph,
    source: NodeId,
    weight: impl Fn(EdgeId) -> W,
) -> BfResult<W> {
    let mut scratch = BfScratch::new();
    let found = run(graph, std::iter::once(source), weight, &mut scratch);
    BfResult {
        dist: scratch.dist,
        pred: scratch.pred,
        negative_cycle: found.then_some(scratch.cycle),
    }
}

/// Bellman–Ford with *every* node as a zero-distance source — detects a
/// negative cycle anywhere in the graph.
pub fn find_negative_cycle<W: Weight>(
    graph: &DiGraph,
    weight: impl Fn(EdgeId) -> W,
) -> Option<Vec<EdgeId>> {
    let mut scratch = BfScratch::new();
    find_negative_cycle_in(graph, weight, &mut scratch).map(<[EdgeId]>::to_vec)
}

/// [`find_negative_cycle`] over caller-owned buffers: no per-call
/// allocation once the scratch is warm. The returned slice borrows the
/// scratch and stays valid until the next run. Returns `None` when the
/// scratch's token has tripped, so a caller that installed one re-checks
/// it before reading `None` as "no negative cycle".
pub fn find_negative_cycle_in<'s, W: Weight>(
    graph: &DiGraph,
    weight: impl Fn(EdgeId) -> W,
    scratch: &'s mut BfScratch<W>,
) -> Option<&'s [EdgeId]> {
    run(graph, graph.node_iter(), weight, scratch).then_some(scratch.cycle.as_slice())
}

/// The relaxation engine. Leaves `dist`/`pred` in the scratch; returns
/// `true` iff a reachable negative cycle exists, in which case the closed
/// contiguous edge list is left in `scratch.cycle`. Returns `false` as soon
/// as the scratch's token trips.
fn run<W: Weight>(
    graph: &DiGraph,
    sources: impl Iterator<Item = NodeId>,
    weight: impl Fn(EdgeId) -> W,
    scratch: &mut BfScratch<W>,
) -> bool {
    let n = graph.node_count();
    let BfScratch {
        dist,
        pred,
        order,
        relaxed,
        cycle,
        cancel,
    } = scratch;
    dist.clear();
    dist.resize(n, None);
    pred.clear();
    pred.resize(n, None);
    order.clear();
    order.resize(n, 0);
    for s in sources {
        dist[s.index()] = Some(W::ZERO);
    }

    let mut stamp = 0;
    for _round in 0..n {
        if cancel.is_cancelled() {
            return false;
        }
        relaxed.clear();
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
                relaxed.push(e.dst);
            }
        }
        if relaxed.is_empty() {
            return false;
        }
        if predecessor_cycle(graph, pred, relaxed, order, &mut stamp, cycle) {
            return true;
        }
    }
    // A relaxation in round n leaves a cycle in the predecessor graph (its
    // node's predecessor chain is at least n edges long), and the walk
    // after that round returned it; only an empty graph gets here.
    debug_assert_eq!(n, 0, "round n relaxed without closing a predecessor cycle");
    false
}

/// Looks for a cycle in the predecessor graph `pred` after a round that
/// relaxed the nodes `starts`, given that it held none before the round:
/// any new cycle then passes through a node the round relaxed. Walks back
/// from each of them, stamping every node it reaches with a fresh stamp
/// above all of earlier rounds', and stops a walk at a source or at a node
/// an earlier walk of this round stamped, so the check costs O(n) plus one
/// step per start.
/// A walk that meets its own stamp has closed a cycle, which is left in
/// `cycle` in forward orientation.
fn predecessor_cycle(
    graph: &DiGraph,
    pred: &[Option<EdgeId>],
    starts: &[NodeId],
    order: &mut [usize],
    stamp: &mut usize,
    cycle: &mut Vec<EdgeId>,
) -> bool {
    let floor = *stamp;
    for &start in starts {
        *stamp += 1;
        let mut cur = start.index();
        while order[cur] <= floor {
            order[cur] = *stamp;
            let Some(e) = pred[cur] else {
                break;
            };
            cur = graph.edge(e).src.index();
        }
        if order[cur] != *stamp || pred[cur].is_none() {
            continue;
        }
        // `cur` is on the cycle: follow it around once, collecting the
        // edges backwards, then flip them to forward orientation.
        cycle.clear();
        let mut v = cur;
        loop {
            let e = pred[v].expect("every node on a predecessor cycle has a predecessor");
            cycle.push(e);
            v = graph.edge(e).src.index();
            if v == cur {
                break;
            }
        }
        cycle.reverse();
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::weight::pack_lex_keys;
    use krsp_numeric::Lex2;
    use proptest::prelude::*;

    fn w(graph: &DiGraph) -> impl Fn(EdgeId) -> i64 + '_ {
        move |e| graph.edge(e).cost
    }

    #[test]
    fn shortest_paths_positive() {
        let g = DiGraph::from_edges(4, &[(0, 1, 1, 0), (1, 2, 2, 0), (0, 2, 5, 0), (2, 3, 1, 0)]);
        let r = bellman_ford(&g, NodeId(0), w(&g));
        assert!(r.negative_cycle.is_none());
        assert_eq!(r.dist[3], Some(4));
        assert_eq!(
            r.path_to(&g, NodeId(3)).unwrap(),
            vec![EdgeId(0), EdgeId(1), EdgeId(3)]
        );
    }

    #[test]
    fn negative_edges_no_cycle() {
        let g = DiGraph::from_edges(3, &[(0, 1, 4, 0), (1, 2, -2, 0), (0, 2, 3, 0)]);
        let r = bellman_ford(&g, NodeId(0), w(&g));
        assert!(r.negative_cycle.is_none());
        assert_eq!(r.dist[2], Some(2));
    }

    #[test]
    fn unreachable_is_none() {
        let g = DiGraph::from_edges(3, &[(1, 2, 1, 0)]);
        let r = bellman_ford(&g, NodeId(0), w(&g));
        assert_eq!(r.dist[0], Some(0));
        assert_eq!(r.dist[1], None);
        assert_eq!(r.dist[2], None);
        assert!(r.path_to(&g, NodeId(2)).is_none());
        assert_eq!(r.path_to(&g, NodeId(0)).unwrap(), Vec::<EdgeId>::new());
    }

    #[test]
    fn negative_cycle_extracted() {
        // 0→1→2→1 with the 1-2-1 loop summing to -1.
        let g = DiGraph::from_edges(3, &[(0, 1, 1, 0), (1, 2, 2, 0), (2, 1, -3, 0)]);
        let r = bellman_ford(&g, NodeId(0), w(&g));
        let cyc = r.negative_cycle.expect("negative cycle");
        let total: i64 = cyc.iter().map(|&e| g.edge(e).cost).sum();
        assert!(total < 0, "extracted cycle weight {total}");
        // Cycle must be closed & contiguous.
        let first = g.edge(cyc[0]).src;
        let mut cur = first;
        for &e in &cyc {
            assert_eq!(g.edge(e).src, cur);
            cur = g.edge(e).dst;
        }
        assert_eq!(cur, first);
    }

    #[test]
    fn negative_cycle_unreachable_from_source_found_globally() {
        // Cycle 2→3→2 negative, not reachable from node 0.
        let g = DiGraph::from_edges(4, &[(0, 1, 1, 0), (2, 3, 1, 0), (3, 2, -2, 0)]);
        let r = bellman_ford(&g, NodeId(0), w(&g));
        assert!(r.negative_cycle.is_none());
        let cyc = find_negative_cycle(&g, w(&g)).expect("global detection");
        let total: i64 = cyc.iter().map(|&e| g.edge(e).cost).sum();
        assert!(total < 0);
    }

    #[test]
    fn zero_cycle_not_reported() {
        let g = DiGraph::from_edges(2, &[(0, 1, 2, 0), (1, 0, -2, 0)]);
        assert!(find_negative_cycle(&g, w(&g)).is_none());
    }

    #[test]
    fn lexicographic_weights() {
        // Two parallel 0→1 edges with equal primary, different secondary.
        let g = DiGraph::from_edges(2, &[(0, 1, 5, 9), (0, 1, 5, 3)]);
        let r = bellman_ford(&g, NodeId(0), |e| {
            let rec = g.edge(e);
            Lex2::new(rec.cost as i128, rec.delay as i128)
        });
        assert_eq!(r.dist[1], Some(Lex2::new(5, 3)));
        assert_eq!(r.pred[1], Some(EdgeId(1)));
    }

    #[test]
    fn parallel_and_self_loops() {
        let mut g = DiGraph::new(2);
        g.add_edge(NodeId(0), NodeId(0), -1, 0); // negative self-loop
        g.add_edge(NodeId(0), NodeId(1), 1, 0);
        let cyc = find_negative_cycle(&g, w(&g)).expect("self-loop cycle");
        assert_eq!(cyc, vec![EdgeId(0)]);
    }

    #[test]
    fn stops_at_the_first_round_that_closes_a_cycle() {
        // A negative self-loop at the head of a long chain closes a
        // predecessor cycle in round 1; the textbook run pays all n rounds.
        let n = 40u32;
        let mut edges = vec![(0, 0, -1, 0)];
        edges.extend((0..n - 1).map(|v| (v, v + 1, 1, 0)));
        let g = DiGraph::from_edges(n as usize, &edges);
        let calls = std::cell::Cell::new(0usize);
        let counted = |e: EdgeId| {
            calls.set(calls.get() + 1);
            g.edge(e).cost
        };
        assert_eq!(find_negative_cycle(&g, counted), Some(vec![EdgeId(0)]));
        assert_eq!(calls.get(), g.edge_count(), "one round, not n");
        calls.set(0);
        let textbook = reference::bellman_ford(&g, g.node_iter(), counted);
        assert!(textbook.negative_cycle.is_some());
        assert_eq!(calls.get(), n as usize * g.edge_count());
    }

    #[test]
    fn cancelled_scratch_returns_none_and_recovers() {
        let g = DiGraph::from_edges(
            4,
            &[(0, 1, 1, 0), (1, 2, 2, 0), (2, 1, -3, 0), (2, 3, 1, 0)],
        );
        let mut scratch = BfScratch::new();
        let token = CancelToken::cancellable();
        token.cancel();
        scratch.set_cancel(token);
        assert!(find_negative_cycle_in(&g, w(&g), &mut scratch).is_none());
        // Swapping back to a never-token makes the same scratch answer
        // exactly as a fresh one does.
        scratch.set_cancel(CancelToken::never());
        let got = find_negative_cycle_in(&g, w(&g), &mut scratch).map(<[EdgeId]>::to_vec);
        let mut fresh = BfScratch::new();
        let want = find_negative_cycle_in(&g, w(&g), &mut fresh).map(<[EdgeId]>::to_vec);
        assert!(want.is_some());
        assert_eq!(got, want);
        assert_eq!(scratch.dist, fresh.dist);
        assert_eq!(scratch.pred, fresh.pred);
    }

    /// Checks one weight function against the textbook oracle through both
    /// entry points: the same cycle verdict; every returned cycle closed,
    /// contiguous and strictly negative; identical `dist`/`pred` when there
    /// is no cycle.
    fn agrees_with_textbook<W: Weight>(
        g: &DiGraph,
        weight: impl Fn(EdgeId) -> W + Copy,
    ) -> TestCaseResult {
        let valid_negative = |cycle: &[EdgeId]| -> TestCaseResult {
            prop_assert!(!cycle.is_empty());
            let first = g.edge(cycle[0]).src;
            let mut cur = first;
            let mut total = W::ZERO;
            for &e in cycle {
                prop_assert_eq!(g.edge(e).src, cur, "cycle {:?} is not contiguous", cycle);
                cur = g.edge(e).dst;
                total = total.add_checked(weight(e));
            }
            prop_assert_eq!(cur, first, "cycle {:?} is not closed", cycle);
            prop_assert!(total < W::ZERO, "cycle {:?} weighs {:?}", cycle, total);
            Ok(())
        };

        let mut scratch = BfScratch::new();
        let found = run(g, g.node_iter(), weight, &mut scratch);
        let textbook = reference::bellman_ford(g, g.node_iter(), weight);
        prop_assert_eq!(found, textbook.negative_cycle.is_some());
        if found {
            valid_negative(&scratch.cycle)?;
        } else {
            prop_assert_eq!(&scratch.dist, &textbook.dist);
            prop_assert_eq!(&scratch.pred, &textbook.pred);
        }

        let single = bellman_ford(g, NodeId(0), weight);
        let textbook = reference::bellman_ford(g, std::iter::once(NodeId(0)), weight);
        prop_assert_eq!(
            single.negative_cycle.is_some(),
            textbook.negative_cycle.is_some()
        );
        match &single.negative_cycle {
            Some(cycle) => valid_negative(cycle)?,
            None => {
                prop_assert_eq!(&single.dist, &textbook.dist);
                prop_assert_eq!(&single.pred, &textbook.pred);
            }
        }
        Ok(())
    }

    /// Runs `weight` and its packed keys through both entry points and
    /// checks that they agree on everything but the distances' encoding:
    /// the verdict, the cycle and `pred`.
    fn packed_agrees_with_lex2(
        g: &DiGraph,
        weight: impl Fn(EdgeId) -> Lex2 + Copy,
    ) -> TestCaseResult {
        let mut keys = Vec::new();
        prop_assert!(pack_lex_keys(
            g.edge_count(),
            weight,
            walk_terms(g),
            &mut keys
        ));
        let key = |e: EdgeId| keys[e.index()];
        let mut lex = BfScratch::new();
        let mut packed = BfScratch::new();
        let found = run(g, g.node_iter(), weight, &mut lex);
        prop_assert_eq!(run(g, g.node_iter(), key, &mut packed), found);
        if found {
            prop_assert_eq!(&packed.cycle, &lex.cycle);
        }
        prop_assert_eq!(&packed.pred, &lex.pred);
        let single = bellman_ford(g, NodeId(0), weight);
        let single_packed = bellman_ford(g, NodeId(0), key);
        prop_assert_eq!(&single_packed.negative_cycle, &single.negative_cycle);
        prop_assert_eq!(&single_packed.pred, &single.pred);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The early-exit engine against the textbook n-round run, on
        /// random signed graphs under `i64` costs and under `Lex2` weights
        /// whose coarse primary makes zero-primary cycles common; and the
        /// packed keys of those `Lex2` weights, and of pass 1's
        /// `(ΔC·d − ΔD·c, d)`, against the `Lex2` run.
        #[test]
        fn prop_matches_textbook_bellman_ford(
            n in 1usize..9,
            edges in proptest::collection::vec((0u32..9, 0u32..9, -6i64..20, -8i64..12), 0..26),
            delta_c in 0i64..30,
            delta_d in -30i64..0,
        ) {
            let edges: Vec<(u32, u32, i64, i64)> = edges
                .into_iter()
                .map(|(u, v, c, d)| (u % n as u32, v % n as u32, c, d))
                .collect();
            let g = DiGraph::from_edges(n, &edges);
            agrees_with_textbook(&g, |e| g.edge(e).cost)?;
            let coarse = |e: EdgeId| {
                let r = g.edge(e);
                Lex2::new(i128::from(r.cost.div_euclid(4)), i128::from(r.delay))
            };
            agrees_with_textbook(&g, coarse)?;
            packed_agrees_with_lex2(&g, coarse)?;
            packed_agrees_with_lex2(&g, |e| {
                let r = g.edge(e);
                let (c, d) = (i128::from(r.cost), i128::from(r.delay));
                Lex2::new(i128::from(delta_c) * d - i128::from(delta_d) * c, d)
            })?;
        }
    }

    #[test]
    fn scratch_reuse_across_graphs() {
        // One scratch across graphs of different sizes, with and without
        // negative cycles: results must match the allocating API.
        let cyclic = DiGraph::from_edges(3, &[(0, 1, 1, 0), (1, 2, 2, 0), (2, 1, -3, 0)]);
        let acyclic = DiGraph::from_edges(5, &[(0, 1, 1, 0), (1, 4, -2, 0), (0, 4, 3, 0)]);
        let mut scratch = BfScratch::new();
        for _ in 0..3 {
            let got =
                find_negative_cycle_in(&cyclic, w(&cyclic), &mut scratch).map(<[EdgeId]>::to_vec);
            assert_eq!(got, find_negative_cycle(&cyclic, w(&cyclic)));
            assert!(find_negative_cycle_in(&acyclic, w(&acyclic), &mut scratch).is_none());
        }
    }
}
