//! Restricted (constrained) shortest paths — the `k = 1` case of kRSP.
//!
//! * [`constrained_shortest_path`] — exact pseudo-polynomial DP: the
//!   minimum-cost `st`-path with delay at most `D`.
//! * [`rsp_fptas`] — the Lorenz–Raz style `(1+ε)` FPTAS \[17\]: cost at most
//!   `(1+ε)·OPT`, delay at most `D`, polynomial in `1/ε`. This is also the
//!   scaling template the paper's Theorem 4 applies to Algorithm 1.
//!
//! Both are used as the `k = 1` baseline (`greedy_rsp` runs them per path).
//!
//! ## The sparse kernel
//!
//! The budgeted DP is the solver's hottest loop: the FPTAS re-runs it for
//! every probe of its geometric bisection, and every caller above (greedy
//! RSP, the service ladder) re-runs the FPTAS. `value[b][v]`, the minimum
//! objective over `s→v` walks with budget at most `b`, is computed level by
//! level, bottom-up, but only where it changes (DESIGN.md §4.12):
//!
//! * a *label* is written only where a node's value strictly falls: the
//!   level, the value, the parent edge and parent level, and a link to the
//!   node's previous label. No `levels × n` table exists; reading
//!   `value[b][v]` or recovering a path walks a node's (short) label list;
//! * the weight accessors are generic `impl Fn` parameters, monomorphized
//!   at each call site, and evaluated once per edge up front;
//! * edges are bucketed by tail once per run into two CSRs, positive
//!   budgets (edges whose budget exceeds the bound are dropped) and zero
//!   budgets;
//! * every buffer lives in a caller-owned [`DpScratch`], so the bisection
//!   loop — and repeated solves above it — reuse one allocation (the
//!   service's `k = 1` ladder arm keeps one per worker thread).
//!
//! ## One sweep
//!
//! Every DP run goes through one sweep, `dp_sweep`. When node `u` gets a
//! label at level `L`, each positive out-edge `(u→v, w)` with `L + w` inside
//! the bound pushes one *candidate* for `v` to level `L + w`, unless it does
//! not beat `v`'s current value. Candidates wait in a ring of buckets
//! indexed by level modulo (largest bucketed budget + 1). One level then:
//!
//! 1. applies its candidates: among those below `v`'s carried value, the
//!    smallest `(value, edge id)` wins;
//! 2. runs the zero-budget Dijkstra pass seeded only with the nodes
//!    labelled at this level (strict `<`, smallest value first);
//! 3. asks the stop predicate about the row (the exact DP and the batch
//!    plane pass one that never fires; every FPTAS probe stops at the first
//!    level whose value at `t` is within the delay bound);
//! 4. pushes the new labels' out-edges.
//!
//! A sweep with nothing pending ends as exhausted without walking the
//! levels left: no value can change any more. Level `b` depends only on
//! levels `≤ b`, so a stopped sweep's labels are exactly a full sweep's up
//! to its level.
//!
//! ## Why the sparse sweep answers exactly as the dense one
//!
//! The dense DP ([`crate::reference`]) carries each row over from the last,
//! scans every positive edge in edge-id order keeping the first strict
//! minimum, then runs the zero pass seeded with every reachable node. Two
//! facts make the sparse sweep take the same decisions:
//!
//! * a source whose value did not change at `b − w` offers at `b` the same
//!   candidate it offered at `b − 1`, and that candidate cannot beat the
//!   carried value (the level `b − 1` row is at most every candidate it
//!   saw; a source reachable at level 0 is labelled there). So the dense
//!   scan's first strict minimum in edge-id order is the `(value, id)`
//!   minimum among the pushed candidates below the carried value;
//! * after a level's zero pass the row is closed under zero-budget edges,
//!   so a node left unchanged cannot improve anything in the next zero
//!   pass: it settles without a strict relaxation, and the changed nodes
//!   settle in the same `(value, node)` order with or without it.
//!
//! Values, parents and recovered paths are therefore bit-identical to the
//! dense DP, and the test suite pins them to [`crate::reference`] level by
//! level, node by node.
//!
//! ## Before and between the DPs
//!
//! Both FPTAS kernels open with [`threshold_search`] (DESIGN.md §4.12): the
//! smallest edge-cost threshold `c*` under which a path meets the delay
//! bound, and the min-delay path under it, the witness. One reverse
//! min-delay search from `t` gives each node a lower bound `h` on its
//! delay to `t`; every later search skips the edges above its threshold,
//! prunes the nodes with `dist + h > D` and stops at `t`, on the scratch's
//! buffers. Its `c*` and witness are exactly those of the full-Dijkstra
//! bisection it replaced (`reference::threshold_search`).
//!
//! The witness is the interval kernel's first incumbent. The classic
//! kernel keeps the cost `U` of the cheapest delay-feasible path in hand
//! (the witness, then each passing shrink test's path) and skips every
//! ε₀ = 1 shrink test at `c ≥ U`: `OPT ≤ U ≤ c` gives the optimal path a
//! scaled cost ≤ n+1, so the test would pass, and the pass branch moves
//! the bracket by `c` alone. Its `lb`/`ub` sequence and its answers are
//! unchanged. Debug builds run each skipped test anyway and assert that it
//! passes.
//!
//! Bracket arithmetic that can pass `i64::MAX` (`n·c*`, `4·lb`, `2·c`)
//! saturates, and every scaled cost is computed in `i128`, so a graph with
//! costs near `i64::MAX` gets a correct answer, not a wrapped bracket.

use crate::cancel::CancelToken;
use krsp_failpoint::fail_point;
use krsp_graph::{DiGraph, EdgeId, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A cost/delay-annotated simple path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CspPath {
    /// Edge sequence from `s` to `t`.
    pub edges: Vec<EdgeId>,
    /// Total cost at original weights.
    pub cost: i64,
    /// Total delay at original weights.
    pub delay: i64,
}

impl CspPath {
    pub(crate) fn from_edges(graph: &DiGraph, edges: Vec<EdgeId>) -> Self {
        let cost = edges.iter().map(|&e| graph.edge(e).cost).sum();
        let delay = edges.iter().map(|&e| graph.edge(e).delay).sum();
        CspPath { edges, cost, delay }
    }
}

/// "Unreachable" value sentinel.
const UNREACHED: i64 = i64::MAX;
/// "No parent" edge sentinel (the source's level-0 label).
const NO_PARENT: u32 = u32::MAX;
/// "No label" link sentinel.
const NO_LABEL: u32 = u32::MAX;

/// A positive-budget edge in the per-tail CSR.
#[derive(Clone, Copy)]
struct PosEdge {
    /// Objective value.
    obj: i64,
    /// Budget value (`≥ 1`, `≤ bound`).
    budget: u32,
    /// Head node index.
    dst: u32,
    /// Original edge id (for parents and ties).
    id: u32,
}

/// A zero-budget edge in the per-tail CSR.
#[derive(Clone, Copy)]
struct ZeroEdge {
    /// Head node index.
    dst: u32,
    /// Objective value.
    obj: i64,
    /// Original edge id (for parents).
    id: u32,
}

/// Where a node's value strictly fell: one entry of its label list.
#[derive(Clone, Copy)]
struct Label {
    /// The node's value from `level` on (until its next label).
    value: i64,
    /// The level the value fell at.
    level: u32,
    /// Parent edge id; `NO_PARENT` for the source's level-0 label.
    par_edge: u32,
    /// Level of the parent edge's tail label.
    par_level: u32,
    /// The node's previous (lower-level) label; `NO_LABEL` = none.
    prev: u32,
}

/// A pending candidate: edge `id` offers `value` to `dst` at the level its
/// ring bucket stands for, from its tail's label at level `from`.
#[derive(Clone, Copy)]
struct Cand {
    value: i64,
    dst: u32,
    id: u32,
    from: u32,
}

/// The edge buckets one sweep relaxes over: positive-budget edges with
/// budget ≤ bound and zero-budget edges, each as a per-tail CSR in
/// out-edge order. Owned by a [`DpScratch`] (rebuilt per run) or by a
/// [`TopoDigest`] (built once per topology).
#[derive(Clone, Default)]
struct EdgeBuckets {
    /// Positive-budget out-edges, CSR payload.
    pos: Vec<PosEdge>,
    /// Node `v`'s positive-budget out-edges are
    /// `pos[pos_start[v]..pos_start[v+1]]`.
    pos_start: Vec<u32>,
    /// Zero-budget out-edges, CSR payload.
    zero: Vec<ZeroEdge>,
    /// CSR offsets over `zero`.
    zero_start: Vec<u32>,
    /// Largest budget in `pos` (0 when it is empty): sizes the ring.
    max_budget: u32,
}

impl EdgeBuckets {
    fn pos_of(&self, v: usize) -> &[PosEdge] {
        &self.pos[self.pos_start[v] as usize..self.pos_start[v + 1] as usize]
    }

    fn zero_of(&self, v: usize) -> &[ZeroEdge] {
        &self.zero[self.zero_start[v] as usize..self.zero_start[v + 1] as usize]
    }

    /// True when node `v` has at least one outgoing zero-budget edge.
    #[inline]
    fn zero_tail(&self, v: u32) -> bool {
        self.zero_start[v as usize] < self.zero_start[v as usize + 1]
    }

    fn bytes(&self) -> usize {
        self.pos.capacity() * std::mem::size_of::<PosEdge>()
            + self.zero.capacity() * std::mem::size_of::<ZeroEdge>()
            + (self.pos_start.capacity() + self.zero_start.capacity()) * std::mem::size_of::<u32>()
    }
}

/// The labels and working buffers of one sweep.
#[derive(Default)]
struct Sweep {
    /// Every label written, in level order.
    labels: Vec<Label>,
    /// Newest label per node; `NO_LABEL` = unreachable so far.
    head: Vec<u32>,
    /// Value per node at the level being computed (`UNREACHED` = none).
    cur: Vec<i64>,
    /// Nodes labelled at the level being computed.
    fresh: Vec<u32>,
    /// Pending candidates, bucketed by target level modulo `ring.len()`
    /// (only the first `ring_len` buckets of a run are live).
    ring: Vec<Vec<Cand>>,
    /// Zero-pass heap, reused across levels.
    heap: BinaryHeap<Reverse<(i64, u32)>>,
    /// Settled stamps for the zero pass (`== gen` means settled).
    settled: Vec<u64>,
    /// Current settle generation.
    gen: u64,
    /// Level count (`bound + 1`) of the last run.
    levels: usize,
    /// Levels the last run walked before it stopped or ran dry.
    swept: usize,
}

/// The buffers of the FPTAS kernels' threshold search ([`threshold_search`]).
#[derive(Default)]
struct Search {
    /// Min delay from each node to `t` over all edges; `UNREACHED` where
    /// it exceeds the delay bound.
    h: Vec<i64>,
    /// The edge leaving each node on its min-delay path to `t`.
    succ: Vec<u32>,
    /// Delay from `s` in the current forward search.
    dist: Vec<i64>,
    /// Parent edge in the current forward search.
    pred: Vec<u32>,
    /// The heap every search of a run reuses.
    heap: BinaryHeap<Reverse<(i64, u32)>>,
    /// The thresholds left to bisect: distinct edge costs below a known
    /// feasible threshold.
    costs: Vec<i64>,
}

/// Caller-owned scratch arena for the budgeted DP.
///
/// Holds the labels, the pending-candidate ring, the edge buckets, the
/// zero-pass heap and the threshold search's buffers. Create one per
/// solving context and thread it through repeated
/// [`constrained_shortest_path_with`] / [`rsp_fptas_with`] calls: after
/// warm-up, the kernel allocates nothing. A single scratch adapts to any
/// graph/bound size (buffers grow monotonically, capacity is retained; see
/// [`DpScratch::table_bytes`] for what that retains).
#[derive(Default)]
pub struct DpScratch {
    /// This scratch's own buckets (single-query path).
    buckets: EdgeBuckets,
    /// Per-edge budget cache (one accessor call per edge per run).
    ebud: Vec<i64>,
    /// Per-edge objective cache.
    eobj: Vec<i64>,
    /// The last run's labels and working buffers.
    sweep: Sweep,
    /// The threshold search's buffers.
    search: Search,
    /// Cooperative-cancellation token polled between DP levels. Defaults
    /// to [`CancelToken::never`]; riding in the scratch keeps the hot-path
    /// signatures stable.
    cancel: CancelToken,
}

impl DpScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    #[must_use]
    pub fn new() -> Self {
        DpScratch::default()
    }

    /// Installs the cancellation token future DP runs poll; pass
    /// [`CancelToken::never`] to make the scratch uncancellable again.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// The currently installed cancellation token.
    #[must_use]
    pub fn cancel(&self) -> &CancelToken {
        &self.cancel
    }

    /// Bytes of capacity the arena retains: labels, the candidate ring,
    /// the edge buckets, the per-node and per-edge buffers and both heaps.
    /// Labels grow with the most value drops any run has made and the ring
    /// with the largest budget bound, so a long-lived arena can use this to
    /// drop buffers one outsized solve left behind.
    #[must_use]
    pub fn table_bytes(&self) -> usize {
        let (sw, se) = (&self.sweep, &self.search);
        let ring = sw.ring.capacity() * std::mem::size_of::<Vec<Cand>>()
            + sw.ring.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<Cand>();
        sw.labels.capacity() * std::mem::size_of::<Label>()
            + ring
            + self.buckets.bytes()
            + (self.ebud.capacity()
                + self.eobj.capacity()
                + sw.cur.capacity()
                + se.h.capacity()
                + se.dist.capacity()
                + se.costs.capacity())
                * std::mem::size_of::<i64>()
            + (sw.head.capacity() + sw.fresh.capacity() + se.succ.capacity() + se.pred.capacity())
                * std::mem::size_of::<u32>()
            + sw.settled.capacity() * std::mem::size_of::<u64>()
            + (sw.heap.capacity() + se.heap.capacity()) * std::mem::size_of::<Reverse<(i64, u32)>>()
    }

    #[inline]
    fn value_at(&self, b: usize, v: NodeId) -> i64 {
        self.sweep
            .label_at(v.index(), b)
            .map_or(UNREACHED, |l| l.value)
    }
}

impl Sweep {
    /// Node `v`'s label in force at level `b`: its newest one at or below
    /// `b`.
    fn label_at(&self, v: usize, b: usize) -> Option<&Label> {
        let mut i = self.head[v];
        while i != NO_LABEL {
            let l = &self.labels[i as usize];
            if l.level as usize <= b {
                return Some(l);
            }
            i = l.prev;
        }
        None
    }

    /// `v`'s label from the level being computed (the labels from index
    /// `level_start` on), if its value already fell there.
    fn fresh_label(&self, v: usize, level_start: usize) -> Option<usize> {
        let h = self.head[v];
        (h != NO_LABEL && h as usize >= level_start).then_some(h as usize)
    }

    /// Lowers `v` to `value` at `level` with the given parent: a new label
    /// the first time `v` falls at this level, the same label rewritten
    /// after.
    fn fall(&mut self, v: u32, value: i64, par: (u32, u32), level: u32, level_start: usize) {
        let vi = v as usize;
        self.cur[vi] = value;
        if let Some(h) = self.fresh_label(vi, level_start) {
            let l = &mut self.labels[h];
            (l.value, l.par_edge, l.par_level) = (value, par.0, par.1);
        } else {
            self.labels.push(Label {
                value,
                level,
                par_edge: par.0,
                par_level: par.1,
                prev: self.head[vi],
            });
            self.head[vi] = u32::try_from(self.labels.len() - 1).expect("label count fits u32");
            self.fresh.push(v);
        }
    }
}

/// Destination buffers for [`digest_buckets`]: the per-edge caches and the
/// buckets to fill. Bundled so both call sites lend the same shape.
struct BucketBufs<'a> {
    ebud: &'a mut Vec<i64>,
    eobj: &'a mut Vec<i64>,
    out: &'a mut EdgeBuckets,
}

/// Builds the edge buckets the DP sweep relaxes over: one accessor call per
/// edge (cached in `ebud`/`eobj`), then per tail in out-edge order the
/// positive-budget edges with budget ≤ `bound` into one CSR and the
/// zero-budget edges into another. Shared by [`budget_dp`] (per-run buckets
/// in the scratch) and [`TopoDigest::build`] (buckets built once per
/// topology), so the two paths bucket identically by construction.
fn digest_buckets(
    graph: &DiGraph,
    bound: usize,
    budget_of: impl Fn(EdgeId) -> i64,
    objective_of: impl Fn(EdgeId) -> i64,
    bufs: BucketBufs<'_>,
) {
    let BucketBufs { ebud, eobj, out } = bufs;
    ebud.clear();
    eobj.clear();
    for (id, _) in graph.edge_iter() {
        let b = budget_of(id);
        let o = objective_of(id);
        assert!(b >= 0, "budgets must be nonnegative");
        assert!(o >= 0, "objectives must be nonnegative");
        ebud.push(b);
        eobj.push(o);
    }
    let EdgeBuckets {
        pos,
        pos_start,
        zero,
        zero_start,
        max_budget,
    } = out;
    pos.clear();
    pos_start.clear();
    zero.clear();
    zero_start.clear();
    *max_budget = 0;
    for v in graph.node_iter() {
        pos_start.push(pos.len() as u32);
        zero_start.push(zero.len() as u32);
        for &e in graph.out_edges(v) {
            let (b, obj, dst, id) = (ebud[e.index()], eobj[e.index()], graph.edge(e).dst.0, e.0);
            if b == 0 {
                zero.push(ZeroEdge { dst, obj, id });
            } else if b <= bound as i64 {
                *max_budget = (*max_budget).max(b as u32);
                pos.push(PosEdge {
                    obj,
                    budget: b as u32,
                    dst,
                    id,
                });
            }
        }
    }
    pos_start.push(pos.len() as u32);
    zero_start.push(zero.len() as u32);
}

/// Predigested edge buckets for one fixed `(graph, budget, objective,
/// bound)` shape, reusable across any number of DP runs.
///
/// The digest is the batch plane's shared read-only half: build it once per
/// topology with [`TopoDigest::delay_cost`], then answer many `(s, t, D)`
/// queries through [`constrained_shortest_path_digested`] /
/// [`constrained_shortest_paths_digested`] without re-walking the edge list
/// per query. Invariants (asserted at query time):
///
/// * the digest must have been built from the *same* graph the query runs
///   on (node and edge counts are checked; weights are the builder's
///   responsibility — a digest never outlives a graph mutation);
/// * every query bound must be ≤ the digest's `bound`. A sweep never
///   pushes a candidate past its own last level, and levels are computed
///   bottom-up, so a sweep truncated at a smaller bound is bit-identical to
///   a dedicated `budget_dp` run at that bound.
pub struct TopoDigest {
    buckets: EdgeBuckets,
    n: usize,
    m: usize,
    bound: usize,
    /// Topology version this digest describes; 0 for a fresh build, parent
    /// epoch + 1 for a digest derived through [`TopoDigest::evolve`].
    epoch: u64,
    /// Edge ids whose weights changed vs. the parent epoch (empty at epoch
    /// 0). This is the compact delta the cache-invalidation sweep consumes.
    delta: Vec<u32>,
}

impl TopoDigest {
    /// Digest for the exact restricted-shortest-path shape: budget = edge
    /// delay, objective = edge cost, usable for any query with
    /// `delay_bound ≤ max_delay_bound`.
    ///
    /// # Panics
    /// Panics when `max_delay_bound` is negative or any weight is negative.
    #[must_use]
    pub fn delay_cost(graph: &DiGraph, max_delay_bound: i64) -> TopoDigest {
        assert!(max_delay_bound >= 0, "delay bound must be nonnegative");
        TopoDigest::build(
            graph,
            max_delay_bound as usize,
            |e| graph.edge(e).delay,
            |e| graph.edge(e).cost,
        )
    }

    fn build(
        graph: &DiGraph,
        bound: usize,
        budget_of: impl Fn(EdgeId) -> i64,
        objective_of: impl Fn(EdgeId) -> i64,
    ) -> TopoDigest {
        let mut buckets = EdgeBuckets::default();
        digest_buckets(
            graph,
            bound,
            budget_of,
            objective_of,
            BucketBufs {
                ebud: &mut Vec::new(),
                eobj: &mut Vec::new(),
                out: &mut buckets,
            },
        );
        TopoDigest {
            buckets,
            n: graph.node_count(),
            m: graph.edge_count(),
            bound,
            epoch: 0,
            delta: Vec::new(),
        }
    }

    /// The largest query bound this digest supports.
    #[must_use]
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// The topology epoch this digest was built for (0 = fresh build).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Edge ids whose weights changed vs. the parent epoch.
    #[must_use]
    pub fn delta(&self) -> &[u32] {
        &self.delta
    }

    /// Derives the digest for the next topology epoch from a weight-only
    /// update, patching edge buckets in place instead of re-walking the
    /// whole edge list.
    ///
    /// `graph` is the *new* graph (same structure as the one this digest was
    /// built from — typically produced by [`DiGraph::with_updates`]) and
    /// `changed` lists the edges whose cost/delay differ from the parent
    /// epoch. Only valid for digests built with [`TopoDigest::delay_cost`]
    /// (budget = delay, objective = cost). When a change moves an edge
    /// across bucket classes (zero ↔ positive ↔ above-bound) the CSR layout
    /// shifts, so the digest falls back to a full rebuild — the result is
    /// identical either way, only the construction cost differs.
    ///
    /// # Panics
    /// Panics when the graph shape differs from the digest's, or any new
    /// weight is negative.
    #[must_use]
    pub fn evolve(&self, graph: &DiGraph, changed: &[EdgeId]) -> TopoDigest {
        self.check_graph(graph);
        let epoch = self.epoch + 1;
        let delta: Vec<u32> = changed.iter().map(|e| e.0).collect();
        let rebuild = |epoch: u64, delta: Vec<u32>| {
            let mut d = TopoDigest::delay_cost(graph, self.bound as i64);
            d.epoch = epoch;
            d.delta = delta;
            d
        };
        let mut next = TopoDigest {
            buckets: self.buckets.clone(),
            n: self.n,
            m: self.m,
            bound: self.bound,
            epoch,
            delta: delta.clone(),
        };
        let bk = &mut next.buckets;
        for &e in changed {
            let rec = graph.edge(e);
            let (b, o) = (rec.delay, rec.cost);
            assert!(b >= 0, "budgets must be nonnegative");
            assert!(o >= 0, "objectives must be nonnegative");
            // Both CSRs group by tail, so membership is a scan of the
            // tail's own out-edges.
            let src = rec.src.index();
            let plo = bk.pos_start[src] as usize;
            let in_pos = bk.pos_of(src).iter().position(|p| p.id == e.0);
            let zlo = bk.zero_start[src] as usize;
            let in_zero = bk.zero_of(src).iter().position(|z| z.id == e.0);
            if b >= 1 && b <= self.bound as i64 {
                match (in_pos, in_zero) {
                    (Some(i), None) => {
                        bk.pos[plo + i].budget = b as u32;
                        bk.pos[plo + i].obj = o;
                    }
                    // was zero-budget or above-bound: bucket class changed
                    _ => return rebuild(epoch, delta),
                }
            } else if b == 0 {
                match (in_pos, in_zero) {
                    (None, Some(k)) => bk.zero[zlo + k].obj = o,
                    _ => return rebuild(epoch, delta),
                }
            } else {
                // b > bound: the edge must be in neither bucket.
                if in_pos.is_some() || in_zero.is_some() {
                    return rebuild(epoch, delta);
                }
            }
        }
        bk.max_budget = bk.pos.iter().map(|p| p.budget).max().unwrap_or(0);
        next
    }

    /// Asserts the digest was built from a graph of this shape.
    fn check_graph(&self, graph: &DiGraph) {
        assert_eq!(self.n, graph.node_count(), "digest/graph node mismatch");
        assert_eq!(self.m, graph.edge_count(), "digest/graph edge mismatch");
    }
}

/// How a [`dp_sweep`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SweepOutcome {
    /// The stop predicate held at this level; no level above it was
    /// computed.
    Found(usize),
    /// The stop predicate never held, and no value can fall at any level
    /// left: every level is readable.
    Exhausted,
    /// The scratch's [`CancelToken`] tripped mid-run (the labels are
    /// partial and must not be read).
    Cancelled,
}

/// Stop predicate of the sweeps that need every level (the exact DP and
/// the batch plane): never fires, so the check monomorphizes away.
fn full_sweep(_row: &[i64]) -> bool {
    false
}

/// Stop predicate of the FPTAS probes: the first level at which `t` is
/// reachable with value at most `feas_bound`.
fn reaches(t: NodeId, feas_bound: i64) -> impl Fn(&[i64]) -> bool {
    move |row| {
        let v = row[t.index()];
        v != UNREACHED && v <= feas_bound
    }
}

/// Budgeted DP over the scratch arena: `value[b][v]` = minimum `objective`
/// over `s→v` walks with `Σ budget ≤ b`, for `b = 0..=bound`, stopping at
/// the first level whose row satisfies `stop`. Zero-budget edges are
/// handled with a per-level Dijkstra pass over the zero-edge CSR
/// (objectives must be nonnegative).
///
/// Values, parents and recovered paths are bit-identical to the dense
/// `reference::budget_dp` (see the module docs for why).
#[must_use]
fn budget_dp(
    scratch: &mut DpScratch,
    graph: &DiGraph,
    s: NodeId,
    bound: usize,
    budget_of: impl Fn(EdgeId) -> i64,
    objective_of: impl Fn(EdgeId) -> i64,
    stop: impl Fn(&[i64]) -> bool,
) -> SweepOutcome {
    // Predigest the weights: one accessor call per edge, validated once.
    digest_buckets(
        graph,
        bound,
        budget_of,
        objective_of,
        BucketBufs {
            ebud: &mut scratch.ebud,
            eobj: &mut scratch.eobj,
            out: &mut scratch.buckets,
        },
    );
    dp_sweep(
        &mut scratch.sweep,
        &scratch.buckets,
        &scratch.cancel,
        graph.node_count(),
        s,
        bound + 1,
        stop,
    )
}

/// The sparse sweep proper, over already-built buckets: writes the labels
/// of levels `0..levels`, stopping after the first level whose row
/// satisfies `stop`, or once nothing is pending. The buckets may be the
/// scratch's own ([`budget_dp`]) or a shared [`TopoDigest`]'s; either way
/// no candidate is pushed past level `levels − 1`, so buckets built at any
/// bound ≥ `levels − 1` produce identical labels.
#[must_use]
fn dp_sweep(
    sw: &mut Sweep,
    buckets: &EdgeBuckets,
    cancel: &CancelToken,
    n: usize,
    s: NodeId,
    levels: usize,
    stop: impl Fn(&[i64]) -> bool,
) -> SweepOutcome {
    fail_point!("csp.dp", |_msg| SweepOutcome::Cancelled);
    if cancel.is_cancelled() {
        return SweepOutcome::Cancelled;
    }
    // Candidates target at most `max_budget` (and at most `levels − 1`)
    // levels ahead, so that many buckets plus the current one never alias.
    let ring_len = (buckets.max_budget as usize).min(levels - 1) + 1;
    sw.levels = levels;
    sw.swept = 0;
    sw.labels.clear();
    sw.fresh.clear();
    sw.head.clear();
    sw.head.resize(n, NO_LABEL);
    sw.cur.clear();
    sw.cur.resize(n, UNREACHED);
    if sw.settled.len() < n {
        sw.settled.resize(n, 0);
    }
    if sw.ring.len() < ring_len {
        sw.ring.resize_with(ring_len, Vec::new);
    }
    // A stopped or cancelled run leaves candidates behind.
    sw.ring[..ring_len].iter_mut().for_each(Vec::clear);
    let has_zero = !buckets.zero.is_empty();
    let mut pending = 0usize;

    for b in 0..levels {
        // Poll every 32 levels: frequent enough to stop a runaway scaled
        // DP, rare enough to stay off the profile.
        if b & 31 == 0 && cancel.is_cancelled() {
            return SweepOutcome::Cancelled;
        }
        if b > 0 && pending == 0 {
            // No value can fall at any level left.
            return SweepOutcome::Exhausted;
        }
        sw.swept = b + 1;
        let level = b as u32;
        let level_start = sw.labels.len();
        if b == 0 {
            sw.fall(s.0, 0, (NO_PARENT, 0), 0, 0);
        } else {
            // The candidates due here: the smallest `(value, id)` below the
            // carried value wins (a tie keeps the smaller edge id).
            let mut due = std::mem::take(&mut sw.ring[b % ring_len]);
            pending -= due.len();
            for c in &due {
                let v = c.dst as usize;
                let wins = c.value < sw.cur[v]
                    || (c.value == sw.cur[v]
                        && sw
                            .fresh_label(v, level_start)
                            .is_some_and(|h| c.id < sw.labels[h].par_edge));
                if wins {
                    sw.fall(c.dst, c.value, (c.id, c.from), level, level_start);
                }
            }
            due.clear();
            sw.ring[b % ring_len] = due;
        }
        if sw.fresh.is_empty() {
            // Nothing fell, so the row (and the stop verdict) is the last
            // level's.
            continue;
        }
        if has_zero {
            zero_pass(sw, buckets, level, level_start);
        }
        if stop(&sw.cur) {
            return SweepOutcome::Found(b);
        }
        for i in 0..sw.fresh.len() {
            let u = sw.fresh[i] as usize;
            let value = sw.cur[u];
            for pe in buckets.pos_of(u) {
                let to = b + pe.budget as usize;
                let cand = value + pe.obj;
                if to < levels && cand < sw.cur[pe.dst as usize] {
                    sw.ring[to % ring_len].push(Cand {
                        value: cand,
                        dst: pe.dst,
                        id: pe.id,
                        from: level,
                    });
                    pending += 1;
                }
            }
        }
        sw.fresh.clear();
    }
    SweepOutcome::Exhausted
}

/// The within-level relaxation over zero-budget edges (Dijkstra flavor,
/// strict `<`, smallest `(value, node)` first), seeded with the nodes
/// labelled at this level so far. Only nodes with outgoing zero-budget
/// edges can propagate, so only they enter the heap.
fn zero_pass(sw: &mut Sweep, buckets: &EdgeBuckets, level: u32, level_start: usize) {
    sw.gen += 1;
    let gen = sw.gen;
    sw.heap.clear();
    for i in 0..sw.fresh.len() {
        let v = sw.fresh[i];
        if buckets.zero_tail(v) {
            sw.heap.push(Reverse((sw.cur[v as usize], v)));
        }
    }
    while let Some(Reverse((dv, v))) = sw.heap.pop() {
        if sw.settled[v as usize] == gen || sw.cur[v as usize] != dv {
            continue;
        }
        sw.settled[v as usize] = gen;
        for ze in buckets.zero_of(v as usize) {
            let cand = dv + ze.obj;
            if cand < sw.cur[ze.dst as usize] {
                sw.fall(ze.dst, cand, (ze.id, level), level, level_start);
                if buckets.zero_tail(ze.dst) {
                    sw.heap.push(Reverse((cand, ze.dst)));
                }
            }
        }
    }
}

/// Reconstructs the path reaching `t` at level `b` of the scratch's last
/// sweep: from each node's label in force at the current level, step to
/// the parent edge's tail at the parent level.
fn recover(
    scratch: &DpScratch,
    graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    mut b: usize,
) -> Vec<EdgeId> {
    let sw = &scratch.sweep;
    let mut edges = Vec::new();
    let mut v = t;
    let mut guard = 0usize;
    while v != s {
        let label = sw.label_at(v.index(), b).expect("dp parent chain intact");
        assert!(label.par_edge != NO_PARENT, "dp parent chain intact");
        let e = EdgeId(label.par_edge);
        edges.push(e);
        v = graph.edge(e).src;
        b = label.par_level as usize;
        guard += 1;
        assert!(
            guard <= graph.edge_count() + sw.levels,
            "dp path recovery loop"
        );
    }
    edges.reverse();
    edges
}

/// Exact restricted shortest path: minimum-cost `s→t` path with total delay
/// at most `delay_bound`. Pseudo-polynomial: `O(D·m·log n)`.
///
/// Requires nonnegative costs and delays. Allocates a fresh [`DpScratch`];
/// use [`constrained_shortest_path_with`] to amortize across calls.
#[must_use]
pub fn constrained_shortest_path(
    graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    delay_bound: i64,
) -> Option<CspPath> {
    constrained_shortest_path_with(graph, s, t, delay_bound, &mut DpScratch::new())
}

/// [`constrained_shortest_path`] over a caller-owned scratch arena.
#[must_use]
pub fn constrained_shortest_path_with(
    graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    delay_bound: i64,
    scratch: &mut DpScratch,
) -> Option<CspPath> {
    assert!(delay_bound >= 0);
    let bound = delay_bound as usize;
    let outcome = budget_dp(
        scratch,
        graph,
        s,
        bound,
        |e| graph.edge(e).delay,
        |e| graph.edge(e).cost,
        full_sweep,
    );
    if outcome == SweepOutcome::Cancelled || scratch.value_at(bound, t) == UNREACHED {
        return None;
    }
    let edges = recover(scratch, graph, s, t, bound);
    let p = CspPath::from_edges(graph, edges);
    debug_assert!(p.delay <= delay_bound);
    Some(p)
}

/// One restricted-shortest-path query against a shared [`TopoDigest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CspQuery {
    /// Source node.
    pub s: NodeId,
    /// Target node.
    pub t: NodeId,
    /// Delay budget; must be `≤` the digest's bound.
    pub delay_bound: i64,
}

/// [`constrained_shortest_path_with`] against a prebuilt [`TopoDigest`]:
/// skips the per-call edge walk and bucket build. Bit-identical to the
/// undigested call for any `delay_bound ≤ digest.bound()`.
///
/// # Panics
/// Panics when the digest does not match `graph`'s shape, or
/// `delay_bound` is negative or exceeds the digest bound.
#[must_use]
pub fn constrained_shortest_path_digested(
    graph: &DiGraph,
    digest: &TopoDigest,
    s: NodeId,
    t: NodeId,
    delay_bound: i64,
    scratch: &mut DpScratch,
) -> Option<CspPath> {
    digest.check_graph(graph);
    assert!(delay_bound >= 0, "delay bound must be nonnegative");
    assert!(
        delay_bound as usize <= digest.bound,
        "query bound {delay_bound} exceeds digest bound {}",
        digest.bound
    );
    let bound = delay_bound as usize;
    let outcome = dp_sweep(
        &mut scratch.sweep,
        &digest.buckets,
        &scratch.cancel,
        digest.n,
        s,
        bound + 1,
        full_sweep,
    );
    if outcome == SweepOutcome::Cancelled || scratch.value_at(bound, t) == UNREACHED {
        return None;
    }
    let edges = recover(scratch, graph, s, t, bound);
    let p = CspPath::from_edges(graph, edges);
    debug_assert!(p.delay <= delay_bound);
    Some(p)
}

/// Answers a block of queries against one shared [`TopoDigest`], sharing
/// DP sweeps across queries with the same source.
///
/// Queries are grouped by source in first-appearance order; each group
/// runs **one** sweep to the group's largest bound. A value at any level
/// `b` depends only on levels `≤ b` (and no candidate is pushed past the
/// sweep's last level), so every query reads the same labels — and
/// recovers the same parents — as a dedicated
/// [`constrained_shortest_path_with`] run at its own bound: results are
/// bit-identical, query by query.
///
/// A tripped [`CancelToken`] in the scratch stops the remaining sweeps;
/// unanswered queries come back `None`, like the single-query calls.
///
/// # Panics
/// Panics when the digest does not match `graph`'s shape, or any query
/// bound is negative or exceeds the digest bound.
#[must_use]
pub fn constrained_shortest_paths_digested(
    graph: &DiGraph,
    digest: &TopoDigest,
    queries: &[CspQuery],
    scratch: &mut DpScratch,
) -> Vec<Option<CspPath>> {
    digest.check_graph(graph);
    let mut groups: Vec<(NodeId, Vec<usize>)> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        assert!(q.delay_bound >= 0, "delay bound must be nonnegative");
        assert!(
            q.delay_bound as usize <= digest.bound,
            "query bound {} exceeds digest bound {}",
            q.delay_bound,
            digest.bound
        );
        match groups.iter_mut().find(|(s, _)| *s == q.s) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((q.s, vec![i])),
        }
    }
    let mut out: Vec<Option<CspPath>> = vec![None; queries.len()];
    for (s, idxs) in groups {
        let max_bound = idxs
            .iter()
            .map(|&i| queries[i].delay_bound as usize)
            .max()
            .expect("group is nonempty");
        let outcome = dp_sweep(
            &mut scratch.sweep,
            &digest.buckets,
            &scratch.cancel,
            digest.n,
            s,
            max_bound + 1,
            full_sweep,
        );
        if outcome == SweepOutcome::Cancelled {
            break;
        }
        for &i in &idxs {
            let q = &queries[i];
            let bound = q.delay_bound as usize;
            if scratch.value_at(bound, q.t) == UNREACHED {
                continue;
            }
            let edges = recover(scratch, graph, s, q.t, bound);
            let p = CspPath::from_edges(graph, edges);
            debug_assert!(p.delay <= q.delay_bound);
            out[i] = Some(p);
        }
    }
    out
}

impl Search {
    /// Min-delay search from `t` over reversed edges: fills `h` and `succ`.
    /// A node whose every path to `t` is slower than `bound` keeps
    /// `h = UNREACHED`: no path within the bound passes through it.
    fn reverse(&mut self, graph: &DiGraph, t: NodeId, bound: i64) {
        let n = graph.node_count();
        self.h.clear();
        self.h.resize(n, UNREACHED);
        self.succ.clear();
        self.succ.resize(n, NO_PARENT);
        self.heap.clear();
        self.h[t.index()] = 0;
        self.heap.push(Reverse((0, t.0)));
        while let Some(Reverse((dv, v))) = self.heap.pop() {
            if dv != self.h[v as usize] {
                continue;
            }
            for &e in graph.in_edges(NodeId(v)) {
                let r = graph.edge(e);
                let cand = dv.saturating_add(r.delay);
                if cand < self.h[r.src.index()] && cand <= bound {
                    self.h[r.src.index()] = cand;
                    self.succ[r.src.index()] = e.0;
                    self.heap.push(Reverse((cand, r.src.0)));
                }
            }
        }
    }

    /// One forward search from `s` over the edges of cost ≤ `theta`, pruned
    /// to the nodes that can still reach `t` within `bound`
    /// (`dist + h ≤ bound`; [`Search::reverse`] must have run). Returns
    /// whether `t` is reachable within `bound`.
    ///
    /// A probe (`witness = false`) pops by `dist + h` and answers at the
    /// first arrival at `t`. The witness search pops by `(dist, node)`, the
    /// order of a full Dijkstra, and stops once `t` is settled, leaving the
    /// full Dijkstra's path to `t` in `pred` (see [`threshold_search`]).
    fn forward(
        &mut self,
        graph: &DiGraph,
        s: NodeId,
        t: NodeId,
        bound: i64,
        theta: i64,
        witness: bool,
    ) -> bool {
        let n = graph.node_count();
        self.dist.clear();
        self.dist.resize(n, UNREACHED);
        self.pred.clear();
        self.pred.resize(n, NO_PARENT);
        self.heap.clear();
        // Every key pushed has `dist + h ≤ bound`, so it cannot overflow.
        let key = |dist: i64, h: i64| if witness { dist } else { dist + h };
        self.dist[s.index()] = 0;
        self.heap.push(Reverse((key(0, self.h[s.index()]), s.0)));
        while let Some(Reverse((k, u))) = self.heap.pop() {
            let du = self.dist[u as usize];
            if k != key(du, self.h[u as usize]) {
                continue;
            }
            if u == t.0 {
                return true;
            }
            for &e in graph.out_edges(NodeId(u)) {
                let r = graph.edge(e);
                let v = r.dst.index();
                let (cand, hv) = (du.saturating_add(r.delay), self.h[v]);
                if r.cost > theta
                    || cand >= self.dist[v]
                    || hv == UNREACHED
                    || cand.saturating_add(hv) > bound
                {
                    continue;
                }
                if !witness && v == t.index() {
                    return true;
                }
                self.dist[v] = cand;
                self.pred[v] = e.0;
                self.heap.push(Reverse((key(cand, hv), r.dst.0)));
            }
        }
        false
    }

    /// The last witness search's path to `t`, walked back along `pred`.
    fn path(&self, graph: &DiGraph, s: NodeId, t: NodeId) -> Vec<EdgeId> {
        let mut edges = Vec::new();
        let mut v = t;
        while v != s {
            let e = EdgeId(self.pred[v.index()]);
            edges.push(e);
            v = graph.edge(e).src;
        }
        edges.reverse();
        edges
    }
}

/// Phase A of both FPTAS kernels: the smallest edge cost `c*` such that
/// the edges of cost ≤ `c*` hold an `s→t` path of delay at most
/// `delay_bound`, and the min-delay path among them, the *witness*. An
/// optimal path is simple and has an edge of cost ≥ `c*`, so
/// `c* ≤ OPT ≤ cost(witness) ≤ (n−1)·c*`. `None` when no path meets the
/// bound.
///
/// One reverse min-delay search from `t` over every edge gives `h(v)`, a
/// consistent lower bound on the delay from `v` to `t` in every threshold
/// subgraph: the instance is feasible iff `h(s) ≤ D`, and the costliest
/// edge of the min-delay path it finds is a feasible threshold, so only
/// the distinct costs below it are bisected. Each probe skips the edges
/// above its threshold, prunes every node with `dist + h > D` and answers
/// at the first arrival at `t`. The witness search at `c*` pops in the
/// `(dist, node)` order of a full Dijkstra with the same pruning, and
/// stops once `t` is settled. It returns exactly the full Dijkstra's path
/// (`reference::threshold_search`): a node on that path, or a tail that
/// reaches one at its distance, has `dist + h ≤ dist(t) ≤ D`, so no pruned
/// node decides a parent there, and pruning does not reorder the nodes it
/// keeps.
///
/// All buffers live in the scratch; every sum saturates.
#[must_use]
pub fn threshold_search(
    graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    delay_bound: i64,
    scratch: &mut DpScratch,
) -> Option<(i64, CspPath)> {
    let se = &mut scratch.search;
    se.reverse(graph, t, delay_bound);
    if se.h[s.index()] == UNREACHED {
        return None;
    }
    let mut top = 0;
    let mut v = s;
    while v != t {
        let r = graph.edge(EdgeId(se.succ[v.index()]));
        top = top.max(r.cost);
        v = r.dst;
    }
    se.costs.clear();
    let below = graph.edges().iter().map(|e| e.cost).filter(|&c| c < top);
    se.costs.extend(below.chain([0, top]));
    se.costs.sort_unstable();
    se.costs.dedup();
    let (mut lo, mut hi) = (0, se.costs.len() - 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if se.forward(graph, s, t, delay_bound, se.costs[mid], false) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let cstar = se.costs[lo];
    let found = se.forward(graph, s, t, delay_bound, cstar, true);
    debug_assert!(found, "c* is feasible by construction");
    Some((cstar, CspPath::from_edges(graph, se.path(graph, s, t))))
}

/// Integer geometric mean `⌊√(lb·ub)⌋`, clamped into `[lb, ub]`.
///
/// Computed with an exact `u128` integer square root: the `f64` route
/// (`((lb·ub) as f64).sqrt()`) loses precision once `lb·ub` exceeds 2^53,
/// and a midpoint rounded up past `⌊√(lb·ub)⌋` can violate the bracket
/// invariant (`2·mid < ub`) the Hassin/Larac-style shrink loop relies on —
/// stalling or misbisecting the search near `i64::MAX`.
pub(crate) fn geometric_midpoint(lb: i64, ub: i64) -> i64 {
    debug_assert!(0 < lb && lb <= ub);
    let mid = krsp_numeric::isqrt(lb as u128 * ub as u128) as i64;
    mid.clamp(lb, ub)
}

/// Lorenz–Raz style FPTAS for the restricted shortest path problem:
/// returns a path with `delay ≤ delay_bound` and
/// `cost ≤ (1 + eps_num/eps_den) · OPT`, or `None` if infeasible.
///
/// Runs in time polynomial in the graph size and `eps_den/eps_num`.
/// Allocates a fresh [`DpScratch`]; use [`rsp_fptas_with`] to amortize
/// across calls.
#[must_use]
pub fn rsp_fptas(
    graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    delay_bound: i64,
    eps_num: u32,
    eps_den: u32,
) -> Option<CspPath> {
    rsp_fptas_with(
        graph,
        s,
        t,
        delay_bound,
        eps_num,
        eps_den,
        &mut DpScratch::new(),
    )
}

/// [`rsp_fptas`] over a caller-owned scratch arena: the threshold search
/// and every DP probe of the geometric bisection reuse the same buffers.
#[must_use]
pub fn rsp_fptas_with(
    graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    delay_bound: i64,
    eps_num: u32,
    eps_den: u32,
    scratch: &mut DpScratch,
) -> Option<CspPath> {
    assert!(eps_num > 0 && eps_den > 0, "epsilon must be positive");
    assert!(delay_bound >= 0);
    let n = graph.node_count() as i64;

    // Feasibility + bottleneck bounds: OPT ∈ [c*, n·c*].
    let (cstar, witness) = threshold_search(graph, s, t, delay_bound, scratch)?;
    if cstar == 0 {
        // A zero-cost feasible path exists: the witness, which is optimal.
        debug_assert_eq!(witness.cost, 0);
        return Some(witness);
    }
    // OPT ≥ lb, and a feasible path of cost ≤ ub exists: the witness costs
    // at most n·c* and is an `i64`, so saturating keeps that true.
    let mut lb = cstar;
    let mut ub = n.saturating_mul(cstar);
    // The cost of the cheapest delay-feasible path in hand.
    let mut known = witness.cost;

    // Scaled test: does a delay-feasible path of cost ≤ c(1+ε0) exist?
    // (pass ⇒ such a path is produced; fail ⇒ OPT > c). ε0 = 1 here.
    // Takes the scratch explicitly so every probe reuses one arena. The
    // sweep stops at the lowest delay-feasible level, the one a full
    // sweep's bottom-up scan would pick.
    let test = |scratch: &mut DpScratch, c: i64| -> SweepOutcome {
        // θ = c / (n+1); scaled cost c'(e) = floor(c(e)/θ); budget n+1.
        // For any ≤n-edge path: c(P)/θ − n ≤ c'(P) ≤ c(P)/θ.
        let budget = (n + 1) as usize; // floor(c/θ) = n+1
        let scaled = |e: EdgeId| -> i64 {
            (i128::from(graph.edge(e).cost) * i128::from(n + 1) / i128::from(c))
                .min(budget as i128 + 1) as i64
        };
        budget_dp(
            scratch,
            graph,
            s,
            budget,
            scaled,
            |e| graph.edge(e).delay,
            reaches(t, delay_bound),
        )
    };

    // Geometric shrink until ub ≤ 4·lb. The test at the integer geometric
    // mean `c` either certifies OPT > c (fail ⇒ lb := c+1) or produces a
    // feasible path of cost ≤ 2c (pass ⇒ ub := 2c, using ε₀ = 1). While
    // ub > 4·lb, `2·⌊√(lb·ub)⌋ < ub`, so both branches strictly shrink the
    // bracket and the loop terminates in O(log log(ub/lb)) tests.
    //
    // A test at `c ≥ known` must pass (OPT ≤ known ≤ c, so an optimal path
    // has scaled cost ≤ n+1), so it takes the pass branch without running
    // its DP: the bracket moves exactly as if it had run.
    while lb.saturating_mul(4) < ub {
        // A cancelled shrink probe fails, which is indistinguishable from
        // "OPT > c" — check the token explicitly so cancellation never
        // misnarrows the bracket.
        if scratch.cancel.is_cancelled() {
            return None;
        }
        let c = geometric_midpoint(lb, ub);
        let passes = if c >= known {
            debug_assert_ne!(
                test(scratch, c),
                SweepOutcome::Exhausted,
                "a path of cost ≤ c is in hand, so the test at c passes"
            );
            true
        } else if let SweepOutcome::Found(b) = test(scratch, c) {
            let p = CspPath::from_edges(graph, recover(scratch, graph, s, t, b));
            debug_assert!(
                i128::from(p.cost) <= 2 * i128::from(c),
                "test contract: cost ≤ (1+ε₀)·c"
            );
            known = known.min(p.cost);
            true
        } else {
            false
        };
        if passes {
            ub = ub.min(c.saturating_mul(2).max(lb));
        } else {
            lb = c + 1;
        }
        debug_assert!(lb <= ub);
    }

    // Final scaled DP with target ε: θ = lb·ε/(n+1), again stopping at the
    // lowest delay-feasible level.
    // scaled(e) = floor(c(e)/θ) = floor(c(e)·(n+1)·eps_den / (lb·eps_num)).
    let denom = lb as i128 * eps_num as i128;
    // Budget: c'(P*) ≤ OPT/θ ≤ ub·(n+1)·eps_den/(lb·eps_num) (+ slack n).
    let budget = ((ub as i128 * (n as i128 + 1) * eps_den as i128) / denom + n as i128 + 1)
        .min(i128::from(u32::MAX)) as usize;
    let scaled = |e: EdgeId| -> i64 {
        ((graph.edge(e).cost as i128 * (n as i128 + 1) * eps_den as i128) / denom)
            .min(budget as i128 + 1) as i64
    };
    let SweepOutcome::Found(b) = budget_dp(
        scratch,
        graph,
        s,
        budget,
        scaled,
        |e| graph.edge(e).delay,
        reaches(t, delay_bound),
    ) else {
        return None;
    };
    let p = CspPath::from_edges(graph, recover(scratch, graph, s, t, b));
    debug_assert!(p.delay <= delay_bound);
    Some(p)
}

/// Interval-scaling FPTAS for the restricted shortest path problem
/// (Holzmüller-style improvement over the classic scheme): same contract as
/// [`rsp_fptas`] — `delay ≤ delay_bound`, `cost ≤ (1+ε)·OPT`, or `None` if
/// infeasible — but the final scaled DP runs over a bracket narrowed well
/// below the classic scheme's fixed `ub ≤ 4·lb`, so at small ε it reaches
/// its first delay-feasible level after far fewer budget levels.
///
/// Allocates a fresh [`DpScratch`]; use [`rsp_fptas_interval_with`] to
/// amortize across calls.
#[must_use]
pub fn rsp_fptas_interval(
    graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    delay_bound: i64,
    eps_num: u32,
    eps_den: u32,
) -> Option<CspPath> {
    rsp_fptas_interval_with(
        graph,
        s,
        t,
        delay_bound,
        eps_num,
        eps_den,
        &mut DpScratch::new(),
    )
}

/// [`rsp_fptas_interval`] over a caller-owned scratch arena.
///
/// The scheme sharpens the classic pipeline in two places (every DP here,
/// as there, stops at the first delay-feasible level):
///
/// 1. every interval test that *passes* keeps the witness path it
///    recovered, so `ub` is always the cost of a real delay-feasible path
///    (an *incumbent*), not the looser analytic bound `2c`;
/// 2. after the ε₀ = 1 geometric shrink, a short ladder of higher-precision
///    interval tests (ε_t = 1/2, then 1/4, …) keeps halving the bracket
///    while each test costs only `(n+1)/ε_t` DP levels — negligible against
///    the `(ub/lb)·(n+1)/ε` levels it saves from the final DP. The ladder
///    stops as soon as a round would cost a constant fraction of the final
///    DP (`ε_t < 2ε`), or the bracket already certifies the incumbent
///    (`ub ≤ (1+ε)·lb` — then the incumbent is returned with no final DP
///    at all).
///
/// Every interval test is a cancellation point (the scratch's
/// [`CancelToken`] is honoured exactly like [`rsp_fptas_with`]'s) and
/// carries the `csp.interval_test` failpoint for fault injection.
#[must_use]
pub fn rsp_fptas_interval_with(
    graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    delay_bound: i64,
    eps_num: u32,
    eps_den: u32,
    scratch: &mut DpScratch,
) -> Option<CspPath> {
    assert!(eps_num > 0 && eps_den > 0, "epsilon must be positive");
    assert!(delay_bound >= 0);
    let n = graph.node_count() as i64;

    // Phase A — feasibility + bottleneck bracket, as in the classic scheme;
    // the threshold search's witness is the first incumbent, so `ub` starts
    // at a real path cost (≤ n·c*).
    let (cstar, mut incumbent) = threshold_search(graph, s, t, delay_bound, scratch)?;
    debug_assert!(incumbent.delay <= delay_bound);
    if cstar == 0 {
        // A zero-cost feasible path exists; the witness is exactly the
        // min-delay path over cost-0 edges, hence optimal.
        debug_assert_eq!(incumbent.cost, 0);
        return Some(incumbent);
    }
    let mut lb = cstar; // OPT ≥ lb, always (test failures only raise it)
    let mut ub = incumbent.cost.max(lb); // witnessed by the incumbent

    // Generalized interval test at precision ε_t = tn/td: does a
    // delay-feasible path of cost ≤ (1+ε_t)·c exist? θ = c·tn/(td·(n+1)),
    // scaled(e) = ⌊cost(e)/θ⌋, budget = ⌊c/θ⌋ = ⌊td·(n+1)/tn⌋. If OPT ≤ c
    // then scaled(P*) ≤ budget, so the sweep reaches a delay-feasible level
    // and the recovered path Q has cost ≤ θ·(budget + n) ≤ (1+ε_t)·c; a
    // completed test that finds nothing therefore certifies OPT > c. The
    // early-exit sweep stops at the first feasible level, so a test costs
    // at most `td·(n+1)/tn` levels.
    let test = |scratch: &mut DpScratch, c: i64, tn: i64, td: i64| -> SweepOutcome {
        fail_point!("csp.interval_test", |_msg| SweepOutcome::Cancelled);
        let denom = c as i128 * tn as i128;
        let scaled = |e: EdgeId| -> i128 {
            graph.edge(e).cost as i128 * td as i128 * (n as i128 + 1) / denom
        };
        let budget = (td as i128 * (n as i128 + 1) / tn as i128).min(i128::from(u32::MAX)) as usize;
        budget_dp(
            scratch,
            graph,
            s,
            budget,
            |e| scaled(e).min(budget as i128 + 1) as i64,
            |e| graph.edge(e).delay,
            reaches(t, delay_bound),
        )
    };
    // Applies one test outcome to the bracket; returns `false` on
    // cancellation (the bracket is then untouched — a cancelled probe must
    // never masquerade as an "OPT > c" certificate).
    let apply = |scratch: &mut DpScratch,
                 c: i64,
                 tn: i64,
                 td: i64,
                 lb: &mut i64,
                 ub: &mut i64,
                 incumbent: &mut CspPath|
     -> bool {
        match test(scratch, c, tn, td) {
            SweepOutcome::Found(b) => {
                let edges = recover(scratch, graph, s, t, b);
                let p = CspPath::from_edges(graph, edges);
                debug_assert!(p.delay <= delay_bound);
                debug_assert!(
                    p.cost as i128 * td as i128 <= c as i128 * (td + tn) as i128,
                    "test contract: cost ≤ (1+ε_t)·c"
                );
                *ub = (*ub).min(p.cost.max(*lb));
                if p.cost < incumbent.cost {
                    *incumbent = p;
                }
                true
            }
            SweepOutcome::Exhausted => {
                *lb = c + 1;
                true
            }
            SweepOutcome::Cancelled => false,
        }
    };

    // Phase B — ε₀ = 1 geometric shrink until ub ≤ 4·lb, exactly as the
    // classic scheme, but each pass tightens ub to the witness path's
    // actual cost (≤ 2c), which can only shrink the bracket faster.
    while lb.saturating_mul(4) < ub {
        if scratch.cancel.is_cancelled() {
            return None;
        }
        let c = geometric_midpoint(lb, ub);
        if !apply(scratch, c, 1, 1, &mut lb, &mut ub, &mut incumbent) {
            return None;
        }
        debug_assert!(lb <= ub);
    }

    // Already certified? cost(incumbent) = ub ≤ (1+ε)·lb ≤ (1+ε)·OPT.
    let certified =
        |lb: i64, ub: i64| ub as i128 * eps_den as i128 <= lb as i128 * (eps_den + eps_num) as i128;

    // Phase C — refinement ladder: two tests per precision tier ε_t = 1/2,
    // 1/4, 1/8 drive the bracket toward its (1+ε_t)² fixed point. A tier
    // only runs while it is clearly profitable (ε_t ≥ 2ε, so a test costs
    // at most half the final DP's per-unit-bracket rate) and the bracket
    // is not yet certified.
    'ladder: for td in [2i64, 4, 8] {
        for _ in 0..2 {
            if certified(lb, ub) {
                return Some(incumbent);
            }
            if i128::from(td) * i128::from(eps_num) * 2 > i128::from(eps_den) {
                break 'ladder; // ε_t = 1/td < 2ε: not worth another test
            }
            if scratch.cancel.is_cancelled() {
                return None;
            }
            let c = geometric_midpoint(lb, ub);
            if !apply(scratch, c, 1, td, &mut lb, &mut ub, &mut incumbent) {
                return None;
            }
            debug_assert!(lb <= ub);
        }
    }
    if certified(lb, ub) {
        return Some(incumbent);
    }

    // Phase D — final scaled DP at the target ε over the narrowed bracket,
    // stopping at the first delay-feasible level. θ = lb·ε/(n+1), as in the
    // classic scheme; the budget covers scaled(P*) ≤ ub/θ plus n+1 slack,
    // and the incumbent guarantees a feasible level exists within it.
    let denom = lb as i128 * eps_num as i128;
    let scaled = |e: EdgeId| -> i128 {
        graph.edge(e).cost as i128 * (n as i128 + 1) * eps_den as i128 / denom
    };
    let budget = ((ub as i128 * (n as i128 + 1) * eps_den as i128) / denom + n as i128 + 1)
        .min(i128::from(u32::MAX)) as usize;
    match budget_dp(
        scratch,
        graph,
        s,
        budget,
        |e| scaled(e).min(budget as i128 + 1) as i64,
        |e| graph.edge(e).delay,
        reaches(t, delay_bound),
    ) {
        SweepOutcome::Found(b) => {
            let edges = recover(scratch, graph, s, t, b);
            let p = CspPath::from_edges(graph, edges);
            debug_assert!(p.delay <= delay_bound);
            Some(p)
        }
        // The incumbent's scaled cost fits the budget, so exhaustion cannot
        // happen on a completed sweep; return the incumbent defensively.
        SweepOutcome::Exhausted => Some(incumbent),
        SweepOutcome::Cancelled => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krsp_gen::{Family, Regime};
    use krsp_graph::EdgeRef;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    /// Cheap path is slow; fast path is pricey.
    fn tradeoff_graph() -> DiGraph {
        DiGraph::from_edges(
            4,
            &[
                (0, 1, 1, 10), // cheap+slow leg
                (1, 3, 1, 10),
                (0, 2, 10, 1), // fast+pricey leg
                (2, 3, 10, 1),
            ],
        )
    }

    #[test]
    fn exact_obeys_budget() {
        let g = tradeoff_graph();
        // Loose budget: cheap path.
        let p = constrained_shortest_path(&g, NodeId(0), NodeId(3), 20).unwrap();
        assert_eq!((p.cost, p.delay), (2, 20));
        // Tight budget: forced onto the fast path.
        let p = constrained_shortest_path(&g, NodeId(0), NodeId(3), 5).unwrap();
        assert_eq!((p.cost, p.delay), (20, 2));
        // Impossible budget.
        assert!(constrained_shortest_path(&g, NodeId(0), NodeId(3), 1).is_none());
    }

    #[test]
    fn exact_mixed_budget_uses_best_combination() {
        let g = DiGraph::from_edges(
            4,
            &[
                (0, 1, 1, 10),
                (1, 3, 1, 10), // cheap-slow: cost 2 delay 20
                (0, 2, 10, 1),
                (2, 3, 10, 1), // fast: cost 20 delay 2
                (1, 2, 0, 0),  // bridge allows half-and-half
            ],
        );
        // Budget 11: 0→1 (1,10) then bridge (0,0) then 2→3 (10,1) = (11, 11).
        let p = constrained_shortest_path(&g, NodeId(0), NodeId(3), 11).unwrap();
        assert_eq!((p.cost, p.delay), (11, 11));
    }

    #[test]
    fn zero_delay_edges_within_level() {
        let g = DiGraph::from_edges(4, &[(0, 1, 3, 0), (1, 2, 4, 0), (0, 2, 9, 0), (2, 3, 1, 0)]);
        let p = constrained_shortest_path(&g, NodeId(0), NodeId(3), 0).unwrap();
        assert_eq!((p.cost, p.delay), (8, 0));
    }

    #[test]
    fn unreachable_none() {
        let g = DiGraph::from_edges(3, &[(0, 1, 1, 1)]);
        assert!(constrained_shortest_path(&g, NodeId(0), NodeId(2), 100).is_none());
    }

    #[test]
    fn scratch_reuse_across_shapes() {
        // One scratch, alternating graphs, bounds, and sweep kinds: buffers
        // must re-dimension correctly and answers must match fresh-scratch
        // runs. ε = 1 FPTAS runs stop their sweeps early, and the full
        // exact sweeps after them must not read the labels or the pending
        // candidates left behind. The threshold search's per-node buffers
        // change shape with every graph, and an infeasible bound leaves
        // them after the reverse search alone.
        let g1 = tradeoff_graph();
        let g2 = DiGraph::from_edges(6, &[(0, 1, 2, 3), (1, 5, 2, 3), (0, 5, 9, 1)]);
        let hops: Vec<_> = (0..9u32)
            .flat_map(|v| [(v, v + 1, i64::from(v % 3), 6), (v, (v + 2).min(9), 9, 1)])
            .collect();
        let g3 = DiGraph::from_edges(10, &hops);
        let mut scratch = DpScratch::new();
        let mut stopped_early = false;
        for _ in 0..3 {
            for d in [1i64, 5, 20, 60] {
                for (g, t) in [(&g1, NodeId(3)), (&g2, NodeId(5)), (&g3, NodeId(9))] {
                    let fresh = constrained_shortest_path(g, NodeId(0), t, d);
                    let reused = constrained_shortest_path_with(g, NodeId(0), t, d, &mut scratch);
                    assert_eq!(fresh, reused, "exact d={d}");
                    let fresh = threshold_search(g, NodeId(0), t, d, &mut DpScratch::new());
                    let reused = threshold_search(g, NodeId(0), t, d, &mut scratch);
                    assert_eq!(fresh, reused, "threshold search d={d}");
                    assert_eq!(scratch.search.h.len(), g.node_count());
                    for (num, den) in [(1, 2), (1, 1)] {
                        let fresh = rsp_fptas(g, NodeId(0), t, d, num, den);
                        // Zeroed so a call that runs no sweep cannot count.
                        scratch.sweep.levels = 0;
                        let reused = rsp_fptas_with(g, NodeId(0), t, d, num, den, &mut scratch);
                        assert_eq!(fresh, reused, "fptas d={d} eps={num}/{den}");
                        // An answer comes from a final sweep that found `t`;
                        // count it when it walked fewer levels than its
                        // budget allows.
                        stopped_early |=
                            reused.is_some() && scratch.sweep.swept < scratch.sweep.levels;
                    }
                }
            }
        }
        assert!(
            stopped_early,
            "some FPTAS sweep must stop short of its budget"
        );
    }

    #[test]
    fn exhausted_sweep_stops_once_nothing_is_pending() {
        // 0→5 directly (cost 9, delay 1) or through 1 (cost 4, delay 6):
        // no value falls past level 6, so a sweep to level 1000 stops
        // walking there and still answers at its bound.
        let g = DiGraph::from_edges(6, &[(0, 1, 2, 3), (1, 5, 2, 3), (0, 5, 9, 1)]);
        let mut scratch = DpScratch::new();
        let p = constrained_shortest_path_with(&g, NodeId(0), NodeId(5), 1000, &mut scratch);
        assert_eq!(p.map(|p| (p.cost, p.delay)), Some((4, 6)));
        assert_eq!(scratch.sweep.levels, 1001);
        assert_eq!(scratch.sweep.swept, 7, "levels 0..=6 walked");
        // Between the two falls of node 5 (levels 1 and 6) the sweep keeps
        // walking: a candidate is still pending.
        assert_eq!(scratch.value_at(5, NodeId(5)), 9);
        assert_eq!(scratch.value_at(1000, NodeId(5)), 4);
        assert_eq!(scratch.value_at(0, NodeId(5)), UNREACHED);
    }

    #[test]
    fn cancelled_scratch_returns_none_and_recovers() {
        let g = tradeoff_graph();
        let mut scratch = DpScratch::new();
        let token = CancelToken::cancellable();
        token.cancel();
        scratch.set_cancel(token);
        assert!(
            constrained_shortest_path_with(&g, NodeId(0), NodeId(3), 20, &mut scratch).is_none()
        );
        assert!(rsp_fptas_with(&g, NodeId(0), NodeId(3), 20, 1, 2, &mut scratch).is_none());
        // Swapping back to a never-token makes the same scratch answer again.
        scratch.set_cancel(CancelToken::never());
        let p = constrained_shortest_path_with(&g, NodeId(0), NodeId(3), 20, &mut scratch).unwrap();
        assert_eq!((p.cost, p.delay), (2, 20));
    }

    #[test]
    fn digested_matches_rebuild_across_bounds() {
        // One digest built at the largest bound must answer every smaller
        // bound bit-identically to a per-call bucket rebuild — the shared
        // invariant the batch plane rests on.
        let graphs = [
            tradeoff_graph(),
            DiGraph::from_edges(
                4,
                &[
                    (0, 1, 1, 10),
                    (1, 3, 1, 10),
                    (0, 2, 10, 1),
                    (2, 3, 10, 1),
                    (1, 2, 0, 0), // zero-delay bridge exercises the CSR
                ],
            ),
        ];
        for g in &graphs {
            let digest = TopoDigest::delay_cost(g, 25);
            let mut scratch = DpScratch::new();
            let mut scratch_d = DpScratch::new();
            for d in 0..=25i64 {
                let rebuilt =
                    constrained_shortest_path_with(g, NodeId(0), NodeId(3), d, &mut scratch);
                let digested = constrained_shortest_path_digested(
                    g,
                    &digest,
                    NodeId(0),
                    NodeId(3),
                    d,
                    &mut scratch_d,
                );
                assert_eq!(rebuilt, digested, "bound {d}");
            }
        }
    }

    #[test]
    fn evolved_digest_matches_fresh_build() {
        let g = DiGraph::from_edges(
            4,
            &[
                (0, 1, 1, 10),
                (1, 3, 1, 10),
                (0, 2, 10, 1),
                (2, 3, 10, 1),
                (1, 2, 0, 0), // zero-delay bridge
            ],
        );
        let base = TopoDigest::delay_cost(&g, 25);
        assert_eq!(base.epoch(), 0);
        // Weight-only updates that keep every edge in its bucket class:
        // in-place patch path.
        let g1 = g.with_updates(&[(EdgeId(0), 3, 12), (EdgeId(3), 8, 2)]);
        assert!(g1.shares_adjacency_with(&g));
        let d1 = base.evolve(&g1, &[EdgeId(0), EdgeId(3)]);
        assert_eq!(d1.epoch(), 1);
        assert_eq!(d1.delta(), &[0, 3]);
        // A class-changing update (zero-delay bridge gains delay): rebuild
        // fallback path.
        let g2 = g1.with_updates(&[(EdgeId(4), 1, 2)]);
        let d2 = d1.evolve(&g2, &[EdgeId(4)]);
        assert_eq!(d2.epoch(), 2);
        // Both evolved digests answer bit-identically to fresh builds.
        let mut sa = DpScratch::new();
        let mut sb = DpScratch::new();
        for (gr, dig) in [(&g1, &d1), (&g2, &d2)] {
            let fresh = TopoDigest::delay_cost(gr, 25);
            for d in 0..=25i64 {
                let a =
                    constrained_shortest_path_digested(gr, dig, NodeId(0), NodeId(3), d, &mut sa);
                let b = constrained_shortest_path_digested(
                    gr,
                    &fresh,
                    NodeId(0),
                    NodeId(3),
                    d,
                    &mut sb,
                );
                assert_eq!(a, b, "bound {d}");
            }
        }
    }

    #[test]
    fn digested_multi_query_matches_independent_calls() {
        let g = DiGraph::from_edges(
            5,
            &[
                (0, 1, 1, 10),
                (1, 3, 1, 10),
                (0, 2, 10, 1),
                (2, 3, 10, 1),
                (1, 2, 0, 0),
                (3, 4, 2, 3),
                (1, 4, 7, 2),
            ],
        );
        let digest = TopoDigest::delay_cost(&g, 30);
        // Mixed sources, targets, and bounds — including infeasible ones —
        // so the grouping path, the shared-sweep reads, and the None cases
        // are all exercised.
        let queries = [
            CspQuery {
                s: NodeId(0),
                t: NodeId(3),
                delay_bound: 20,
            },
            CspQuery {
                s: NodeId(1),
                t: NodeId(4),
                delay_bound: 4,
            },
            CspQuery {
                s: NodeId(0),
                t: NodeId(4),
                delay_bound: 30,
            },
            CspQuery {
                s: NodeId(0),
                t: NodeId(3),
                delay_bound: 1, // infeasible
            },
            CspQuery {
                s: NodeId(1),
                t: NodeId(3),
                delay_bound: 11,
            },
            CspQuery {
                s: NodeId(4),
                t: NodeId(0),
                delay_bound: 9, // unreachable
            },
        ];
        let mut scratch = DpScratch::new();
        let batch = constrained_shortest_paths_digested(&g, &digest, &queries, &mut scratch);
        assert_eq!(batch.len(), queries.len());
        for (q, got) in queries.iter().zip(&batch) {
            let solo = constrained_shortest_path(&g, q.s, q.t, q.delay_bound);
            assert_eq!(&solo, got, "query {q:?}");
        }
    }

    #[test]
    fn digested_multi_query_respects_cancellation() {
        let g = tradeoff_graph();
        let digest = TopoDigest::delay_cost(&g, 20);
        let mut scratch = DpScratch::new();
        let token = CancelToken::cancellable();
        token.cancel();
        scratch.set_cancel(token);
        let queries = [CspQuery {
            s: NodeId(0),
            t: NodeId(3),
            delay_bound: 20,
        }];
        let out = constrained_shortest_paths_digested(&g, &digest, &queries, &mut scratch);
        assert_eq!(out, vec![None]);
        // The same scratch answers again once the token is replaced.
        scratch.set_cancel(CancelToken::never());
        let out = constrained_shortest_paths_digested(&g, &digest, &queries, &mut scratch);
        assert_eq!(
            (
                out[0].as_ref().unwrap().cost,
                out[0].as_ref().unwrap().delay
            ),
            (2, 20)
        );
    }

    #[test]
    fn fptas_feasible_and_near_optimal() {
        let g = tradeoff_graph();
        let p = rsp_fptas(&g, NodeId(0), NodeId(3), 20, 1, 2).unwrap();
        assert!(p.delay <= 20);
        assert!(p.cost <= 3); // OPT = 2, (1+1/2)·2 = 3
        let p = rsp_fptas(&g, NodeId(0), NodeId(3), 5, 1, 2).unwrap();
        assert!(p.delay <= 5);
        assert!(p.cost <= 30); // OPT = 20
        assert!(rsp_fptas(&g, NodeId(0), NodeId(3), 1, 1, 2).is_none());
    }

    #[test]
    fn fptas_zero_cost_shortcut() {
        let g = DiGraph::from_edges(3, &[(0, 1, 0, 5), (1, 2, 0, 5), (0, 2, 7, 1)]);
        let p = rsp_fptas(&g, NodeId(0), NodeId(2), 10, 1, 10).unwrap();
        assert_eq!(p.cost, 0);
    }

    #[test]
    fn fptas_brackets_past_i64_answer_exactly() {
        // D = 2 leaves one path within the bound, s→a→t at cost 2⁶² + 1:
        // c* = 2⁶² puts n·c* and 4·lb past i64::MAX, at n = 3 and padded
        // with isolated nodes to n = 240. In the third graph c* = 2⁴⁰ keeps
        // the bracket in range, but the classic shrink test at c ≈ 15.5·2⁴⁰
        // scales the 2⁶² edge by n + 1 = 241. Wrapped, the classic kernel
        // called the first graph infeasible and the interval kernel's
        // shrink loop never ended.
        let (big, mid) = (1i64 << 62, 1i64 << 40);
        let dear = [(0, 1, big, 1), (1, 2, 1, 1), (0, 2, 1, 5)];
        for (g, cost) in [
            (DiGraph::from_edges(3, &dear), big + 1),
            (DiGraph::from_edges(240, &dear), big + 1),
            (
                DiGraph::from_edges(240, &[(0, 1, mid, 1), (1, 2, 1, 1), (0, 2, big, 1)]),
                mid + 1,
            ),
        ] {
            let (s, t) = (NodeId(0), NodeId(2));
            let exact = constrained_shortest_path(&g, s, t, 2).unwrap();
            assert_eq!((exact.cost, exact.delay), (cost, 2));
            for (num, den) in [(1, 1), (1, 2), (1, 8)] {
                let n = g.node_count();
                assert_eq!(
                    rsp_fptas(&g, s, t, 2, num, den),
                    Some(exact.clone()),
                    "n={n}"
                );
                let interval = rsp_fptas_interval(&g, s, t, 2, num, den);
                assert_eq!(interval, Some(exact.clone()), "n={n}");
            }
        }
    }

    #[test]
    fn geometric_midpoint_is_exact_near_i64_max() {
        // lb·ub ≫ 2^53: the old f64 path rounded √(lb·ub) up past the true
        // floor (for lb = ub = i64::MAX it saturates to i64::MAX only by
        // accident of the `as` cast; one step down it misbisects).
        let m = i64::MAX;
        assert_eq!(geometric_midpoint(m, m), m);
        assert_eq!(geometric_midpoint(m - 1, m), m - 1);
        assert_eq!(geometric_midpoint(1, m), 3_037_000_499); // ⌊√(2^63−1)⌋
                                                             // Exactness: mid is the floor sqrt of the product whenever that
                                                             // floor lands inside [lb, ub].
        for (lb, ub) in [
            (m / 4, m),
            (m / 2, m - 1),
            ((1 << 31) + 7, (1 << 62) + 11),
            (3, m / 3),
        ] {
            let mid = geometric_midpoint(lb, ub);
            let prod = lb as u128 * ub as u128;
            let mid_u = mid as u128;
            assert!(mid_u * mid_u <= prod, "mid too big for ({lb}, {ub})");
            assert!(
                (mid_u + 1) * (mid_u + 1) > prod,
                "mid not the floor for ({lb}, {ub})"
            );
            assert!((lb..=ub).contains(&mid));
        }
        // The shrink-loop invariant: while ub > 4·lb, 2·mid < ub strictly.
        let (lb, ub) = (m / 8, m);
        assert!(2i128 * i128::from(geometric_midpoint(lb, ub)) < i128::from(ub));
    }

    /// A generator-family graph, optionally rebuilt with every
    /// `zero_stride`-th edge's delay zeroed, as `tests/kernels.rs` does (the
    /// zero-budget pass is the trickiest part of the sweep), and every
    /// `zero_cost_stride`-th edge's cost zeroed (a zero threshold).
    fn family_graph(
        family: Family,
        n: usize,
        regime: Regime,
        seed: u64,
        (zero_stride, zero_cost_stride): (usize, usize),
    ) -> DiGraph {
        let g = family.sample(n, n * 4, regime, &mut ChaCha20Rng::seed_from_u64(seed));
        // `map_weights` visits the edges in id order.
        let mut id = 0;
        g.map_weights(|cost, delay| {
            let hits = |stride: usize| stride > 0 && id % stride == 0;
            let out = (
                if hits(zero_cost_stride) { 0 } else { cost },
                if hits(zero_stride) { 0 } else { delay },
            );
            id += 1;
            out
        })
    }

    fn arb_graph() -> impl Strategy<Value = (DiGraph, i64)> {
        (
            proptest::collection::vec((0u32..7, 0u32..7, 0i64..15, 0i64..15), 1..24),
            0i64..40,
        )
            .prop_map(|(edges, d)| {
                let list: Vec<_> = edges.into_iter().filter(|&(u, v, _, _)| u != v).collect();
                (DiGraph::from_edges(7, &list), d)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The whole table, not just the path to `t`: at every level
        /// `b ≤ bound` and every node `v`, the sweep's value and the path
        /// `recover` walks equal the dense oracle's `value[b][v]` and parent
        /// chain. Budgets run both ways round: delay (the exact DP's shape,
        /// with zero-budget edges) and cost (the FPTAS's shape).
        #[test]
        fn prop_sweep_matches_reference_at_every_level_and_node(
            fam_ix in 0usize..5,
            reg_ix in 0usize..3,
            n in 8usize..28,
            seed in 0u64..1_000_000,
            bound in 0usize..60,
            zero_stride in 0usize..4,
            budget_is_cost in 0u8..2,
        ) {
            let family = [Family::Gnm, Family::Grid, Family::Layered, Family::Geometric, Family::ScaleFree][fam_ix];
            let regime = [Regime::Uniform, Regime::Correlated, Regime::Anticorrelated][reg_ix];
            let g = family_graph(family, n, regime, seed, (zero_stride, 0));
            let (s, _) = family.terminals(g.node_count());
            type Weight = fn(EdgeRef) -> i64;
            let (budget, objective): (Weight, Weight) = if budget_is_cost == 1 {
                (|e| e.cost, |e| e.delay)
            } else {
                (|e| e.delay, |e| e.cost)
            };
            let mut scratch = DpScratch::new();
            let outcome = budget_dp(
                &mut scratch,
                &g,
                s,
                bound,
                |e| budget(g.edge(e)),
                |e| objective(g.edge(e)),
                full_sweep,
            );
            prop_assert_eq!(outcome, SweepOutcome::Exhausted);
            let oracle = crate::reference::budget_dp(
                &g,
                s,
                bound,
                &|e| budget(g.edge(e)),
                &|e| objective(g.edge(e)),
            );
            for b in 0..=bound {
                for v in g.node_iter() {
                    let want = oracle.value[b][v.index()];
                    prop_assert_eq!(
                        scratch.value_at(b, v),
                        want.unwrap_or(UNREACHED),
                        "{:?} seed {} level {} node {}", family, seed, b, v.index()
                    );
                    if want.is_some() && v != s {
                        prop_assert_eq!(
                            recover(&scratch, &g, s, v, b),
                            crate::reference::recover(&oracle, &g, s, v, b),
                            "{:?} seed {} level {} node {}", family, seed, b, v.index()
                        );
                    }
                }
            }
        }

        /// The threshold search against the full-Dijkstra oracle: the same
        /// `c*` and witness, the same probe verdict at every threshold, and
        /// edge for edge the same witness at every threshold ≥ `c*`. Graphs
        /// get zero-cost and zero-delay strides, parallel edges (copies and
        /// weight-swapped copies), and targets that are a random node (at
        /// times `s`) or unreachable; bounds run from one below the
        /// minimum delay up.
        #[test]
        fn prop_threshold_search_matches_reference(
            fam_ix in 0usize..5,
            reg_ix in 0usize..3,
            n in 8usize..28,
            seed in 0u64..1_000_000,
            strides in (0usize..4, 0usize..4),
            parallel_stride in 0usize..4,
            target in 0u8..3,
            slack in -1i64..30,
        ) {
            let family = [Family::Gnm, Family::Grid, Family::Layered, Family::Geometric, Family::ScaleFree][fam_ix];
            let regime = [Regime::Uniform, Regime::Correlated, Regime::Anticorrelated][reg_ix];
            let mut g = family_graph(family, n, regime, seed, strides);
            if parallel_stride > 0 {
                for (id, e) in g.clone().edge_iter().step_by(parallel_stride) {
                    let (cost, delay) = if id.index() % 2 == 0 { (e.cost, e.delay) } else { (e.delay, e.cost) };
                    g.add_edge(e.src, e.dst, cost, delay);
                }
            }
            let (s, t) = family.terminals(g.node_count());
            let t = match target {
                0 => t,
                1 => NodeId((seed % g.node_count() as u64) as u32),
                _ => g.add_node(),
            };
            let (dist, _) = crate::dijkstra::dijkstra(&g, s, |e| g.edge(e).delay);
            let d = (dist[t.index()].unwrap_or(0) + slack).max(0);
            let mut scratch = DpScratch::new();
            let got = threshold_search(&g, s, t, d, &mut scratch);
            prop_assert_eq!(&got, &crate::reference::threshold_search(&g, s, t, d));
            let mut costs: Vec<i64> = g.edges().iter().map(|e| e.cost).chain([0]).collect();
            costs.sort_unstable();
            costs.dedup();
            for theta in costs {
                let want = crate::reference::threshold_witness(&g, s, t, d, theta);
                let se = &mut scratch.search;
                prop_assert_eq!(se.forward(&g, s, t, d, theta, false), want.is_some(), "probe at {}", theta);
                if got.as_ref().is_some_and(|&(cstar, _)| theta >= cstar) {
                    prop_assert!(se.forward(&g, s, t, d, theta, true));
                    prop_assert_eq!(Some(se.path(&g, s, t)), want, "witness at {}", theta);
                }
            }
        }

        #[test]
        fn prop_fptas_within_factor((g, d) in arb_graph()) {
            let exact = constrained_shortest_path(&g, NodeId(0), NodeId(6), d);
            let approx = rsp_fptas(&g, NodeId(0), NodeId(6), d, 1, 2);
            match (exact, approx) {
                (None, None) => {}
                (Some(e), Some(a)) => {
                    prop_assert!(a.delay <= d);
                    // cost ≤ (1 + 1/2) OPT, integer arithmetic:
                    prop_assert!(2 * a.cost <= 3 * e.cost,
                        "approx {} vs opt {}", a.cost, e.cost);
                }
                (e, a) => prop_assert!(false, "feasibility mismatch: exact={:?} approx={:?}", e.is_some(), a.is_some()),
            }
        }

        #[test]
        fn prop_interval_fptas_within_factor((g, d) in arb_graph()) {
            // The interval kernel promises the same (1+ε) guarantee as the
            // classic one — feasibility parity with the exact DP, delay
            // within budget, cost within factor — without bit-identity.
            let exact = constrained_shortest_path(&g, NodeId(0), NodeId(6), d);
            for (num, den) in [(1u32, 2u32), (1, 8), (1, 16)] {
                let approx = rsp_fptas_interval(&g, NodeId(0), NodeId(6), d, num, den);
                match (&exact, approx) {
                    (None, None) => {}
                    (Some(e), Some(a)) => {
                        prop_assert!(a.delay <= d);
                        prop_assert!(
                            a.cost as i128 * den as i128
                                <= e.cost as i128 * (den + num) as i128,
                            "eps {}/{}: approx {} vs opt {}", num, den, a.cost, e.cost);
                    }
                    (e, a) => prop_assert!(false,
                        "feasibility mismatch at eps {}/{}: exact={:?} approx={:?}",
                        num, den, e.is_some(), a.is_some()),
                }
            }
        }

        #[test]
        fn prop_digested_batch_matches_independent_calls(
            (g, d) in arb_graph(),
            picks in proptest::collection::vec((0u32..7, 0u32..7, 0i64..40), 1..12),
        ) {
            // A digest at the max bound + grouped sweeps must be
            // bit-identical to one fresh call per query.
            let digest = TopoDigest::delay_cost(&g, 40);
            let queries: Vec<CspQuery> = picks
                .into_iter()
                .map(|(s, t, jitter)| CspQuery {
                    s: NodeId(s),
                    t: NodeId(t),
                    delay_bound: jitter.min(d.max(0)),
                })
                .collect();
            let mut scratch = DpScratch::new();
            let batch = constrained_shortest_paths_digested(&g, &digest, &queries, &mut scratch);
            for (q, got) in queries.iter().zip(&batch) {
                let solo = constrained_shortest_path(&g, q.s, q.t, q.delay_bound);
                prop_assert_eq!(&solo, got, "query {:?}", q);
            }
        }

        #[test]
        fn prop_exact_is_minimal_vs_enumeration((g, d) in arb_graph()) {
            // Brute force: DFS all simple paths, track best cost within D.
            #[allow(clippy::too_many_arguments)]
            fn dfs(g: &DiGraph, cur: NodeId, t: NodeId, visited: &mut Vec<bool>,
                   cost: i64, delay: i64, d: i64, best: &mut Option<i64>) {
                if delay > d { return; }
                if cur == t {
                    *best = Some(best.map_or(cost, |b: i64| b.min(cost)));
                    return;
                }
                for &e in g.out_edges(cur) {
                    let r = g.edge(e);
                    if !visited[r.dst.index()] {
                        visited[r.dst.index()] = true;
                        dfs(g, r.dst, t, visited, cost + r.cost, delay + r.delay, d, best);
                        visited[r.dst.index()] = false;
                    }
                }
            }
            let mut best = None;
            let mut visited = vec![false; g.node_count()];
            visited[0] = true;
            dfs(&g, NodeId(0), NodeId(6), &mut visited, 0, 0, d, &mut best);
            let ours = constrained_shortest_path(&g, NodeId(0), NodeId(6), d).map(|p| p.cost);
            prop_assert_eq!(ours, best);
        }
    }
}
