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
//! ## The flat kernel
//!
//! The budgeted DP is the solver's hottest loop: the FPTAS re-runs it for
//! every probe of its geometric bisection, and every caller above (greedy
//! RSP, the service ladder) re-runs the FPTAS. The kernel therefore avoids
//! all steady-state allocation and indirection (DESIGN.md §4.12):
//!
//! * the value table is one flat row-major `i64` buffer (`i64::MAX` =
//!   unreachable), not a `Vec<Vec<Option<i64>>>`; level carry-over is a
//!   `memcpy`, not an `Option` clone;
//! * parents are two compact `u32` arrays (edge id + previous level);
//! * the weight accessors are generic `impl Fn` parameters, monomorphized
//!   at each call site — no `&dyn Fn` dispatch per edge relaxation — and
//!   evaluated once per edge up front, not once per (level, edge);
//! * edges are bucketed by budget value once per run: positive-budget edges
//!   live in a flat array (edges whose budget exceeds the bound are dropped
//!   entirely), zero-budget edges in a per-node CSR, so the within-level
//!   Dijkstra pass is skipped outright when no zero-budget edge exists and
//!   otherwise seeds its heap only with nodes that can propagate;
//! * every buffer lives in a caller-owned [`DpScratch`], so the bisection
//!   loop — and repeated solves above it — reuse one allocation (the
//!   service's `k = 1` ladder arm keeps one per worker thread).
//!
//! ## One sweep, stopped early where an answer is all that is asked
//!
//! Every DP run goes through one sweep, `dp_sweep`, parameterized by a
//! monomorphized stop predicate over the row just computed. The exact DP
//! and the batch plane pass one that never fires (it compiles away); every
//! FPTAS probe — the classic shrink tests and final DP, the interval
//! tests — stops at the first level whose value at `t` is within the delay
//! bound. Level `b` depends only on levels `≤ b`, so that level and the
//! parent chain behind it are exactly what a full sweep plus a bottom-up
//! scan finds: stopping changes no answer. Table rows are materialized
//! only as their levels are computed (the carry-over copy *is* the row's
//! initialization), so a stopped sweep never touches the rows above its
//! answer.
//!
//! The pre-rewrite kernel is preserved in [`crate::reference`] and the test
//! suite pins this one to it bit-for-bit (values, tie-breaking, recovered
//! paths).

use crate::cancel::CancelToken;
use crate::dijkstra::dijkstra;
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

/// "Unreachable" sentinel in the flat value table.
const UNREACHED: i64 = i64::MAX;
/// "No parent" sentinel in the flat parent table.
const NO_PARENT: u32 = u32::MAX;

/// A positive-budget edge, predigested for the relaxation loop.
#[derive(Clone, Copy)]
struct PosEdge {
    /// Budget value (`≥ 1`, `≤ bound`).
    budget: u32,
    /// Tail node index.
    src: u32,
    /// Head node index.
    dst: u32,
    /// Objective value.
    obj: i64,
    /// Original edge id (for parents).
    id: u32,
}

/// A zero-budget edge in the per-node CSR.
#[derive(Clone, Copy)]
struct ZeroEdge {
    /// Head node index.
    dst: u32,
    /// Objective value.
    obj: i64,
    /// Original edge id (for parents).
    id: u32,
}

/// Caller-owned scratch arena for the budgeted DP.
///
/// Holds the flat value/parent tables, the edge buckets, and the
/// within-level heap. Create one per solving context and thread it through
/// repeated [`constrained_shortest_path_with`] / [`rsp_fptas_with`] calls:
/// after warm-up, the kernel allocates nothing. A single scratch adapts to
/// any graph/bound size (buffers grow monotonically, capacity is retained;
/// see [`DpScratch::table_bytes`] for what that retains).
#[derive(Default)]
pub struct DpScratch {
    /// Flat value table, row-major by level: one `n`-wide row per level
    /// computed so far (at most `bound+1`).
    value: Vec<i64>,
    /// Parent edge id per `(level, node)`; `NO_PARENT` = none.
    par_edge: Vec<u32>,
    /// Parent level per `(level, node)` (meaningful iff `par_edge` set).
    par_level: Vec<u32>,
    /// Positive-budget edges with budget ≤ bound, in edge-id order.
    pos: Vec<PosEdge>,
    /// Zero-budget out-edges, CSR payload (tail-node grouped).
    zero: Vec<ZeroEdge>,
    /// CSR offsets: node `v`'s zero-budget out-edges are
    /// `zero[zero_start[v]..zero_start[v+1]]`.
    zero_start: Vec<u32>,
    /// Per-edge budget cache (one accessor call per edge per run).
    ebud: Vec<i64>,
    /// Per-edge objective cache.
    eobj: Vec<i64>,
    /// Within-level Dijkstra heap, reused across levels.
    heap: BinaryHeap<Reverse<(i64, u32)>>,
    /// Settled stamps for the within-level pass (`== gen` means settled).
    settled: Vec<u64>,
    /// Current settle generation.
    gen: u64,
    /// Node count of the last run.
    n: usize,
    /// Level count (`bound + 1`) of the last run.
    levels: usize,
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

    /// Bytes of capacity the value and parent tables retain. They grow
    /// with the largest `levels × n` any run has computed, so a long-lived
    /// arena can use this to drop tables one outsized solve left behind.
    #[must_use]
    pub fn table_bytes(&self) -> usize {
        self.value.capacity() * std::mem::size_of::<i64>()
            + (self.par_edge.capacity() + self.par_level.capacity()) * std::mem::size_of::<u32>()
    }

    #[inline]
    fn value_at(&self, b: usize, v: NodeId) -> i64 {
        self.value[b * self.n + v.index()]
    }
}

/// True when node `v` has at least one outgoing zero-budget edge.
#[inline]
fn zero_tail(zero_start: &[u32], v: u32) -> bool {
    zero_start[v as usize] < zero_start[v as usize + 1]
}

/// Borrowed edge buckets for one DP sweep: either the scratch's own
/// (single-query path) or a shared [`TopoDigest`]'s (batch path).
struct Buckets<'a> {
    /// Positive-budget edges with budget ≤ bound, in edge-id order.
    pos: &'a [PosEdge],
    /// Zero-budget out-edges, CSR payload (tail-node grouped).
    zero: &'a [ZeroEdge],
    /// CSR offsets over `zero`.
    zero_start: &'a [u32],
}

/// Destination buffers for [`digest_buckets`]: either a scratch arena's
/// fields (single-query path) or a fresh [`TopoDigest`]'s vectors (batch
/// path). Bundled so both call sites lend the same shape.
struct BucketBufs<'a> {
    ebud: &'a mut Vec<i64>,
    eobj: &'a mut Vec<i64>,
    pos: &'a mut Vec<PosEdge>,
    zero: &'a mut Vec<ZeroEdge>,
    zero_start: &'a mut Vec<u32>,
}

/// Builds the edge buckets the DP sweep relaxes over: one accessor call per
/// edge (cached in `ebud`/`eobj`), positive-budget edges with budget ≤
/// `bound` into `pos` in edge-id order, zero-budget edges into a per-node
/// CSR in out-edge order. Shared by [`budget_dp`] (per-run buckets in the
/// scratch) and [`TopoDigest::build`] (buckets built once per topology), so
/// the two paths bucket identically by construction.
fn digest_buckets(
    graph: &DiGraph,
    bound: usize,
    budget_of: impl Fn(EdgeId) -> i64,
    objective_of: impl Fn(EdgeId) -> i64,
    out: BucketBufs<'_>,
) {
    let BucketBufs {
        ebud,
        eobj,
        pos,
        zero,
        zero_start,
    } = out;
    ebud.clear();
    eobj.clear();
    pos.clear();
    for (id, e) in graph.edge_iter() {
        let b = budget_of(id);
        let o = objective_of(id);
        assert!(b >= 0, "budgets must be nonnegative");
        assert!(o >= 0, "objectives must be nonnegative");
        ebud.push(b);
        eobj.push(o);
        if b >= 1 && b <= bound as i64 {
            pos.push(PosEdge {
                budget: b as u32,
                src: e.src.0,
                dst: e.dst.0,
                obj: o,
                id: id.0,
            });
        }
    }
    // Zero-budget CSR, grouped by tail in out-edge order (the order the
    // reference kernel relaxes them in).
    zero.clear();
    zero_start.clear();
    zero_start.reserve(graph.node_count() + 1);
    for v in graph.node_iter() {
        zero_start.push(zero.len() as u32);
        for &e in graph.out_edges(v) {
            if ebud[e.index()] == 0 {
                zero.push(ZeroEdge {
                    dst: graph.edge(e).dst.0,
                    obj: eobj[e.index()],
                    id: e.0,
                });
            }
        }
    }
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
/// * every query bound must be ≤ the digest's `bound`. The relaxation loop
///   skips edges whose budget exceeds the current level, and levels are
///   computed bottom-up, so a sweep truncated at a smaller bound is
///   bit-identical to a dedicated `budget_dp` run at that bound.
pub struct TopoDigest {
    pos: Vec<PosEdge>,
    zero: Vec<ZeroEdge>,
    zero_start: Vec<u32>,
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
        let (mut ebud, mut eobj) = (Vec::new(), Vec::new());
        let (mut pos, mut zero, mut zero_start) = (Vec::new(), Vec::new(), Vec::new());
        digest_buckets(
            graph,
            bound,
            budget_of,
            objective_of,
            BucketBufs {
                ebud: &mut ebud,
                eobj: &mut eobj,
                pos: &mut pos,
                zero: &mut zero,
                zero_start: &mut zero_start,
            },
        );
        TopoDigest {
            pos,
            zero,
            zero_start,
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
            pos: self.pos.clone(),
            zero: self.zero.clone(),
            zero_start: self.zero_start.clone(),
            n: self.n,
            m: self.m,
            bound: self.bound,
            epoch,
            delta: delta.clone(),
        };
        for &e in changed {
            let rec = graph.edge(e);
            let (b, o) = (rec.delay, rec.cost);
            assert!(b >= 0, "budgets must be nonnegative");
            assert!(o >= 0, "objectives must be nonnegative");
            // `pos` is in edge-id order by construction, so membership is a
            // binary search away.
            let in_pos = next.pos.binary_search_by_key(&e.0, |p| p.id);
            let zlo = next.zero_start[rec.src.index()] as usize;
            let zhi = next.zero_start[rec.src.index() + 1] as usize;
            let in_zero = next.zero[zlo..zhi].iter().position(|z| z.id == e.0);
            if b >= 1 && b <= self.bound as i64 {
                match (in_pos, in_zero) {
                    (Ok(i), None) => {
                        next.pos[i].budget = b as u32;
                        next.pos[i].obj = o;
                    }
                    // was zero-budget or above-bound: bucket class changed
                    _ => return rebuild(epoch, delta),
                }
            } else if b == 0 {
                match (in_pos, in_zero) {
                    (Err(_), Some(k)) => next.zero[zlo + k].obj = o,
                    _ => return rebuild(epoch, delta),
                }
            } else {
                // b > bound: the edge must be in neither bucket.
                if in_pos.is_ok() || in_zero.is_some() {
                    return rebuild(epoch, delta);
                }
            }
        }
        next
    }

    #[inline]
    fn buckets(&self) -> Buckets<'_> {
        Buckets {
            pos: &self.pos,
            zero: &self.zero,
            zero_start: &self.zero_start,
        }
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
    /// Every level was computed and the stop predicate never held.
    Exhausted,
    /// The scratch's [`CancelToken`] tripped mid-run (the table is partial
    /// and must not be read).
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
/// Relaxation order — positive edges in id order per level, then the
/// smallest-value-first zero pass — matches `reference::budget_dp` exactly,
/// so values, parents, and recovered paths are bit-identical to the 2-D
/// oracle.
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
    let n = graph.node_count();
    // Predigest the weights: one accessor call per edge, validated once.
    digest_buckets(
        graph,
        bound,
        budget_of,
        objective_of,
        BucketBufs {
            ebud: &mut scratch.ebud,
            eobj: &mut scratch.eobj,
            pos: &mut scratch.pos,
            zero: &mut scratch.zero,
            zero_start: &mut scratch.zero_start,
        },
    );
    // Lend the scratch its own buckets for the sweep (moved out and back so
    // the arena keeps its capacity; the sweep needs the scratch mutably).
    let pos = std::mem::take(&mut scratch.pos);
    let zero = std::mem::take(&mut scratch.zero);
    let zero_start = std::mem::take(&mut scratch.zero_start);
    let outcome = dp_sweep(
        scratch,
        &Buckets {
            pos: &pos,
            zero: &zero,
            zero_start: &zero_start,
        },
        n,
        s,
        bound + 1,
        stop,
    );
    scratch.pos = pos;
    scratch.zero = zero;
    scratch.zero_start = zero_start;
    outcome
}

/// The DP loop proper, over already-built buckets: computes the scratch's
/// value/parent rows for levels `0..levels`, stopping after the first
/// level whose row satisfies `stop`. The buckets may be the scratch's own
/// ([`budget_dp`]) or a shared [`TopoDigest`]'s; either way the relaxation
/// skips edges whose budget exceeds the current level, so buckets built at
/// any bound ≥ `levels - 1` produce identical tables. Level `b` depends
/// only on levels `≤ b`, so a stopped sweep's rows — and the parent chains
/// behind them — are exactly a full sweep's.
#[must_use]
fn dp_sweep(
    scratch: &mut DpScratch,
    buckets: &Buckets<'_>,
    n: usize,
    s: NodeId,
    levels: usize,
    stop: impl Fn(&[i64]) -> bool,
) -> SweepOutcome {
    fail_point!("csp.dp", |_msg| SweepOutcome::Cancelled);
    let cancel = scratch.cancel.clone();
    if cancel.is_cancelled() {
        return SweepOutcome::Cancelled;
    }
    scratch.n = n;
    scratch.levels = levels;
    let has_zero = !buckets.zero.is_empty();

    // Row-lazy tables: `dp_level` appends each row as its level is
    // computed, so rows a stopped sweep never reaches are never written.
    // `clear` keeps the capacity across runs.
    scratch.value.clear();
    scratch.par_edge.clear();
    scratch.par_level.clear();
    if scratch.settled.len() < n {
        scratch.settled.resize(n, 0);
    }

    for b in 0..levels {
        // Poll every 32 levels: frequent enough to stop a runaway scaled
        // DP (levels are O(m) work each), rare enough to stay off the
        // profile.
        if b & 31 == 0 && cancel.is_cancelled() {
            return SweepOutcome::Cancelled;
        }
        dp_level(scratch, buckets, n, s, b, has_zero);
        if stop(&scratch.value[b * n..]) {
            return SweepOutcome::Found(b);
        }
    }
    SweepOutcome::Exhausted
}

/// Appends and relaxes DP level `b` (rows `0..b` must be in place):
/// carry-over from level `b−1`, positive-budget transitions in edge-id
/// order, then the within-level zero-budget pass.
fn dp_level(
    scratch: &mut DpScratch,
    buckets: &Buckets<'_>,
    n: usize,
    s: NodeId,
    b: usize,
    has_zero: bool,
) {
    let row = b * n;
    debug_assert_eq!(scratch.value.len(), row, "levels are appended in order");
    if b > 0 {
        // Carry-over: the new row starts as a copy of the previous level.
        scratch.value.extend_from_within((row - n)..row);
    } else {
        scratch.value.resize(n, UNREACHED);
    }
    scratch.par_edge.resize(row + n, NO_PARENT);
    scratch.par_level.resize(row + n, 0);
    scratch.value[row + s.index()] = 0;
    // Cross-level transitions, in edge-id order (ties must resolve as
    // in the reference kernel).
    for pe in buckets.pos {
        if pe.budget as usize > b {
            continue;
        }
        let vu = scratch.value[(b - pe.budget as usize) * n + pe.src as usize];
        if vu == UNREACHED {
            continue;
        }
        let cand = vu + pe.obj;
        let slot = row + pe.dst as usize;
        if cand < scratch.value[slot] {
            scratch.value[slot] = cand;
            scratch.par_edge[slot] = pe.id;
            scratch.par_level[slot] = (b - pe.budget as usize) as u32;
        }
    }
    if !has_zero {
        return;
    }
    // Within-level relaxation over zero-budget edges (Dijkstra flavor).
    // Only nodes with outgoing zero-budget edges can propagate, so only
    // they enter the heap; everything else is pure overhead.
    scratch.gen += 1;
    let gen = scratch.gen;
    scratch.heap.clear();
    for v in 0..n as u32 {
        if zero_tail(buckets.zero_start, v) && scratch.value[row + v as usize] != UNREACHED {
            scratch
                .heap
                .push(Reverse((scratch.value[row + v as usize], v)));
        }
    }
    while let Some(Reverse((dv, v))) = scratch.heap.pop() {
        if scratch.settled[v as usize] == gen || scratch.value[row + v as usize] != dv {
            continue;
        }
        scratch.settled[v as usize] = gen;
        let (lo, hi) = (
            buckets.zero_start[v as usize] as usize,
            buckets.zero_start[v as usize + 1] as usize,
        );
        for i in lo..hi {
            let ze = buckets.zero[i];
            let cand = dv + ze.obj;
            let slot = row + ze.dst as usize;
            if cand < scratch.value[slot] {
                scratch.value[slot] = cand;
                scratch.par_edge[slot] = ze.id;
                scratch.par_level[slot] = b as u32;
                if zero_tail(buckets.zero_start, ze.dst) {
                    scratch.heap.push(Reverse((cand, ze.dst)));
                }
            }
        }
    }
}

/// Reconstructs the path reaching `t` at level `b` of a [`budget_dp`] run.
fn recover(
    scratch: &DpScratch,
    graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    mut b: usize,
) -> Vec<EdgeId> {
    let n = scratch.n;
    let mut edges = Vec::new();
    let mut v = t;
    let mut guard = 0usize;
    while v != s {
        // Drop to the lowest level with the same value (carried entries have
        // no parent at this level).
        while b > 0 && scratch.value[(b - 1) * n + v.index()] == scratch.value[b * n + v.index()] {
            b -= 1;
        }
        let slot = b * n + v.index();
        let e = scratch.par_edge[slot];
        assert!(e != NO_PARENT, "dp parent chain intact");
        let e = EdgeId(e);
        edges.push(e);
        v = graph.edge(e).src;
        b = scratch.par_level[slot] as usize;
        guard += 1;
        assert!(
            guard <= graph.edge_count() + scratch.levels,
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
        scratch,
        &digest.buckets(),
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
/// runs **one** sweep to the group's largest bound. The value table at any
/// level `b` depends only on levels `≤ b` (and the per-level relaxation
/// skips edges whose budget exceeds the level), so every query reads the
/// same cells — and recovers the same parents — as a dedicated
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
            scratch,
            &digest.buckets(),
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

/// [`rsp_fptas`] over a caller-owned scratch arena: every DP probe of the
/// geometric bisection reuses the same buffers.
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

    // Feasibility + bottleneck bounds: the smallest edge-cost threshold c*
    // whose subgraph contains a delay-feasible path gives OPT ∈ [c*, n·c*].
    // "Removed" edges get a finite sentinel weight strictly larger than any
    // real path delay *and* the budget, so they cannot appear on a path
    // that passes the budget check and sums cannot overflow.
    let sentinel = graph.total_delay().max(delay_bound).saturating_add(1);
    let min_delay_using = |threshold: i64| -> bool {
        let (dist, _) = dijkstra(graph, s, |e| {
            if graph.edge(e).cost <= threshold {
                graph.edge(e).delay
            } else {
                sentinel
            }
        });
        matches!(dist[t.index()], Some(d) if d <= delay_bound)
    };
    let mut costs: Vec<i64> = graph.edges().iter().map(|e| e.cost).collect();
    costs.push(0);
    costs.sort_unstable();
    costs.dedup();
    if !min_delay_using(*costs.last().unwrap()) {
        return None; // no delay-feasible path at all
    }
    // Binary search the threshold list.
    let mut lo = 0usize;
    let mut hi = costs.len() - 1;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if min_delay_using(costs[mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let cstar = costs[lo];
    if cstar == 0 {
        // A zero-cost feasible path exists: it is optimal; extract it via
        // the exact min-delay path over zero-cost edges.
        let (dist, pred) = dijkstra(graph, s, |e| {
            if graph.edge(e).cost == 0 {
                graph.edge(e).delay
            } else {
                sentinel
            }
        });
        let edges = crate::dijkstra::path_to(graph, &dist, &pred, t)?;
        let p = CspPath::from_edges(graph, edges);
        debug_assert_eq!(p.cost, 0);
        return Some(p);
    }
    let mut lb = cstar; // OPT ≥ lb
    let mut ub = n * cstar; // a feasible path of cost ≤ ub exists

    // Scaled test: does a delay-feasible path of cost ≤ c(1+ε0) exist?
    // (pass ⇒ such a path is produced; fail ⇒ OPT > c). ε0 = 1 here.
    // Takes the scratch explicitly so every probe reuses one arena. The
    // sweep stops at the lowest delay-feasible level, the one a full
    // sweep's bottom-up scan would pick.
    let test = |scratch: &mut DpScratch, c: i64| -> Option<CspPath> {
        // θ = c / (n+1); scaled cost c'(e) = floor(c(e)/θ); budget n+1.
        // For any ≤n-edge path: c(P)/θ − n ≤ c'(P) ≤ c(P)/θ.
        let theta_num = c;
        let theta_den = n + 1;
        let scaled = |e: EdgeId| -> i64 { graph.edge(e).cost * theta_den / theta_num };
        let budget = (n + 1) as usize; // floor(c/θ) = n+1
        let SweepOutcome::Found(b) = budget_dp(
            scratch,
            graph,
            s,
            budget,
            |e| scaled(e).min(budget as i64 + 1),
            |e| graph.edge(e).delay,
            reaches(t, delay_bound),
        ) else {
            return None;
        };
        Some(CspPath::from_edges(graph, recover(scratch, graph, s, t, b)))
    };

    // Geometric shrink until ub ≤ 4·lb. The test at the integer geometric
    // mean `c` either certifies OPT > c (fail ⇒ lb := c+1) or produces a
    // feasible path of cost ≤ 2c (pass ⇒ ub := 2c, using ε₀ = 1). While
    // ub > 4·lb, `2·⌊√(lb·ub)⌋ < ub`, so both branches strictly shrink the
    // bracket and the loop terminates in O(log log(ub/lb)) tests.
    while ub > 4 * lb {
        // A cancelled shrink probe returns None, which is indistinguishable
        // from "OPT > c" — check the token explicitly so cancellation never
        // misnarrows the bracket.
        if scratch.cancel.is_cancelled() {
            return None;
        }
        let c = geometric_midpoint(lb, ub);
        match test(scratch, c) {
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

    // Final scaled DP with target ε: θ = lb·ε/(n+1), again stopping at the
    // lowest delay-feasible level.
    // scaled(e) = floor(c(e)/θ) = floor(c(e)·(n+1)·eps_den / (lb·eps_num)).
    let denom = lb as i128 * eps_num as i128;
    let scaled = |e: EdgeId| -> i64 {
        ((graph.edge(e).cost as i128 * (n as i128 + 1) * eps_den as i128) / denom) as i64
    };
    // Budget: c'(P*) ≤ OPT/θ ≤ ub·(n+1)·eps_den/(lb·eps_num) (+ slack n).
    let budget = ((ub as i128 * (n as i128 + 1) * eps_den as i128) / denom + n as i128 + 1)
        .min(i128::from(u32::MAX)) as usize;
    let SweepOutcome::Found(b) = budget_dp(
        scratch,
        graph,
        s,
        budget,
        |e| scaled(e).min(budget as i64 + 1),
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

    // Phase A — feasibility + bottleneck bracket, as in the classic scheme,
    // except the threshold Dijkstra's witness path is materialized: it is
    // the first incumbent, so `ub` starts at a real path cost (≤ n·c*).
    let sentinel = graph.total_delay().max(delay_bound).saturating_add(1);
    let min_delay_path_using = |threshold: i64| -> Option<Vec<EdgeId>> {
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
    };
    let mut costs: Vec<i64> = graph.edges().iter().map(|e| e.cost).collect();
    costs.push(0);
    costs.sort_unstable();
    costs.dedup();
    min_delay_path_using(*costs.last().unwrap())?;
    let mut lo = 0usize;
    let mut hi = costs.len() - 1;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if min_delay_path_using(costs[mid]).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let cstar = costs[lo];
    let witness = min_delay_path_using(cstar).expect("threshold c* is feasible by construction");
    let mut incumbent = CspPath::from_edges(graph, witness);
    debug_assert!(incumbent.delay <= delay_bound);
    if cstar == 0 {
        // A zero-cost feasible path exists; the witness is exactly the
        // min-delay path over cost-0 edges (edges above the threshold carry
        // the sentinel weight), hence optimal.
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
    while ub > 4 * lb {
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
    use proptest::prelude::*;

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
        // exact sweeps after them must not read the rows left behind.
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
                    for (num, den) in [(1, 2), (1, 1)] {
                        let fresh = rsp_fptas(g, NodeId(0), t, d, num, den);
                        let reused = rsp_fptas_with(g, NodeId(0), t, d, num, den, &mut scratch);
                        assert_eq!(fresh, reused, "fptas d={d} eps={num}/{den}");
                        stopped_early |= scratch.value.len() < scratch.levels * scratch.n;
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
