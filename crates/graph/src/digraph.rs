//! Compact adjacency-list digraph with parallel-edge support.

use crate::{Cost, Delay};
use serde::{Content, DeError, Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of a node, dense in `0..graph.node_count()`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifier of an edge, dense in `0..graph.edge_count()`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The node index as a `usize` (for direct array indexing).
    #[inline]
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The edge index as a `usize` (for direct array indexing).
    #[inline]
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One stored edge: endpoints plus the two QoS attributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeRef {
    /// Tail (source endpoint).
    pub src: NodeId,
    /// Head (target endpoint).
    pub dst: NodeId,
    /// Edge cost `c(e)`.
    pub cost: Cost,
    /// Edge delay `d(e)`.
    pub delay: Delay,
}

/// A directed multigraph with per-edge cost and delay.
///
/// Nodes are dense integers; edges keep insertion order and may be parallel
/// (same endpoints) or self-loops — both arise in residual constructions.
///
/// The adjacency arrays are behind `Arc` so weight-only derivatives
/// ([`DiGraph::with_updates`], [`DiGraph::map_weights`]) share them
/// structurally: a topology epoch bump clones only the edge records.
/// Mutating the *structure* (`add_node` / `add_edge`) copies-on-write.
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    edges: Vec<EdgeRef>,
    out: Arc<Vec<Vec<EdgeId>>>,
    inn: Arc<Vec<Vec<EdgeId>>>,
}

impl DiGraph {
    /// Creates an empty graph with `n` nodes and no edges.
    #[must_use]
    pub fn new(n: usize) -> Self {
        DiGraph {
            edges: Vec::new(),
            out: Arc::new(vec![Vec::new(); n]),
            inn: Arc::new(vec![Vec::new(); n]),
        }
    }

    /// Builds a graph from `(src, dst, cost, delay)` tuples over `n` nodes.
    #[must_use]
    pub fn from_edges(n: usize, list: &[(u32, u32, Cost, Delay)]) -> Self {
        let mut g = DiGraph::new(n);
        for &(u, v, c, d) in list {
            g.add_edge(NodeId(u), NodeId(v), c, d);
        }
        g
    }

    /// Number of nodes.
    #[inline]
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of edges.
    #[inline]
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Appends a fresh node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        Arc::make_mut(&mut self.out).push(Vec::new());
        Arc::make_mut(&mut self.inn).push(Vec::new());
        NodeId((self.out.len() - 1) as u32)
    }

    /// Appends a directed edge `src → dst` and returns its id.
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, cost: Cost, delay: Delay) -> EdgeId {
        assert!(
            src.index() < self.node_count() && dst.index() < self.node_count(),
            "edge endpoint out of range"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeRef {
            src,
            dst,
            cost,
            delay,
        });
        Arc::make_mut(&mut self.out)[src.index()].push(id);
        Arc::make_mut(&mut self.inn)[dst.index()].push(id);
        id
    }

    /// Rewrites the weights of edge `e` in place, leaving the shared
    /// adjacency arrays untouched.
    ///
    /// Panics if `e` is out of range.
    pub fn set_edge_weights(&mut self, e: EdgeId, cost: Cost, delay: Delay) {
        let rec = &mut self.edges[e.index()];
        rec.cost = cost;
        rec.delay = delay;
    }

    /// Reverses edge `e` in place: swaps its endpoints (weights untouched)
    /// and moves its id between the adjacency lists. `add_edge` appends ids
    /// in increasing order, so every list is sorted by id; the moved id is
    /// inserted at its sorted position, which keeps the graph identical to
    /// one built edge by edge with `e` reversed.
    pub(crate) fn reverse_edge(&mut self, e: EdgeId) {
        let rec = &mut self.edges[e.index()];
        let (u, v) = (rec.src, rec.dst);
        (rec.src, rec.dst) = (v, u);
        let out = Arc::make_mut(&mut self.out);
        remove_sorted(&mut out[u.index()], e);
        insert_sorted(&mut out[v.index()], e);
        let inn = Arc::make_mut(&mut self.inn);
        remove_sorted(&mut inn[v.index()], e);
        insert_sorted(&mut inn[u.index()], e);
    }

    /// A weight-patched copy sharing this graph's adjacency arrays.
    ///
    /// `changes` is a list of `(edge, new_cost, new_delay)` triples; the
    /// returned graph has identical structure (same node/edge ids, same
    /// iteration order) and its `out`/`inn` arrays are the *same* allocations
    /// as `self`'s (`Arc` clones) — this is the structural-sharing primitive
    /// behind topology epochs. Panics if any edge id is out of range.
    #[must_use]
    pub fn with_updates(&self, changes: &[(EdgeId, Cost, Delay)]) -> DiGraph {
        let mut g = self.clone();
        for &(e, c, d) in changes {
            g.set_edge_weights(e, c, d);
        }
        g
    }

    /// True when `self` and `other` share the same adjacency allocations
    /// (i.e. one was derived from the other by weight-only updates).
    #[must_use]
    pub fn shares_adjacency_with(&self, other: &DiGraph) -> bool {
        Arc::ptr_eq(&self.out, &other.out) && Arc::ptr_eq(&self.inn, &other.inn)
    }

    /// The stored record of edge `e`.
    #[inline]
    #[must_use]
    pub fn edge(&self, e: EdgeId) -> EdgeRef {
        self.edges[e.index()]
    }

    /// All edges in id order.
    #[inline]
    #[must_use]
    pub fn edges(&self) -> &[EdgeRef] {
        &self.edges
    }

    /// Outgoing edge ids of `v`, in id order.
    #[inline]
    #[must_use]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.out[v.index()]
    }

    /// Incoming edge ids of `v`, in id order.
    #[inline]
    #[must_use]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.inn[v.index()]
    }

    /// Iterator over `(EdgeId, EdgeRef)` pairs.
    pub fn edge_iter(&self) -> impl Iterator<Item = (EdgeId, EdgeRef)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &e)| (EdgeId(i as u32), e))
    }

    /// Iterator over node ids.
    pub fn node_iter(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Sum of all edge costs (`Σ c(e)` in the paper's complexity bounds).
    #[must_use]
    pub fn total_cost(&self) -> Cost {
        self.edges.iter().map(|e| e.cost).sum()
    }

    /// Sum of all edge delays (`Σ d(e)`).
    #[must_use]
    pub fn total_delay(&self) -> Delay {
        self.edges.iter().map(|e| e.delay).sum()
    }

    /// The graph with every edge reversed (attributes unchanged).
    #[must_use]
    pub fn reversed(&self) -> DiGraph {
        let mut g = DiGraph::new(self.node_count());
        for e in &self.edges {
            g.add_edge(e.dst, e.src, e.cost, e.delay);
        }
        g
    }

    /// A copy with weights transformed by `f(cost, delay) -> (cost, delay)`.
    ///
    /// The copy shares this graph's adjacency arrays (structure is unchanged,
    /// only the edge records are rewritten).
    #[must_use]
    pub fn map_weights(&self, mut f: impl FnMut(Cost, Delay) -> (Cost, Delay)) -> DiGraph {
        let mut g = self.clone();
        for e in &mut g.edges {
            let (c, d) = f(e.cost, e.delay);
            e.cost = c;
            e.delay = d;
        }
        g
    }

    /// Graphviz DOT rendering (costs/delays as `c,d` labels), for debugging
    /// and for the examples' output.
    #[must_use]
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("digraph G {\n");
        for (id, e) in self.edge_iter() {
            let _ = writeln!(
                s,
                "  {} -> {} [label=\"e{}: c={},d={}\"];",
                e.src.0, e.dst.0, id.0, e.cost, e.delay
            );
        }
        s.push_str("}\n");
        s
    }
}

/// Removes `e` from an id-sorted adjacency list.
fn remove_sorted(list: &mut Vec<EdgeId>, e: EdgeId) {
    let i = list
        .binary_search(&e)
        .expect("edge is in its adjacency list");
    list.remove(i);
}

/// Inserts `e` into an id-sorted adjacency list at its sorted position.
fn insert_sorted(list: &mut Vec<EdgeId>, e: EdgeId) {
    let i = list
        .binary_search(&e)
        .expect_err("edge is not yet in the list");
    list.insert(i, e);
}

// The adjacency arrays are fully determined by `edges` + the node count, so
// the wire form carries only `{n, edges}` and rebuilds `out`/`inn` on read.
// (Hand-written because the vendored serde has no `Arc` support.)
impl Serialize for DiGraph {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("n".to_string(), Content::Int(self.node_count() as i128)),
            ("edges".to_string(), self.edges.to_content()),
        ])
    }
}

impl Deserialize for DiGraph {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let n = usize::from_content(c.field("n")?)?;
        let edges = Vec::<EdgeRef>::from_content(c.field("edges")?)?;
        let mut g = DiGraph::new(n);
        for e in edges {
            if e.src.index() >= n || e.dst.index() >= n {
                return Err(DeError(format!(
                    "edge {} -> {} out of range for {n} nodes",
                    e.src.0, e.dst.0
                )));
            }
            g.add_edge(e.src, e.dst, e.cost, e.delay);
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, plus a parallel 0 -> 1.
        DiGraph::from_edges(
            4,
            &[
                (0, 1, 1, 2),
                (1, 3, 3, 4),
                (0, 2, 5, 6),
                (2, 3, 7, 8),
                (0, 1, 9, 10),
            ],
        )
    }

    #[test]
    fn counts_and_lookup() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 5);
        let e = g.edge(EdgeId(1));
        assert_eq!(
            (e.src, e.dst, e.cost, e.delay),
            (NodeId(1), NodeId(3), 3, 4)
        );
    }

    #[test]
    fn adjacency_includes_parallel_edges() {
        let g = diamond();
        assert_eq!(g.out_edges(NodeId(0)), &[EdgeId(0), EdgeId(2), EdgeId(4)]);
        assert_eq!(g.in_edges(NodeId(1)), &[EdgeId(0), EdgeId(4)]);
        assert_eq!(g.in_edges(NodeId(3)), &[EdgeId(1), EdgeId(3)]);
        assert!(g.out_edges(NodeId(3)).is_empty());
    }

    #[test]
    fn add_node_grows() {
        let mut g = diamond();
        let v = g.add_node();
        assert_eq!(v, NodeId(4));
        assert_eq!(g.node_count(), 5);
        g.add_edge(v, NodeId(0), 1, 1);
        assert_eq!(g.out_edges(v), &[EdgeId(5)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_panics() {
        let mut g = DiGraph::new(2);
        g.add_edge(NodeId(0), NodeId(2), 1, 1);
    }

    #[test]
    fn totals() {
        let g = diamond();
        assert_eq!(g.total_cost(), 25);
        assert_eq!(g.total_delay(), 30);
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let g = diamond().reversed();
        let e = g.edge(EdgeId(0));
        assert_eq!((e.src, e.dst), (NodeId(1), NodeId(0)));
        assert_eq!(g.out_edges(NodeId(3)), &[EdgeId(1), EdgeId(3)]);
    }

    #[test]
    fn map_weights_transforms() {
        let g = diamond().map_weights(|c, d| (c * 2, d + 1));
        assert_eq!(g.edge(EdgeId(0)).cost, 2);
        assert_eq!(g.edge(EdgeId(0)).delay, 3);
        assert_eq!(g.total_cost(), 50);
    }

    #[test]
    fn dot_contains_edges() {
        let dot = diamond().to_dot();
        assert!(dot.contains("0 -> 1"));
        assert!(dot.contains("c=7,d=8"));
    }

    #[test]
    fn weight_updates_share_adjacency() {
        let g = diamond();
        let h = g.with_updates(&[(EdgeId(0), 100, 200), (EdgeId(3), 1, 1)]);
        assert!(h.shares_adjacency_with(&g));
        assert_eq!(h.edge(EdgeId(0)).cost, 100);
        assert_eq!(h.edge(EdgeId(0)).delay, 200);
        assert_eq!(h.edge(EdgeId(3)).cost, 1);
        // untouched edges and all structure preserved
        assert_eq!(h.edge(EdgeId(1)), g.edge(EdgeId(1)));
        assert_eq!(h.out_edges(NodeId(0)), g.out_edges(NodeId(0)));
        // map_weights also shares
        let m = g.map_weights(|c, d| (c + 1, d));
        assert!(m.shares_adjacency_with(&g));
        assert_eq!(m.edge(EdgeId(2)).cost, 6);
    }

    #[test]
    fn structural_mutation_unshares() {
        let g = diamond();
        let mut h = g.clone();
        assert!(h.shares_adjacency_with(&g));
        h.add_edge(NodeId(3), NodeId(0), 1, 1);
        assert!(!h.shares_adjacency_with(&g));
        // original untouched
        assert!(g.out_edges(NodeId(3)).is_empty());
        assert_eq!(h.out_edges(NodeId(3)), &[EdgeId(5)]);
    }

    #[test]
    fn serde_roundtrip_rebuilds_adjacency() {
        let g = diamond();
        let json = serde_json::to_string(&g).unwrap();
        let h: DiGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(h.node_count(), g.node_count());
        assert_eq!(h.edges(), g.edges());
        assert_eq!(h.out_edges(NodeId(0)), g.out_edges(NodeId(0)));
        assert_eq!(h.in_edges(NodeId(3)), g.in_edges(NodeId(3)));
    }

    #[test]
    fn serde_rejects_out_of_range_edge() {
        let bad = r#"{"n":2,"edges":[{"src":0,"dst":5,"cost":1,"delay":1}]}"#;
        assert!(serde_json::from_str::<DiGraph>(bad).is_err());
    }

    #[test]
    fn self_loop_allowed() {
        let mut g = DiGraph::new(1);
        let e = g.add_edge(NodeId(0), NodeId(0), 1, 1);
        assert_eq!(g.out_edges(NodeId(0)), &[e]);
        assert_eq!(g.in_edges(NodeId(0)), &[e]);
    }
}
