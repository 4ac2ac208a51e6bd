//! Instance digests for the solution cache.
//!
//! Two requests share a cache slot exactly when they describe the same kRSP
//! problem *in the same numbering*: the edge list in request order plus
//! `(n, s, t, k, D)`. An answer is a set of edge ids, so edge order is part
//! of an instance's identity — the same edges listed in another order get
//! their own key (and their own solve) rather than ids that name other
//! edges.
//!
//! Every key comes from one streaming digest. It absorbs one 64-bit word
//! per field into two lanes, each a multiply–rotate chain with its own
//! constants, and finishes each lane through `splitmix64`. A lane step is
//! a bijection of the lane for a fixed word and of the word for a fixed
//! lane, so inputs that differ in one word always differ in both 64-bit
//! halves; the cache picks its shard from the upper half. Each lane runs
//! as two interleaved chains (even and odd words), so one word's multiply
//! need not wait for the previous word's. This is not a cryptographic
//! hash: the cache treats key equality as instance equality and stores no
//! instance copy, which is sound against accidental collisions, not
//! crafted ones.

use krsp::Instance;
use krsp_graph::DiGraph;

/// A 128-bit digest of a kRSP instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u128);

/// SplitMix64's finalizer: the digest's lane mixer, and the router's
/// ring-point and jitter mixer. Pure, so every derived quantity is a
/// function of its inputs alone.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The one digest routine (module docs). The leading family tag keeps the
/// key families apart.
struct Digest {
    /// Each lane's two chains; word `i` joins the chain word `i − 2` left.
    a: [u64; 2],
    b: [u64; 2],
}

impl Digest {
    fn new(family: u8) -> Self {
        Digest {
            a: [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344],
            b: [0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89],
        }
        .word(u64::from(family))
    }

    fn word(self, w: u64) -> Self {
        let a = (self.a[0] ^ w)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(27);
        let b = (self.b[0] ^ w)
            .wrapping_mul(0xd6e8_feb8_6659_fd93)
            .rotate_left(37);
        Digest {
            a: [self.a[1], a],
            b: [self.b[1], b],
        }
    }

    /// `n`, `m`, then each edge's endpoints — and, when `weighted`, its
    /// cost and delay — in edge-id order.
    fn graph(mut self, graph: &DiGraph, weighted: bool) -> Self {
        self = self
            .word(graph.node_count() as u64)
            .word(graph.edge_count() as u64);
        for e in graph.edges() {
            self = self.word(u64::from(e.src.0)).word(u64::from(e.dst.0));
            if weighted {
                self = self.word(e.cost as u64).word(e.delay as u64);
            }
        }
        self
    }

    fn finish(self) -> u128 {
        let lane = |[x, y]: [u64; 2]| splitmix64(x ^ y.rotate_left(32));
        (u128::from(lane(self.a)) << 64) | u128::from(lane(self.b))
    }
}

/// Cache key of a whole instance: the weighted edge list in edge-id order
/// plus `(n, s, t, k, D)`. Distinct in every parameter and in edge order.
#[must_use]
pub fn canonical_key(inst: &Instance) -> CacheKey {
    let d = Digest::new(b'i')
        .graph(&inst.graph, true)
        .word(u64::from(inst.s.0))
        .word(u64::from(inst.t.0))
        .word(inst.k as u64)
        .word(inst.delay_bound as u64);
    CacheKey(d.finish())
}

/// Weight-free digest of a topology's *structure*: the `(src, dst)` edge
/// list in edge-id order plus node/edge counts. Stable across weight-only
/// epochs (which never touch the edge list), so it identifies a topology
/// lineage.
#[must_use]
pub fn structural_key(graph: &DiGraph) -> u128 {
    Digest::new(b's').graph(graph, false).finish()
}

/// Digest of the full weighted graph (no query parameters): identifies the
/// exact weight assignment of one topology epoch, in the same edge order as
/// [`canonical_key`].
#[must_use]
pub fn weights_key(graph: &DiGraph) -> u128 {
    Digest::new(b'w').graph(graph, true).finish()
}

/// Cache key for a query against an epoch-registered topology: the
/// topology's [`structural_key`] plus `(s, t, k, D)` — deliberately
/// **weight-free**, so the key survives weight-only epoch bumps and the
/// epoch number joins through [`scope_key`] instead. Its family tag keeps
/// this key family disjoint from [`canonical_key`]'s.
#[must_use]
pub fn query_key(topo: u128, s: u32, t: u32, k: usize, delay_bound: i64) -> CacheKey {
    let d = Digest::new(b'q')
        .word((topo >> 64) as u64)
        .word(topo as u64)
        .word(u64::from(s))
        .word(u64::from(t))
        .word(k as u64)
        .word(delay_bound as u64);
    CacheKey(d.finish())
}

/// Folds a request's scope — the per-rung kernel assignment tag and the
/// topology epoch — into its base instance digest.
///
/// The tag is avalanched through a splitmix-style multiply–xorshift mix
/// before the XOR. A bare `tag × odd-constant` fold is linear: two scopes
/// whose tags XOR to the same value shift every key by the same amount, so
/// once epoch counters join the kernel bits, nearby `(kernel, epoch)` pairs
/// could cancel against each other across requests. The mix breaks that
/// linearity. A zero tag (all-classic ladder, epoch 0) folds to zero, so
/// the default scope's key is the base digest itself.
#[must_use]
pub fn scope_key(base: CacheKey, kernel_tag: u32, epoch: u64) -> CacheKey {
    let tag = (u128::from(kernel_tag) << 64) | u128::from(epoch);
    CacheKey(base.0 ^ mix_tag(tag))
}

/// splitmix-style finalizer over the 128-bit scope tag; `mix_tag(0) = 0`.
fn mix_tag(tag: u128) -> u128 {
    if tag == 0 {
        return 0;
    }
    let mut x = tag;
    x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835);
    x ^= x >> 64;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9_94d0_49bb_1331_11eb);
    x ^= x >> 61;
    x
}

#[cfg(test)]
// Tests may unwrap: a panic is exactly the failure report we want there.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use krsp_graph::{DiGraph, NodeId};

    fn edges() -> Vec<(u32, u32, i64, i64)> {
        vec![(0, 1, 1, 5), (1, 3, 1, 5), (0, 2, 4, 1), (2, 3, 4, 1)]
    }

    fn inst_from(order: &[(u32, u32, i64, i64)]) -> Instance {
        let g = DiGraph::from_edges(4, order);
        Instance::new(g, NodeId(0), NodeId(3), 2, 20).unwrap()
    }

    /// An answer's edge ids are numbered in its instance's edge order, so
    /// the same edges in another order must not share a key.
    #[test]
    fn edge_reordering_changes_the_key() {
        let base = inst_from(&edges());
        let mut reordered = edges();
        reordered.reverse();
        let other = inst_from(&reordered);
        assert_ne!(canonical_key(&base), canonical_key(&other));
        assert_ne!(structural_key(&base.graph), structural_key(&other.graph));
        assert_ne!(weights_key(&base.graph), weights_key(&other.graph));
    }

    /// Small generated instances from three families, k = 2.
    fn generated() -> Vec<Instance> {
        use krsp_gen::{Family, Regime, Workload};
        let families = [Family::Gnm, Family::Geometric, Family::Grid];
        (0..6u64)
            .filter_map(|seed| {
                krsp_gen::instantiate_with_retries(
                    Workload {
                        family: families[seed as usize % families.len()],
                        n: 12,
                        m: 36,
                        regime: Regime::Uniform,
                        k: 2,
                        tightness: 0.5,
                        seed,
                    },
                    8,
                )
            })
            .collect()
    }

    /// The words [`canonical_key`] absorbs after its family tag.
    fn canonical_words(inst: &Instance) -> Vec<u64> {
        let g = &inst.graph;
        let mut words = vec![g.node_count() as u64, g.edge_count() as u64];
        for e in g.edges() {
            words.extend([
                u64::from(e.src.0),
                u64::from(e.dst.0),
                e.cost as u64,
                e.delay as u64,
            ]);
        }
        words.extend([
            u64::from(inst.s.0),
            u64::from(inst.t.0),
            inst.k as u64,
            inst.delay_bound as u64,
        ]);
        words
    }

    fn digest_words(words: &[u64]) -> u128 {
        words
            .iter()
            .fold(Digest::new(b'i'), |d, &w| d.word(w))
            .finish()
    }

    fn differs_in_both_halves(x: u128, y: u128) -> bool {
        (x >> 64) != (y >> 64) && (x as u64) != (y as u64)
    }

    #[test]
    fn every_bit_flip_and_edge_swap_moves_both_halves() {
        let instances = generated();
        assert!(instances.len() >= 4, "generator produced too few instances");
        for inst in &instances {
            let key = canonical_key(inst).0;
            let words = canonical_words(inst);
            assert_eq!(digest_words(&words), key, "word stream out of step");
            // Every bit of every edge field and of (n, m, s, t, k, D).
            for i in 0..words.len() {
                for bit in 0..64 {
                    let mut flipped = words.clone();
                    flipped[i] ^= 1 << bit;
                    assert!(
                        differs_in_both_halves(key, digest_words(&flipped)),
                        "word {i} bit {bit}"
                    );
                }
            }
            // Every swap of two unequal edges, as a real instance.
            let list: Vec<(u32, u32, i64, i64)> = inst
                .graph
                .edges()
                .iter()
                .map(|e| (e.src.0, e.dst.0, e.cost, e.delay))
                .collect();
            for i in 0..list.len() {
                for j in i + 1..list.len() {
                    if list[i] == list[j] {
                        continue;
                    }
                    let mut swapped = list.clone();
                    swapped.swap(i, j);
                    let g = DiGraph::from_edges(inst.n(), &swapped);
                    let other = Instance::new(g, inst.s, inst.t, inst.k, inst.delay_bound).unwrap();
                    assert!(
                        differs_in_both_halves(key, canonical_key(&other).0),
                        "swap {i} <-> {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn distinct_parameters_never_collide() {
        let base = inst_from(&edges());
        let k0 = canonical_key(&base);

        let mut s_changed = base.clone();
        s_changed.s = NodeId(1);
        let mut t_changed = base.clone();
        t_changed.t = NodeId(2);
        let mut k_changed = base.clone();
        k_changed.k = 1;
        let mut d_changed = base.clone();
        d_changed.delay_bound = 21;

        let keys = [
            canonical_key(&s_changed),
            canonical_key(&t_changed),
            canonical_key(&k_changed),
            canonical_key(&d_changed),
        ];
        for k in keys {
            assert_ne!(k, k0);
        }
        // All four mutations are pairwise distinct too.
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j]);
            }
        }
    }

    #[test]
    fn weight_changes_change_the_key() {
        let base = inst_from(&edges());
        let mut bumped = edges();
        bumped[2].2 += 1; // cost of one edge
        assert_ne!(canonical_key(&base), canonical_key(&inst_from(&bumped)));
        let mut slower = edges();
        slower[1].3 += 1; // delay of one edge
        assert_ne!(canonical_key(&base), canonical_key(&inst_from(&slower)));
    }

    #[test]
    fn structural_key_ignores_weights_weights_key_does_not() {
        let base = inst_from(&edges());
        let mut bumped = edges();
        bumped[0].2 += 7;
        bumped[3].3 += 2;
        let changed = inst_from(&bumped);
        assert_eq!(structural_key(&base.graph), structural_key(&changed.graph));
        assert_ne!(weights_key(&base.graph), weights_key(&changed.graph));
        // A structural change moves both.
        let mut extra = edges();
        extra.push((1, 2, 1, 1));
        let grown = inst_from(&extra);
        assert_ne!(structural_key(&base.graph), structural_key(&grown.graph));
        assert_ne!(weights_key(&base.graph), weights_key(&grown.graph));
    }

    #[test]
    fn query_key_distinct_per_parameter() {
        let topo = structural_key(&inst_from(&edges()).graph);
        let base = query_key(topo, 0, 3, 2, 20);
        let variants = [
            query_key(topo, 1, 3, 2, 20),
            query_key(topo, 0, 2, 2, 20),
            query_key(topo, 0, 3, 1, 20),
            query_key(topo, 0, 3, 2, 21),
            query_key(topo ^ 1, 0, 3, 2, 20),
        ];
        for v in variants {
            assert_ne!(v, base);
        }
    }

    // Satellite regression for the PR 8 XOR fold: distinct (kernel tag,
    // epoch) scopes must never collide on the same instance. The old
    // `tag × odd` fold was linear in the tag, so scope pairs with equal
    // tag-XOR shifted keys identically; the splitmix-style mix avalanches
    // every tag bit instead. 16 kernel ladders × 64 epochs = 1024 scopes,
    // all pairwise distinct here.
    #[test]
    fn distinct_kernel_epoch_scopes_never_collide() {
        let base = canonical_key(&inst_from(&edges()));
        let mut seen = std::collections::HashMap::new();
        for ladder in 0u32..16 {
            // Spread the 4 two-valued rung assignments over the 4 tag bytes
            // the service packs (one kernel byte per rung).
            let kernel_tag = (ladder & 1)
                | ((ladder >> 1) & 1) << 8
                | ((ladder >> 2) & 1) << 16
                | ((ladder >> 3) & 1) << 24;
            for epoch in 0u64..64 {
                let key = scope_key(base, kernel_tag, epoch);
                if let Some(prev) = seen.insert(key, (kernel_tag, epoch)) {
                    panic!("scope collision: {prev:?} vs ({kernel_tag}, {epoch})");
                }
            }
        }
        // The all-classic / epoch-0 scope is the identity fold.
        assert_eq!(scope_key(base, 0, 0), base);
    }
}
