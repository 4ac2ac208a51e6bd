//! Topology epochs: registered graph lineages whose weight updates
//! invalidate the solution cache *selectively* instead of wholesale.
//!
//! A network controller re-provisions against the same topology thousands
//! of times while link costs drift. Under plain [`canonical_key`]
//! (weights included) every cost update orphans the whole cache — a 100%
//! miss storm per update. The registry fixes that:
//!
//! * [`EpochRegistry::register`] pins a topology lineage by its
//!   weight-free [`structural_key`](crate::hash::structural_key) at
//!   **epoch 0** and remembers its exact weights.
//! * A request whose graph matches the registered weights is keyed by
//!   [`query_key`](crate::hash::query_key) (structure + `s,t,k,D`, no
//!   weights) scoped with the current epoch — see
//!   [`scope_key`](crate::hash::scope_key).
//! * [`EpochRegistry::advance`] applies a weight delta, bumps the epoch,
//!   and sweeps the cache: entries whose solution **avoids every changed
//!   edge** are *rekeyed* into the new epoch (their cost, delay, and —
//!   for non-decreasing deltas — their `cost ≤ 2·C_OPT` certificate are
//!   all unchanged, since `C_OPT` only grows); entries touching a
//!   changed edge are evicted, but their path systems are kept as
//!   **warm-start seeds** for the next solve of the same query
//!   (`krsp::solve_warm_with` re-verifies them against the new weights).
//!
//! Any decrease in a cost or delay invalidates the retained-entry
//! argument (`C_OPT` can drop below half the cached cost), so a
//! non-monotone delta evicts every tracked entry — all of them still
//! become seeds.
//!
//! [`canonical_key`]: crate::hash::canonical_key

use crate::cache::{ShardedCache, Sweep};
use crate::degrade::Degraded;
use crate::hash::{self, CacheKey};
use crate::sync_util::lock_recover;
use krsp::Instance;
use krsp_gen::WeightChange;
use krsp_graph::{DiGraph, EdgeSet};
use std::collections::HashMap;
use std::sync::Mutex;

/// Seeds kept per topology; beyond this the oldest-epoch seeds are
/// dropped first (they are only a latency optimization).
const MAX_SEEDS: usize = 4096;

/// How a request resolves against the registry: the weight-free base key
/// and the epoch to scope it with.
#[derive(Clone, Copy, Debug)]
pub struct EpochScope {
    /// The topology's structural digest (the registry handle).
    pub structural: u128,
    /// Weight-free query key (structure + `s, t, k, D`).
    pub base: CacheKey,
    /// Current epoch of the lineage.
    pub epoch: u64,
}

/// Outcome of one [`EpochRegistry::advance`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochReport {
    /// The epoch the lineage is now at.
    pub epoch: u64,
    /// Tracked entries rekeyed into the new epoch (still served).
    pub retained: u64,
    /// Tracked entries evicted (their solutions touched changed edges, or
    /// the delta was not non-decreasing).
    pub evicted: u64,
    /// Warm-start seeds now waiting for the new epoch's solves (evicted
    /// entries plus unconsumed seeds carried forward).
    pub seeds: u64,
}

/// Why an [`EpochRegistry::advance`] was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EpochError {
    /// No topology with this structural digest is registered.
    UnknownTopology,
    /// A change names an edge id outside the registered graph.
    EdgeOutOfRange(u32),
}

impl std::fmt::Display for EpochError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EpochError::UnknownTopology => f.write_str("topology not registered"),
            EpochError::EdgeOutOfRange(e) => {
                write!(f, "edge id {e} out of range for the registered topology")
            }
        }
    }
}

impl std::error::Error for EpochError {}

/// What the registry remembers about one cache entry it issued: enough to
/// recompute the entry's key under any future epoch.
#[derive(Clone, Copy, Debug)]
struct Issued {
    base: CacheKey,
    kernel_tag: u32,
}

struct Seed {
    issued: Issued,
    edges: EdgeSet,
    /// Epoch the seed was minted at (oldest dropped first at capacity).
    born: u64,
}

struct TopoState {
    /// The lineage's graph at the current epoch.
    graph: DiGraph,
    /// `weights_key(graph)` — the exact weight assignment requests must
    /// match to ride this lineage.
    weights: u128,
    epoch: u64,
    /// Epoch-scoped cache keys this registry issued, so `advance` can
    /// tell its entries from unrelated ones and rekey them.
    issued: HashMap<CacheKey, Issued>,
    /// Warm-start seeds keyed by the *current-epoch* scoped key.
    seeds: HashMap<CacheKey, Seed>,
}

/// Registered topology lineages, keyed by structural digest.
#[derive(Default)]
pub struct EpochRegistry {
    inner: Mutex<HashMap<u128, TopoState>>,
}

impl EpochRegistry {
    /// Registers (or re-affirms) `graph` as a lineage at its current
    /// weights. First registration starts at epoch 0; re-registering an
    /// existing lineage is idempotent and returns its current epoch —
    /// weight changes go through [`EpochRegistry::advance`] so the cache
    /// sweep runs.
    pub fn register(&self, graph: &DiGraph) -> (u128, u64) {
        let structural = hash::structural_key(graph);
        let mut map = lock_recover(&self.inner);
        let state = map.entry(structural).or_insert_with(|| TopoState {
            graph: graph.clone(),
            weights: hash::weights_key(graph),
            epoch: 0,
            issued: HashMap::new(),
            seeds: HashMap::new(),
        });
        (structural, state.epoch)
    }

    /// Resolves a request against the registry: `Some` iff the instance's
    /// graph matches a registered lineage *at its current weights* (a
    /// stale or foreign weight assignment falls back to canonical keying).
    pub fn lookup(&self, inst: &Instance) -> Option<EpochScope> {
        // With no lineage registered (the common case) nothing can match,
        // so skip the structural hash, which sorts the whole edge list.
        if lock_recover(&self.inner).is_empty() {
            return None;
        }
        let structural = hash::structural_key(&inst.graph);
        let map = lock_recover(&self.inner);
        let state = map.get(&structural)?;
        if hash::weights_key(&inst.graph) != state.weights {
            return None;
        }
        Some(EpochScope {
            structural,
            base: hash::query_key(structural, inst.s.0, inst.t.0, inst.k, inst.delay_bound),
            epoch: state.epoch,
        })
    }

    /// Records that the cache now holds `scoped` for this lineage, so a
    /// future `advance` can rekey or reseed it.
    ///
    /// A record whose scope is not the lineage's *current* epoch is
    /// dropped: a solve that raced an advance computed its answer under
    /// the pre-advance weights, and tracking it would let the next
    /// advance — which tests entries against its own delta only — rekey
    /// that stale answer into the current epoch with full guarantees.
    /// (The entry may still sit in the LRU under its old-epoch key, but
    /// no lookup ever computes that key again.)
    pub fn record_issued(&self, scope: &EpochScope, scoped: CacheKey, kernel_tag: u32) {
        let mut map = lock_recover(&self.inner);
        if let Some(state) = map.get_mut(&scope.structural) {
            if scope.epoch != state.epoch {
                return;
            }
            state.issued.insert(
                scoped,
                Issued {
                    base: scope.base,
                    kernel_tag,
                },
            );
        }
    }

    /// Takes (consumes) the warm-start seed for `scoped`, if one waits.
    pub fn take_seed(&self, scope: &EpochScope, scoped: CacheKey) -> Option<EdgeSet> {
        let mut map = lock_recover(&self.inner);
        map.get_mut(&scope.structural)?
            .seeds
            .remove(&scoped)
            .map(|s| s.edges)
    }

    /// The registered lineage's current `(epoch, graph)` — test and
    /// tooling hook.
    pub fn current(&self, structural: u128) -> Option<(u64, DiGraph)> {
        let map = lock_recover(&self.inner);
        map.get(&structural).map(|s| (s.epoch, s.graph.clone()))
    }

    /// Number of registered topology lineages.
    pub fn lineage_count(&self) -> u64 {
        lock_recover(&self.inner).len() as u64
    }

    /// Highest epoch across registered lineages (0 when none).
    pub fn max_epoch(&self) -> u64 {
        lock_recover(&self.inner)
            .values()
            .map(|s| s.epoch)
            .max()
            .unwrap_or(0)
    }

    /// Applies `changes` to the registered lineage, bumping its epoch and
    /// sweeping `cache`: untouched entries rekey into the new epoch,
    /// touched ones are evicted into warm-start seeds.
    ///
    /// # Errors
    /// [`EpochError::UnknownTopology`] when `structural` is not
    /// registered; [`EpochError::EdgeOutOfRange`] when a change names a
    /// nonexistent edge (the lineage is left untouched).
    pub fn advance(
        &self,
        cache: &ShardedCache,
        structural: u128,
        changes: &[WeightChange],
    ) -> Result<EpochReport, EpochError> {
        let mut map = lock_recover(&self.inner);
        let state = map
            .get_mut(&structural)
            .ok_or(EpochError::UnknownTopology)?;
        let m = state.graph.edge_count();
        if let Some(bad) = changes.iter().find(|c| c.edge.0 as usize >= m) {
            return Err(EpochError::EdgeOutOfRange(bad.edge.0));
        }

        // Retained entries keep their `cost ≤ 2·C_OPT` certificate only
        // when `C_OPT` cannot shrink — i.e. no weight decreased
        // anywhere. Otherwise everything tracked is evicted
        // (and reseeded).
        let non_decreasing = changes.iter().all(|c| c.is_non_decreasing(&state.graph));
        let mut changed = EdgeSet::with_capacity(m);
        for c in changes {
            changed.insert(c.edge);
        }

        let new_epoch = state.epoch + 1;
        let issued = std::mem::take(&mut state.issued);
        let mut new_issued: HashMap<CacheKey, Issued> = HashMap::new();
        let mut new_seeds: HashMap<CacheKey, Seed> = HashMap::new();
        let (mut retained, mut evicted) = (0u64, 0u64);

        cache.sweep(|key, value: &Degraded| {
            let Some(entry) = issued.get(key) else {
                return Sweep::Keep; // not ours (canonical or other lineage)
            };
            let fresh = hash::scope_key(entry.base, entry.kernel_tag, new_epoch);
            let untouched = value.solution.edges.iter().all(|e| !changed.contains(e));
            if non_decreasing && untouched {
                retained += 1;
                new_issued.insert(fresh, *entry);
                Sweep::Rekey(fresh)
            } else {
                evicted += 1;
                new_seeds.insert(
                    fresh,
                    Seed {
                        issued: *entry,
                        edges: value.solution.edges.clone(),
                        born: new_epoch,
                    },
                );
                Sweep::Evict
            }
        });

        // Unconsumed seeds stay useful across epochs: remap them to the
        // new epoch's keys (an evicted entry's fresh seed wins a tie).
        for (_, seed) in std::mem::take(&mut state.seeds) {
            let fresh = hash::scope_key(seed.issued.base, seed.issued.kernel_tag, new_epoch);
            new_seeds.entry(fresh).or_insert(seed);
        }
        if new_seeds.len() > MAX_SEEDS {
            let mut by_age: Vec<(CacheKey, u64)> =
                new_seeds.iter().map(|(k, s)| (*k, s.born)).collect();
            by_age.sort_unstable_by_key(|&(_, born)| born);
            for (key, _) in by_age.into_iter().take(new_seeds.len() - MAX_SEEDS) {
                new_seeds.remove(&key);
            }
        }

        state.graph = krsp_gen::apply_changes(&state.graph, changes);
        state.weights = hash::weights_key(&state.graph);
        state.epoch = new_epoch;
        state.issued = new_issued;
        let seeds = new_seeds.len() as u64;
        state.seeds = new_seeds;

        Ok(EpochReport {
            epoch: new_epoch,
            retained,
            evicted,
            seeds,
        })
    }
}

#[cfg(test)]
// Tests may unwrap: a panic is exactly the failure report we want there.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::degrade::Rung;
    use krsp_graph::{EdgeId, NodeId};

    fn diamond() -> DiGraph {
        DiGraph::from_edges(4, &[(0, 1, 1, 5), (1, 3, 1, 5), (0, 2, 4, 1), (2, 3, 4, 1)])
    }

    fn inst(g: &DiGraph, d: i64) -> Instance {
        Instance::new(g.clone(), NodeId(0), NodeId(3), 2, d).unwrap()
    }

    fn answer(graph: &DiGraph, edge_ids: &[u32]) -> Degraded {
        let mut edges = EdgeSet::new(graph);
        for &e in edge_ids {
            edges.insert(EdgeId(e));
        }
        Degraded {
            solution: krsp::Solution {
                cost: edges.total_cost(graph),
                delay: edges.total_delay(graph),
                edges,
                lower_bound: None,
            },
            rung: Rung::Full,
            guarantee: Rung::Full.guarantee(),
            kernel: krsp::KernelKind::Classic,
            warm: false,
        }
    }

    #[test]
    fn lookup_requires_matching_weights() {
        let reg = EpochRegistry::default();
        let g = diamond();
        let (structural, epoch) = reg.register(&g);
        assert_eq!(epoch, 0);
        // Idempotent re-register.
        assert_eq!(reg.register(&g), (structural, 0));

        let scope = reg.lookup(&inst(&g, 20)).unwrap();
        assert_eq!(scope.structural, structural);
        assert_eq!(scope.epoch, 0);

        // Same structure, different weights: no scope (canonical path).
        let drifted = g.with_updates(&[(EdgeId(0), 2, 5)]);
        assert!(reg.lookup(&inst(&drifted, 20)).is_none());
        // Unregistered structure: no scope.
        let other = DiGraph::from_edges(3, &[(0, 1, 1, 1), (1, 2, 1, 1)]);
        assert!(reg
            .lookup(&Instance::new(other, NodeId(0), NodeId(2), 1, 5).unwrap())
            .is_none());
    }

    #[test]
    fn advance_retains_untouched_and_reseeds_touched() {
        let reg = EpochRegistry::default();
        let cache = ShardedCache::new(64, 2);
        let g = diamond();
        let (structural, _) = reg.register(&g);

        // Two issued entries: one on the cheap path (edges 0,1), one on
        // the fast path (edges 2,3).
        let scope = reg.lookup(&inst(&g, 20)).unwrap();
        let cheap = hash::scope_key(scope.base, 0, 0);
        let fast_base = hash::query_key(structural, 0, 3, 2, 3);
        let fast = hash::scope_key(fast_base, 0, 0);
        cache.put(cheap, answer(&g, &[0, 1]));
        cache.put(fast, answer(&g, &[2, 3]));
        reg.record_issued(&scope, cheap, 0);
        reg.record_issued(
            &EpochScope {
                structural,
                base: fast_base,
                epoch: 0,
            },
            fast,
            0,
        );

        // Bump edge 2's cost (touches only the fast answer).
        let report = reg
            .advance(
                &cache,
                structural,
                &[WeightChange {
                    edge: EdgeId(2),
                    cost: 6,
                    delay: 1,
                }],
            )
            .unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.retained, 1);
        assert_eq!(report.evicted, 1);
        assert_eq!(report.seeds, 1);

        // The untouched entry answers at its rekeyed epoch-1 key.
        let cheap1 = hash::scope_key(scope.base, 0, 1);
        assert_eq!(cache.get(cheap1).unwrap().solution.cost, 2);
        assert!(cache.get(cheap).is_none(), "old-epoch key is gone");
        // The touched entry is gone but left a seed at the new key.
        let fast1 = hash::scope_key(fast_base, 0, 1);
        assert!(cache.get(fast1).is_none());
        let (epoch, now) = reg.current(structural).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(now.edges()[2].cost, 6);
        let seed = reg
            .take_seed(
                &EpochScope {
                    structural,
                    base: fast_base,
                    epoch: 1,
                },
                fast1,
            )
            .unwrap();
        assert!(seed.contains(EdgeId(2)) && seed.contains(EdgeId(3)));
        // Seeds are consumed once.
        assert!(reg
            .take_seed(
                &EpochScope {
                    structural,
                    base: fast_base,
                    epoch: 1,
                },
                fast1,
            )
            .is_none());

        // Lookups now require the *new* weights.
        assert!(reg.lookup(&inst(&g, 20)).is_none());
        let g1 = g.with_updates(&[(EdgeId(2), 6, 1)]);
        assert_eq!(reg.lookup(&inst(&g1, 20)).unwrap().epoch, 1);
    }

    #[test]
    fn decreasing_delta_evicts_everything_tracked() {
        let reg = EpochRegistry::default();
        let cache = ShardedCache::new(64, 2);
        let g = diamond();
        let (structural, _) = reg.register(&g);
        let scope = reg.lookup(&inst(&g, 20)).unwrap();
        let key = hash::scope_key(scope.base, 0, 0);
        cache.put(key, answer(&g, &[0, 1]));
        reg.record_issued(&scope, key, 0);

        // Edge 2 gets *cheaper*: even the untouched cheap-path entry loses
        // its certificate (the LP bound may drop), so it is evicted.
        let report = reg
            .advance(
                &cache,
                structural,
                &[WeightChange {
                    edge: EdgeId(2),
                    cost: 1,
                    delay: 1,
                }],
            )
            .unwrap();
        assert_eq!(report.retained, 0);
        assert_eq!(report.evicted, 1);
        assert_eq!(report.seeds, 1);
        assert!(cache.get(hash::scope_key(scope.base, 0, 1)).is_none());
    }

    #[test]
    fn stale_epoch_records_are_never_tracked_or_rekeyed() {
        let reg = EpochRegistry::default();
        let cache = ShardedCache::new(64, 2);
        let g = diamond();
        let (structural, _) = reg.register(&g);
        let scope0 = reg.lookup(&inst(&g, 20)).unwrap();
        // A weight re-assert is a valid non-decreasing delta touching
        // nothing: the epoch advances while a solve for `scope0` is still
        // in flight.
        let noop = [WeightChange {
            edge: EdgeId(2),
            cost: 4,
            delay: 1,
        }];
        reg.advance(&cache, structural, &noop).unwrap();
        // The straggler lands with its old-epoch scope. It may enter the
        // LRU (its key is never looked up again), but the registry must
        // refuse to track it.
        let stale = hash::scope_key(scope0.base, 0, 0);
        cache.put(stale, answer(&g, &[0, 1]));
        reg.record_issued(&scope0, stale, 0);
        // The next advance finds nothing to rekey: the answer computed two
        // epochs back never reappears under a current-epoch key.
        let report = reg.advance(&cache, structural, &noop).unwrap();
        assert_eq!((report.retained, report.evicted), (0, 0));
        assert!(cache.get(hash::scope_key(scope0.base, 0, 1)).is_none());
        assert!(cache.get(hash::scope_key(scope0.base, 0, 2)).is_none());
    }

    #[test]
    fn foreign_entries_survive_the_sweep() {
        let reg = EpochRegistry::default();
        let cache = ShardedCache::new(64, 2);
        let g = diamond();
        let (structural, _) = reg.register(&g);
        // A canonical-keyed entry the registry never issued.
        let foreign = CacheKey(0xdead_beef);
        cache.put(foreign, answer(&g, &[0, 1]));
        let report = reg
            .advance(
                &cache,
                structural,
                &[WeightChange {
                    edge: EdgeId(0),
                    cost: 9,
                    delay: 5,
                }],
            )
            .unwrap();
        assert_eq!(report.retained + report.evicted, 0);
        assert!(cache.get(foreign).is_some());
    }

    #[test]
    fn advance_rejects_bad_input() {
        let reg = EpochRegistry::default();
        let cache = ShardedCache::new(16, 1);
        assert_eq!(
            reg.advance(&cache, 42, &[]),
            Err(EpochError::UnknownTopology)
        );
        let (structural, _) = reg.register(&diamond());
        assert_eq!(
            reg.advance(
                &cache,
                structural,
                &[WeightChange {
                    edge: EdgeId(99),
                    cost: 1,
                    delay: 1,
                }],
            ),
            Err(EpochError::EdgeOutOfRange(99))
        );
        // The failed advance left the epoch alone.
        assert_eq!(reg.current(structural).unwrap().0, 0);
    }
}
