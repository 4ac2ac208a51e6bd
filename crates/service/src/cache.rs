//! LRU solution cache keyed by [`CacheKey`].
//!
//! Provisioning traffic is heavily repetitive — failure storms re-request
//! the same flows, controllers retry idempotently — so the service memoizes
//! full ladder answers. The canonical key (see [`crate::hash`]) makes the
//! cache insensitive to edge enumeration order; hit/miss/eviction counters
//! feed [`MetricsSnapshot`](crate::metrics::MetricsSnapshot).
//!
//! Two layers live here:
//!
//! * [`SolutionCache`] — the single-threaded LRU map (one shard's worth).
//! * [`ShardedCache`] — N independent `Mutex<SolutionCache>` shards, the
//!   shard chosen from the canonical 128-bit key. Concurrent clients
//!   touching different keys almost never contend on the same lock, and
//!   because the canonical hash assigns every key to exactly one shard,
//!   per-shard LRU is exact LRU *within the key population of that shard*
//!   — recency of a key is only ever compared against keys it actually
//!   competes with for slots.

use crate::degrade::Degraded;
use crate::hash::CacheKey;
use crate::sync_util::lock_recover;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Mutex;

/// Counters describing cache behavior since construction. `hits`, `misses`,
/// `evictions`, and `invalidations` are monotone; `entries` and `bytes` are
/// live gauges maintained incrementally on every insert/evict/remove (the
/// drift-free bookkeeping is property-tested against a from-scratch
/// recount).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries removed explicitly (quarantine purges, epoch invalidation).
    pub invalidations: u64,
    /// Live entry count.
    pub entries: u64,
    /// Estimated live bytes across entries.
    pub bytes: u64,
}

impl CacheStats {
    /// Component-wise sum, for aggregating shards (gauges sum to the
    /// aggregate gauge).
    #[must_use]
    pub fn merge(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            invalidations: self.invalidations + other.invalidations,
            entries: self.entries + other.entries,
            bytes: self.bytes + other.bytes,
        }
    }
}

struct Entry {
    value: Degraded,
    last_used: u64,
}

/// Estimated resident size of one cached answer: the struct itself plus the
/// solution's edge-set bitmap (the only heap payload that scales with the
/// instance).
fn entry_weight(d: &Degraded) -> u64 {
    let bitmap = d.solution.edges.capacity().div_ceil(64) * 8;
    (std::mem::size_of::<Entry>() + bitmap) as u64
}

/// A least-recently-used map from canonical instance keys to ladder
/// answers. Zero capacity disables caching (every lookup is a miss).
pub struct SolutionCache {
    capacity: usize,
    tick: u64,
    map: HashMap<CacheKey, Entry>,
    stats: CacheStats,
}

impl SolutionCache {
    /// A cache holding at most `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SolutionCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Current entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: CacheKey) -> Option<Degraded> {
        self.tick += 1;
        match self.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used
    /// entry if the cache is full.
    pub fn put(&mut self, key: CacheKey, value: Degraded) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                if let Some(old) = self.map.remove(&oldest) {
                    self.stats.entries -= 1;
                    self.stats.bytes -= entry_weight(&old.value);
                }
                self.stats.evictions += 1;
            }
        }
        let weight = entry_weight(&value);
        if let Some(prev) = self.map.insert(
            key,
            Entry {
                value,
                last_used: self.tick,
            },
        ) {
            // Refresh of an existing key: swap the old weight out first so
            // the byte gauge moves exactly once per stored copy.
            self.stats.bytes -= entry_weight(&prev.value);
        } else {
            self.stats.entries += 1;
        }
        self.stats.bytes += weight;
    }

    /// Removes `key` outright (quarantine purge, epoch invalidation),
    /// decrementing the entry/byte gauges exactly once and counting one
    /// invalidation. Returns the evicted answer, `None` if the key was
    /// absent (counters untouched).
    pub fn remove(&mut self, key: CacheKey) -> Option<Degraded> {
        let value = self.detach(key)?;
        self.stats.invalidations += 1;
        Some(value)
    }

    /// Removes `key` *without* counting an invalidation — the sweep's
    /// rekey path, where the entry immediately reinserts under its new key
    /// and keeps serving. The entry/byte gauges still decrement exactly
    /// once.
    fn detach(&mut self, key: CacheKey) -> Option<Degraded> {
        let entry = self.map.remove(&key)?;
        self.stats.entries -= 1;
        self.stats.bytes -= entry_weight(&entry.value);
        Some(entry.value)
    }

    /// From-scratch `(entries, bytes)` recount over the live map — the
    /// ground truth the incremental gauges are property-tested against.
    #[must_use]
    pub fn recount(&self) -> (u64, u64) {
        (
            self.map.len() as u64,
            self.map.values().map(|e| entry_weight(&e.value)).sum(),
        )
    }
}

/// Per-entry verdict of a cache sweep (see [`ShardedCache::sweep`]).
pub enum Sweep {
    /// Leave the entry in place.
    Keep,
    /// Remove the entry (counted as an invalidation).
    Evict,
    /// Move the entry to a new key (epoch re-scoping); recency is reset.
    /// The entry keeps serving, so this is *not* counted as an
    /// invalidation.
    Rekey(CacheKey),
}

/// An N-way sharded [`SolutionCache`]: each shard is an independent LRU
/// behind its own `Mutex`, and a key's shard is a pure function of its
/// canonical 128-bit hash — so a hot single-lock cache becomes N mostly
/// uncontended locks without changing per-key semantics. All methods take
/// `&self`; the type is `Sync` and shared across worker and client threads.
pub struct ShardedCache {
    shards: Vec<Mutex<SolutionCache>>,
}

impl ShardedCache {
    /// A cache of `shards` shards (clamped to ≥ 1) holding at most
    /// `capacity` entries in total; each shard gets an equal slice
    /// (rounded up, so total capacity is never below `capacity`). Zero
    /// capacity disables caching entirely.
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(SolutionCache::new(per_shard)))
                .collect(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning `key`. Uses the upper half of the 128-bit
    /// canonical digest (both halves are independent FNV streams, so any
    /// fixed slice is uniformly mixed).
    #[must_use]
    pub fn shard_of(&self, key: CacheKey) -> usize {
        ((key.0 >> 64) % self.shards.len() as u128) as usize
    }

    /// Looks up `key` in its shard, refreshing recency on a hit.
    pub fn get(&self, key: CacheKey) -> Option<Degraded> {
        // Chaos-testing hook: `cache.get=err` forces a miss, exercising the
        // solve path even for cached keys.
        krsp_failpoint::fail_point!("cache.get", |_msg| None);
        lock_recover(&self.shards[self.shard_of(key)]).get(key)
    }

    /// Inserts (or refreshes) `key` in its shard, evicting that shard's
    /// LRU entry under capacity pressure.
    pub fn put(&self, key: CacheKey, value: Degraded) {
        lock_recover(&self.shards[self.shard_of(key)]).put(key, value);
    }

    /// Removes `key` from its shard (quarantine purge, targeted
    /// invalidation); that shard's entry/byte gauges decrement exactly once.
    pub fn remove(&self, key: CacheKey) -> Option<Degraded> {
        lock_recover(&self.shards[self.shard_of(key)]).remove(key)
    }

    /// Full-cache sweep for epoch bumps: `decide` sees every live entry and
    /// returns its fate — keep it, evict it, or move it to a new key (the
    /// epoch-rescoped digest). Rekeyed entries are reinserted *after* all
    /// shards have been drained (their new key may route to a different
    /// shard), so the sweep never deadlocks on two shard locks at once.
    /// Returns `(kept, evicted, rekeyed)` counts.
    pub fn sweep(&self, mut decide: impl FnMut(&CacheKey, &Degraded) -> Sweep) -> (u64, u64, u64) {
        let (mut kept, mut evicted) = (0u64, 0u64);
        let mut rekeyed: Vec<(CacheKey, Degraded)> = Vec::new();
        for shard in &self.shards {
            let mut s = lock_recover(shard);
            let fates: Vec<(CacheKey, Sweep)> = s
                .map
                .iter()
                .map(|(k, e)| (*k, decide(k, &e.value)))
                .collect();
            for (k, fate) in fates {
                match fate {
                    Sweep::Keep => kept += 1,
                    Sweep::Evict => {
                        s.remove(k);
                        evicted += 1;
                    }
                    Sweep::Rekey(nk) => {
                        if let Some(v) = s.detach(k) {
                            rekeyed.push((nk, v));
                        }
                    }
                }
            }
        }
        let moved = rekeyed.len() as u64;
        for (nk, v) in rekeyed {
            self.put(nk, v);
        }
        (kept, evicted, moved)
    }

    /// From-scratch `(entries, bytes)` recount across shards.
    #[must_use]
    pub fn recount(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(e, b), s| {
            let (se, sb) = lock_recover(s).recount();
            (e + se, b + sb)
        })
    }

    /// Total entries across shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(s).len()).sum()
    }

    /// True when every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated counters over all shards.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.shard_stats()
            .into_iter()
            .fold(CacheStats::default(), CacheStats::merge)
    }

    /// Per-shard counters, indexed by shard.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|s| lock_recover(s).stats())
            .collect()
    }
}

#[cfg(test)]
// Tests may unwrap: a panic is exactly the failure report we want there.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::degrade::Rung;
    use krsp_graph::EdgeSet;

    fn dummy(cost: i64) -> Degraded {
        dummy_sized(cost, 0)
    }

    /// A dummy whose edge-set capacity (and hence byte weight) varies.
    fn dummy_sized(cost: i64, cap: usize) -> Degraded {
        Degraded {
            solution: krsp::Solution {
                edges: EdgeSet::with_capacity(cap),
                cost,
                delay: 0,
                lower_bound: None,
            },
            rung: Rung::MinDelay,
            guarantee: Rung::MinDelay.guarantee(),
            kernel: krsp::KernelKind::Classic,
            warm: false,
        }
    }

    fn key(v: u128) -> CacheKey {
        CacheKey(v)
    }

    #[test]
    fn hit_miss_and_eviction_counters() {
        let mut c = SolutionCache::new(2);
        assert!(c.get(key(1)).is_none());
        c.put(key(1), dummy(10));
        c.put(key(2), dummy(20));
        assert_eq!(c.get(key(1)).unwrap().solution.cost, 10);
        c.put(key(3), dummy(30)); // evicts key 2 (LRU)
        assert!(c.get(key(2)).is_none());
        assert_eq!(c.get(key(1)).unwrap().solution.cost, 10);
        assert_eq!(c.get(key(3)).unwrap().solution.cost, 30);
        let s = c.stats();
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn recency_refresh_protects_hot_entries() {
        let mut c = SolutionCache::new(2);
        c.put(key(1), dummy(1));
        c.put(key(2), dummy(2));
        let _ = c.get(key(1)); // 1 is now hotter than 2
        c.put(key(3), dummy(3));
        assert!(c.get(key(1)).is_some());
        assert!(c.get(key(2)).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = SolutionCache::new(0);
        c.put(key(1), dummy(1));
        assert!(c.get(key(1)).is_none());
        assert!(c.is_empty());
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        let mut c = SolutionCache::new(2);
        c.put(key(1), dummy(1));
        c.put(key(2), dummy(2));
        c.put(key(1), dummy(11)); // refresh, not a new entry
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get(key(1)).unwrap().solution.cost, 11);
        assert!(c.get(key(2)).is_some());
    }

    /// Spread small integers over the full 128-bit key space so the shard
    /// choice (upper 64 bits) actually varies.
    fn spread(v: u64) -> CacheKey {
        let x = (u128::from(v) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c834);
        CacheKey(x)
    }

    #[test]
    fn sharded_basics_and_shard_routing() {
        let c = ShardedCache::new(64, 8);
        assert_eq!(c.shard_count(), 8);
        assert!(c.is_empty());
        for v in 0..32u64 {
            c.put(spread(v), dummy(v as i64));
        }
        assert_eq!(c.len(), 32);
        for v in 0..32u64 {
            assert_eq!(c.get(spread(v)).unwrap().solution.cost, v as i64);
            // Routing is deterministic and in range.
            let s = c.shard_of(spread(v));
            assert!(s < 8);
            assert_eq!(s, c.shard_of(spread(v)));
        }
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (32, 0, 0));
        let per_shard = c.shard_stats();
        assert_eq!(per_shard.len(), 8);
        assert_eq!(
            per_shard
                .iter()
                .fold(CacheStats::default(), |a, &b| a.merge(b)),
            stats
        );
        // The keys actually landed on more than one shard.
        assert!(per_shard.iter().filter(|s| s.hits > 0).count() > 1);
    }

    #[test]
    fn poisoned_shard_recovers() {
        let c = ShardedCache::new(8, 1);
        c.put(spread(1), dummy(5));
        // Poison the only shard's lock with a panic mid-hold.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = c.shards[0].lock().unwrap();
            panic!("poison the shard");
        }));
        assert!(caught.is_err());
        // The cache keeps serving: per-operation state is consistent.
        assert_eq!(c.get(spread(1)).unwrap().solution.cost, 5);
        c.put(spread(2), dummy(6));
        assert_eq!(c.len(), 2);
        assert!(c.stats().hits >= 1);
    }

    #[test]
    fn sharded_zero_capacity_disables_caching() {
        let c = ShardedCache::new(0, 4);
        c.put(spread(1), dummy(1));
        assert!(c.get(spread(1)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn sharded_capacity_bounds_total_size() {
        let c = ShardedCache::new(16, 4); // 4 slots per shard
        for v in 0..200u64 {
            c.put(spread(v), dummy(v as i64));
        }
        assert!(c.len() <= 16, "len = {}", c.len());
        assert_eq!(c.stats().evictions, 200 - c.len() as u64);
    }

    #[test]
    fn remove_decrements_gauges_exactly_once() {
        let mut c = SolutionCache::new(4);
        c.put(key(1), dummy_sized(1, 100));
        c.put(key(2), dummy_sized(2, 500));
        assert_eq!(c.stats().entries, 2);
        assert_eq!((c.stats().entries, c.stats().bytes), c.recount());
        let removed = c.remove(key(1)).unwrap();
        assert_eq!(removed.solution.cost, 1);
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!((c.stats().entries, c.stats().bytes), c.recount());
        // Double-remove is a no-op on every counter.
        assert!(c.remove(key(1)).is_none());
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!((c.stats().entries, c.stats().bytes), c.recount());
    }

    #[test]
    fn refresh_and_eviction_keep_byte_gauge_exact() {
        let mut c = SolutionCache::new(2);
        c.put(key(1), dummy_sized(1, 1000));
        let big = c.stats().bytes;
        c.put(key(1), dummy_sized(1, 10)); // refresh with a smaller payload
        assert!(c.stats().bytes < big);
        assert_eq!((c.stats().entries, c.stats().bytes), c.recount());
        c.put(key(2), dummy_sized(2, 64));
        c.put(key(3), dummy_sized(3, 64)); // evicts LRU
        assert_eq!(c.stats().evictions, 1);
        assert_eq!((c.stats().entries, c.stats().bytes), c.recount());
    }

    #[test]
    fn sweep_keeps_evicts_and_rekeys() {
        let c = ShardedCache::new(64, 4);
        for v in 0..12u64 {
            c.put(spread(v), dummy_sized(v as i64, v as usize * 32));
        }
        // Evict odd costs, rekey cost 0 and 2, keep the rest.
        let (kept, evicted, rekeyed) = c.sweep(|k, d| {
            if d.solution.cost % 2 == 1 {
                Sweep::Evict
            } else if d.solution.cost <= 2 {
                Sweep::Rekey(CacheKey(k.0 ^ 0xdead_beef))
            } else {
                Sweep::Keep
            }
        });
        assert_eq!((kept, evicted, rekeyed), (4, 6, 2));
        assert_eq!(c.len(), 6);
        // Rekeyed entries answer at their new key, not the old one.
        assert!(c.get(spread(0)).is_none());
        assert_eq!(
            c.get(CacheKey(spread(0).0 ^ 0xdead_beef))
                .unwrap()
                .solution
                .cost,
            0
        );
        let agg = c.stats();
        let (entries, bytes) = c.recount();
        assert_eq!((agg.entries, agg.bytes), (entries, bytes));
        // Only the evictions are invalidations: a rekeyed entry keeps
        // serving, so moving it must not inflate the counter.
        assert_eq!(agg.invalidations, 6);
    }

    proptest::proptest! {
        /// Satellite 3: after any interleaving of inserts, targeted removes
        /// (the quarantine-purge path), and sweeps (the epoch-invalidation
        /// path), each shard's incremental entry/byte gauges must equal a
        /// from-scratch recount — i.e. every removal decrements exactly once
        /// and every refresh swaps weights exactly once.
        #[test]
        fn prop_gauges_match_recount_under_interleaving(
            ops in proptest::collection::vec((0u8..=3, 0u64..32, 0usize..512), 1..200),
            shards in 1usize..6,
        ) {
            let c = ShardedCache::new(16, shards);
            for (op, k, sz) in ops {
                match op {
                    0 => c.put(spread(k), dummy_sized(k as i64, sz)),
                    1 => { c.remove(spread(k)); }
                    2 => { c.get(spread(k)); }
                    _ => {
                        // Epoch-style sweep: evict small payloads, rekey the
                        // rest of the matching population.
                        c.sweep(|ck, d| {
                            if d.solution.edges.capacity() < sz / 2 {
                                Sweep::Evict
                            } else if ck.0 & 1 == u128::from(k) & 1 {
                                Sweep::Rekey(CacheKey(ck.0 ^ (u128::from(k) << 77)))
                            } else {
                                Sweep::Keep
                            }
                        });
                    }
                }
                // Per-shard gauge == per-shard recount, not just aggregate.
                for shard in &c.shards {
                    let s = lock_recover(shard);
                    let (entries, bytes) = s.recount();
                    proptest::prop_assert_eq!(s.stats().entries, entries);
                    proptest::prop_assert_eq!(s.stats().bytes, bytes);
                }
            }
        }

        /// With capacity ample enough that no shard ever evicts, a sharded
        /// cache is observationally identical to a 1-shard cache under any
        /// op sequence: same per-key answers, same aggregate counters.
        /// (Under eviction pressure the two legitimately differ — LRU age
        /// is tracked per shard — so ample capacity is the precise regime
        /// where equivalence must be exact.)
        #[test]
        fn prop_sharded_matches_single_shard(
            ops in proptest::collection::vec((0u8..=1, 0u64..24, 0i64..1000), 1..256),
            shards in 1usize..12,
        ) {
            let sharded = ShardedCache::new(24 * shards, shards);
            let single = ShardedCache::new(24, 1);
            for (op, k, v) in ops {
                let key = spread(k);
                if op == 0 {
                    let a = sharded.get(key).map(|d| d.solution.cost);
                    let b = single.get(key).map(|d| d.solution.cost);
                    proptest::prop_assert_eq!(a, b);
                } else {
                    sharded.put(key, dummy(v));
                    single.put(key, dummy(v));
                }
            }
            proptest::prop_assert_eq!(sharded.stats(), single.stats());
            proptest::prop_assert_eq!(sharded.len(), single.len());
        }
    }
}
