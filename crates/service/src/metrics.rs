//! Service metrics: counters plus a log-linear latency histogram.
//!
//! The histogram uses power-of-two major buckets subdivided into 8 linear
//! minor buckets (an HDR-histogram-lite), so quantile reconstruction is
//! accurate to within 12.5% across the full microsecond-to-minutes range
//! with a fixed 320-slot footprint. [`MetricsSnapshot`] is the serializable
//! view shipped over the wire by the `metrics` request and printed by
//! `krsp-load`.

use crate::cache::CacheStats;
use crate::degrade::Rung;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

const MAJORS: usize = 40;
const MINORS: usize = 8;

/// Exact 1-based quantile rank: `ceil(q · count)` clamped to
/// `[1, count]`, computed without going through `f64` multiplication.
/// `(q * count as f64).ceil()` misrounds once `count` exceeds f64's
/// 53-bit mantissa (`count as f64` itself rounds, so e.g. `q = 1.0`
/// could yield a rank below `count` and select the wrong order
/// statistic); instead take `q` in 2⁻³² fixed point — exact for the
/// conversion — and compute `ceil(q_fp · count / 2³²)` in u128. The
/// histogram and `krsp-load`'s exact summaries both rank with it.
pub(crate) fn quantile_rank(q: f64, count: u64) -> u64 {
    const FP: u128 = 1 << 32;
    let q_fp = (q.clamp(0.0, 1.0) * FP as f64).round() as u128;
    let rank = (q_fp * u128::from(count)).div_ceil(FP);
    u64::try_from(rank.min(u128::from(count)))
        .expect("rank is clamped to count")
        .max(1)
}

/// A fixed-footprint latency histogram over microsecond samples.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples (µs).
    pub total_us: u64,
    /// Smallest sample (µs); 0 when empty.
    pub min_us: u64,
    /// Largest sample (µs).
    pub max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; MAJORS * MINORS],
            count: 0,
            total_us: 0,
            min_us: 0,
            max_us: 0,
        }
    }
}

fn bucket_index(us: u64) -> usize {
    if us < MINORS as u64 {
        return us as usize; // exact for 0..8 µs
    }
    let major = 63 - us.leading_zeros() as usize;
    let major = major.min(MAJORS - 1);
    let minor = ((us >> (major - 3)) & 7) as usize;
    major * MINORS + minor
}

fn bucket_upper_bound(idx: usize) -> u64 {
    if idx < MINORS {
        return idx as u64;
    }
    let (major, minor) = (idx / MINORS, idx % MINORS);
    // Shift in u128 and saturate: at MAJORS = 40 the top shift (36) still
    // fits u64, but a wider histogram would silently wrap `u64 <<` for the
    // top buckets (16 << 60 loses the high bit) — saturating keeps the
    // bound monotone instead.
    let bound = u128::from((MINORS + minor + 1) as u64) << (major - 3);
    u64::try_from(bound).unwrap_or(u64::MAX)
}

impl LatencyHistogram {
    /// Records one latency sample.
    pub fn record(&mut self, us: u64) {
        self.buckets[bucket_index(us)] += 1;
        if self.count == 0 || us < self.min_us {
            self.min_us = us;
        }
        self.max_us = self.max_us.max(us);
        self.count += 1;
        self.total_us = self.total_us.saturating_add(us);
    }

    /// Approximate `q`-quantile in µs (`q ∈ [0, 1]`); 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = quantile_rank(q, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(idx).min(self.max_us).max(self.min_us);
            }
        }
        self.max_us
    }

    /// Mean latency in µs; 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

/// Live counters for the TCP frontend, updated lock-free from the reactor
/// thread and the solver-completion callbacks. The serializable view is
/// [`FrontendSnapshot`]; [`crate::Service::attach_frontend_stats`] folds it
/// into every [`MetricsSnapshot`].
#[derive(Debug, Default)]
pub struct FrontendStats {
    conns_accepted: AtomicU64,
    conns_open: AtomicU64,
    conns_peak: AtomicU64,
    shed_total_cap: AtomicU64,
    shed_per_client: AtomicU64,
    rate_limited: AtomicU64,
    read_timeouts: AtomicU64,
    pipelined_peak: AtomicU64,
    health_probes: AtomicU64,
    batches: AtomicU64,
    batch_queries: AtomicU64,
}

impl FrontendStats {
    /// Records an accepted connection, tracking the open-connection peak.
    pub fn conn_opened(&self) {
        self.conns_accepted.fetch_add(1, Ordering::Relaxed);
        let open = self.conns_open.fetch_add(1, Ordering::Relaxed) + 1;
        self.conns_peak.fetch_max(open, Ordering::Relaxed);
    }

    /// Records a closed connection.
    pub fn conn_closed(&self) {
        self.conns_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a connection shed at accept because the total cap was hit.
    pub fn shed_total_cap(&self) {
        self.shed_total_cap.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection shed at accept because its client address had
    /// too many connections open already.
    pub fn shed_per_client(&self) {
        self.shed_per_client.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request refused by the token-bucket rate limiter.
    pub fn rate_limited(&self) {
        self.rate_limited.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection dropped for stalling mid-line past the read
    /// timeout (the slow-loris defense).
    pub fn read_timeout(&self) {
        self.read_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Tracks the peak number of in-flight pipelined solves observed on a
    /// single connection.
    pub fn observe_pipeline_depth(&self, depth: u64) {
        self.pipelined_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records a served `Health` probe.
    pub fn health_probe(&self) {
        self.health_probes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one `SolveBatch` request carrying `queries` queries.
    pub fn batch(&self, queries: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_queries.fetch_add(queries, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> FrontendSnapshot {
        FrontendSnapshot {
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_open: self.conns_open.load(Ordering::Relaxed),
            conns_peak: self.conns_peak.load(Ordering::Relaxed),
            shed_total_cap: self.shed_total_cap.load(Ordering::Relaxed),
            shed_per_client: self.shed_per_client.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            read_timeouts: self.read_timeouts.load(Ordering::Relaxed),
            pipelined_peak: self.pipelined_peak.load(Ordering::Relaxed),
            health_probes: self.health_probes.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_queries: self.batch_queries.load(Ordering::Relaxed),
        }
    }
}

/// Serializable view of [`FrontendStats`], nested in [`MetricsSnapshot`].
/// All-zero when the service runs without a TCP frontend (library use).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontendSnapshot {
    /// Connections accepted over the frontend's lifetime.
    pub conns_accepted: u64,
    /// Connections currently open.
    pub conns_open: u64,
    /// Peak simultaneous open connections.
    pub conns_peak: u64,
    /// Connections shed at accept by the total-connection cap.
    pub shed_total_cap: u64,
    /// Connections shed at accept by the per-client cap.
    pub shed_per_client: u64,
    /// Requests refused by the per-client token-bucket rate limiter.
    pub rate_limited: u64,
    /// Connections dropped for stalling mid-line past the read timeout.
    pub read_timeouts: u64,
    /// Peak in-flight pipelined solves observed on one connection.
    pub pipelined_peak: u64,
    /// `Health` probes served.
    pub health_probes: u64,
    /// `SolveBatch` requests served.
    pub batches: u64,
    /// Queries carried by those `SolveBatch` requests.
    pub batch_queries: u64,
}

/// A point-in-time, serializable view of the service counters.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests rejected because the queue was full (backpressure).
    pub rejected_queue_full: u64,
    /// Requests whose deadline had already expired at admission.
    pub rejected_expired: u64,
    /// Requests answered (any rung, cached or fresh).
    pub completed: u64,
    /// Requests that proved infeasible.
    pub infeasible: u64,
    /// Answers served from the solution cache.
    pub cache_hits: u64,
    /// Answers that required a solver run.
    pub cache_misses: u64,
    /// Cache entries displaced by capacity pressure.
    pub cache_evictions: u64,
    /// Cache entries removed deliberately (epoch invalidation or
    /// quarantine purge), as opposed to capacity eviction.
    pub cache_invalidations: u64,
    /// Answers served from the disk tier (promoted into the LRU on hit).
    pub disk_hits: u64,
    /// Disk-tier lookups that missed (no record, or unreadable).
    pub disk_misses: u64,
    /// Records recovered from disk segments when the tier opened — the
    /// restart-warmth measure.
    pub disk_recovered: u64,
    /// Records dropped by the disk recovery scan (torn or corrupt).
    pub disk_dropped: u64,
    /// Fresh solves that accepted or resumed from a warm-start seed.
    pub warm_starts: u64,
    /// Topology-epoch advances applied.
    pub epoch_advances: u64,
    /// Cache entries rekeyed (retained) across epoch advances.
    pub epoch_retained: u64,
    /// Cache entries evicted (reseeded) by epoch advances.
    pub epoch_evicted: u64,
    /// Highest epoch across registered topology lineages.
    pub epoch: u64,
    /// Requests answered by piggybacking on another request's in-flight
    /// solve (singleflight followers).
    pub coalesced: u64,
    /// Cache counters broken out per shard (hits/misses/evictions each);
    /// the aggregate fields above are their sum.
    pub per_shard: Vec<CacheStats>,
    /// Answers whose deadline had lapsed by completion time.
    pub deadline_missed: u64,
    /// Fresh solves per ladder rung, indexed by [`Rung::index`]
    /// (`[full, single_probe, lp_rounding, min_delay]`).
    pub per_rung: [u64; 4],
    /// Solver panics contained at the provisioning boundary.
    pub solver_panics: u64,
    /// Keys newly quarantined after repeated solver panics (transitions,
    /// not fast-fail hits).
    pub quarantined: u64,
    /// Requests refused because the service was shutting down.
    pub rejected_shutdown: u64,
    /// End-to-end latency of completed requests.
    pub latency: LatencyHistogram,
    /// TCP-frontend counters (all-zero without an attached frontend).
    pub frontend: FrontendSnapshot,
}

impl MetricsSnapshot {
    /// Increments the fresh-solve counter for `rung`.
    pub fn count_rung(&mut self, rung: Rung) {
        self.per_rung[rung.index()] += 1;
    }
}

#[cfg(test)]
// Tests may unwrap: a panic is exactly the failure report we want there.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = LatencyHistogram::default();
        for us in 1..=1000u64 {
            h.record(us);
        }
        assert_eq!(h.count, 1000);
        assert_eq!(h.min_us, 1);
        assert_eq!(h.max_us, 1000);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        // Log-linear buckets: within 12.5% of the true order statistic.
        assert!((440..=570).contains(&p50), "p50 = {p50}");
        assert!((870..=1000).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);
        assert!((h.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn small_samples_are_exact() {
        let mut h = LatencyHistogram::default();
        for us in [3u64, 3, 5] {
            h.record(us);
        }
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 5);
    }

    #[test]
    fn quantile_rank_is_exact_past_f64_mantissa() {
        // `count as f64` rounds once count exceeds the 53-bit mantissa, so
        // the old `(q * count as f64).ceil()` rank loses the top sample
        // even at q = 1.0. The fixed-point rank must not.
        let count = (1u64 << 53) + 1;
        assert_eq!(quantile_rank(1.0, count), count);
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        let old = (1.0f64 * count as f64).ceil() as u64;
        assert!(
            old < count,
            "the f64 formula must misround here or this regression is vacuous"
        );
        // In the exactly-representable range the two ranks agree.
        for count in [1u64, 2, 3, 7, 100, 1000] {
            for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
                #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
                let old = ((q * count as f64).ceil() as u64).clamp(1, count);
                assert_eq!(quantile_rank(q, count), old, "q={q} count={count}");
            }
        }

        // The histogram ranks with it: 2⁵⁴ samples in one bucket plus a
        // single sample at the max. With the float rank, `count as f64`
        // rounds 2⁵⁴ + 1 down to 2⁵⁴, so quantile(1.0) landed in the big
        // bucket instead of the max.
        let mut h = LatencyHistogram::default();
        let big = 1u64 << 54;
        h.buckets[bucket_index(100)] = big;
        h.buckets[bucket_index(5000)] = 1;
        h.count = big + 1;
        h.min_us = 100;
        h.max_us = 5000;
        assert_eq!(h.quantile(1.0), 5000);
        // Interior quantiles still resolve to the big bucket.
        assert!(h.quantile(0.5) < 5000);
    }

    #[test]
    fn bucket_upper_bounds_bracket_samples_and_stay_monotone() {
        // Sweep the representable range (the histogram caps at major 39 ≈
        // 2⁴⁰ µs): every sample must land in a bucket whose upper bound
        // brackets it, and bounds must be monotone in the bucket index.
        let (mut prev_idx, mut prev_bound) = (0usize, 0u64);
        let mut us = 1u64;
        while us < (1 << 39) {
            let idx = bucket_index(us);
            let bound = bucket_upper_bound(idx);
            assert!(bound >= us, "bound {bound} < sample {us}");
            assert!(idx >= prev_idx, "bucket index regressed at {us}");
            assert!(bound >= prev_bound, "bound regressed at {us}");
            (prev_idx, prev_bound) = (idx, bound);
            us += (us / 3).max(1);
        }
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut m = MetricsSnapshot {
            admitted: 7,
            coalesced: 3,
            per_shard: vec![CacheStats::default(); 4],
            ..MetricsSnapshot::default()
        };
        m.count_rung(Rung::LpRounding);
        m.latency.record(42);
        let text = serde_json::to_string(&m).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back.admitted, 7);
        assert_eq!(back.coalesced, 3);
        assert_eq!(back.per_shard.len(), 4);
        assert_eq!(back.per_rung, [0, 0, 1, 0]);
        assert_eq!(back.latency.count, 1);
        assert_eq!(back.latency.quantile(1.0), m.latency.quantile(1.0));
    }
}
