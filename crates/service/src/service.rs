//! The provisioning service: admission control, worker pool, cache, ladder.
//!
//! Request lifecycle:
//!
//! 1. **Admission** — [`Service::provision`] rejects immediately when the
//!    bounded queue is full ([`Rejection::QueueFull`], the backpressure
//!    signal). Admission runs before the cache and the coalescing layer so
//!    backpressure semantics are independent of traffic shape.
//! 2. **Cache** — the *calling* thread computes the canonical key (see
//!    [`crate::hash`]) and answers from the sharded LRU cache when
//!    possible; a hit never touches the worker pool.
//! 3. **Coalescing** — concurrent misses for the same key are collapsed by
//!    a singleflight table (see [`crate::singleflight`]): one leader
//!    solves, every duplicate blocks on the calling thread and receives a
//!    clone of the leader's answer. Follower waits never run on pool
//!    workers, so coalescing cannot deadlock the pool.
//! 4. **Ladder** — the leader picks the highest degradation rung the
//!    *remaining* deadline admits (see [`crate::degrade`]) and solves on
//!    the shared [`Executor`] — the same scheduling
//!    primitive `krsp::solve_batch` fans out over. Admitted requests are
//!    never dropped: an exhausted deadline degrades to the min-delay rung
//!    rather than failing.
//! 5. **Audit** — in debug builds every fresh solution is re-verified by
//!    `krsp::verify::audit` against the rung's advertised guarantee.

use crate::cache::ShardedCache;
use crate::degrade::{ladder, Degraded, Guarantee, KernelLadder, LadderError, LadderPolicy, Rung};
use crate::disk::DiskCache;
use crate::epoch::{EpochError, EpochRegistry, EpochReport, EpochScope};
use crate::hash::{canonical_key, scope_key, CacheKey};
use crate::metrics::{FrontendStats, MetricsSnapshot};
use crate::quarantine::Quarantine;
use crate::singleflight::{Join, Singleflight};
use crate::sync_util::{lock_recover, saturating_deadline, wait_timeout_recover};
use krsp::{CancelToken, Config, Executor, Instance, KernelKind, Solution};
use krsp_gen::WeightChange;
use krsp_graph::{DiGraph, EdgeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads.
    pub workers: usize,
    /// Maximum queued-but-unstarted requests before backpressure.
    pub queue_capacity: usize,
    /// Solution-cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Number of independently-locked cache shards (clamped to ≥ 1).
    pub cache_shards: usize,
    /// Coalesce concurrent requests for the same instance onto one solver
    /// run (the singleflight layer). Disabling this makes every miss solve
    /// independently — useful as an experimental baseline.
    pub coalesce: bool,
    /// Deadline applied when a request carries none.
    pub default_deadline: Duration,
    /// Strict mode: reject a request whose deadline has fully lapsed by
    /// the time it reaches the solver, instead of serving it via the
    /// lowest ladder rung (the default).
    pub reject_expired: bool,
    /// Solver configuration for the top ladder rungs.
    pub solver: Config,
    /// Degradation-ladder admission thresholds.
    pub ladder: LadderPolicy,
    /// Per-rung RSP-kernel assignment (DESIGN.md §4.16). A request may
    /// override this with a uniform ladder via [`Request::kernel`].
    pub kernels: KernelLadder,
    /// Solver panics on one key before it is quarantined (0 disables the
    /// quarantine entirely).
    pub quarantine_threshold: u32,
    /// How long a quarantined key keeps fast-failing before it is allowed
    /// to solve again.
    pub quarantine_ttl: Duration,
    /// Maximum keys tracked by the quarantine (oldest-expiring evicted).
    pub quarantine_capacity: usize,
    /// Directory for the crash-safe disk cache tier; `None` disables it.
    /// Solutions append to segment files here and survive a SIGKILL — a
    /// restarted daemon recovers them and answers warm.
    pub cache_dir: Option<PathBuf>,
    /// Byte cap for the disk tier (oldest segments pruned); 0 = uncapped.
    pub cache_disk_cap: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 1024,
            cache_shards: 8,
            coalesce: true,
            default_deadline: Duration::from_secs(5),
            reject_expired: false,
            solver: Config::default(),
            // Admission thresholds account for the solver's data-parallel
            // width: a wider rayon pool finishes the top rungs sooner, so
            // tighter deadlines still admit them.
            ladder: LadderPolicy::for_width(krsp::solver_width()),
            kernels: KernelLadder::default(),
            quarantine_threshold: 2,
            quarantine_ttl: Duration::from_secs(30),
            quarantine_capacity: 128,
            cache_dir: None,
            cache_disk_cap: 0,
        }
    }
}

/// One provisioning request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The kRSP instance to provision.
    pub instance: Instance,
    /// Latency budget; `None` uses [`ServiceConfig::default_deadline`].
    pub deadline: Option<Duration>,
    /// RSP-kernel override: `Some(kind)` replaces the configured
    /// [`ServiceConfig::kernels`] ladder with a uniform `kind` ladder for
    /// this request only; `None` uses the service default.
    pub kernel: Option<KernelKind>,
}

/// A successful provisioning answer.
#[derive(Clone, Debug)]
pub struct Response {
    /// The provisioned path system.
    pub solution: Solution,
    /// Ladder rung that produced the answer.
    pub rung: Rung,
    /// The rung's advertised guarantee, recorded per request.
    pub guarantee: Guarantee,
    /// The RSP kernel assigned to the rung that produced the answer.
    pub kernel: KernelKind,
    /// Whether the answer came from the solution cache.
    pub cache_hit: bool,
    /// Whether the answer piggybacked on a concurrent identical request's
    /// solve (singleflight follower) instead of running its own.
    pub coalesced: bool,
    /// End-to-end latency (admission to completion).
    pub latency: Duration,
    /// True when the answer arrived after the request's deadline.
    pub deadline_missed: bool,
}

/// Why a request produced no solution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// The admission queue was full — retry later (backpressure).
    QueueFull,
    /// The deadline had already lapsed at admission.
    DeadlineExpired,
    /// The instance is infeasible at every ladder rung.
    Infeasible,
    /// The service is shutting down.
    ShuttingDown,
    /// The solver panicked on this request; the panic was contained at the
    /// provisioning boundary (the worker survives) and the payload is
    /// carried for diagnostics.
    SolverPanic(String),
    /// The instance is quarantined after repeated solver panics; retried
    /// after the quarantine TTL.
    Quarantined,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull => f.write_str("admission queue full"),
            Rejection::DeadlineExpired => f.write_str("deadline expired before admission"),
            Rejection::Infeasible => f.write_str("instance infeasible at every rung"),
            Rejection::ShuttingDown => f.write_str("service shutting down"),
            Rejection::SolverPanic(msg) => write!(f, "solver panicked: {msg}"),
            Rejection::Quarantined => {
                f.write_str("instance quarantined after repeated solver panics")
            }
        }
    }
}

impl std::error::Error for Rejection {}

/// How a fresh solve can fail. This is the value singleflight followers
/// receive a clone of, so it must stay cheap to clone; a contained panic is
/// *not* published to followers (the leader aborts the flight instead, and
/// each follower re-drives against the quarantine).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum SolveFailure {
    /// Infeasible at every admitted rung.
    Infeasible,
    /// The ladder solve panicked; payload text for diagnostics.
    Panicked(String),
}

#[cfg(test)]
type SolveGate = Arc<dyn Fn(&Shared) + Send + Sync>;

struct Shared {
    cfg: ServiceConfig,
    cache: ShardedCache,
    flights: Singleflight<Result<Degraded, SolveFailure>>,
    metrics: Mutex<MetricsSnapshot>,
    in_flight: AtomicUsize,
    /// Negative cache of keys whose solves keep panicking.
    quarantine: Quarantine,
    /// Crash-safe second cache tier (None without `cache_dir`).
    disk: Option<DiskCache>,
    /// Registered topology lineages for epoch-scoped keys and warm seeds.
    epochs: EpochRegistry,
    /// Master shutdown token; every request token is its child, so
    /// tripping it degrades in-flight solves to their cheapest rung.
    shutdown: CancelToken,
    /// When [`Service::begin_shutdown`] first ran — the `Health` reply's
    /// `draining_since_ms` field, so routers and operators can tell a
    /// fresh drain from a stuck one.
    draining_since: Mutex<Option<Instant>>,
    /// Pairs with `idle` so `drain` can park instead of spin-polling the
    /// `in_flight` counter.
    drain_lock: Mutex<()>,
    /// Notified whenever `in_flight` drops to zero.
    idle: Condvar,
    /// Live TCP-frontend counters, folded into `metrics()` once a frontend
    /// attaches them (absent in pure library use).
    frontend: Mutex<Option<Arc<FrontendStats>>>,
    /// Test hook: runs inside every solver job before the solve, letting
    /// tests hold a leader's flight open deterministically.
    #[cfg(test)]
    solve_gate: Mutex<Option<SolveGate>>,
}

struct Slot {
    result: Mutex<Option<Result<Degraded, SolveFailure>>>,
    done: Condvar,
}

/// The in-process provisioning service. Cloneable handles share one worker
/// pool, cache, and metrics registry; dropping the last handle drains the
/// queue and joins the workers.
#[derive(Clone)]
pub struct Service {
    shared: Arc<Shared>,
    executor: Arc<Executor>,
}

impl Service {
    /// Starts a service with `cfg`.
    #[must_use]
    pub fn new(cfg: ServiceConfig) -> Self {
        // Re-arm fault-injection sites from `KRSP_FAILPOINTS` so chaos runs
        // configure themselves from the environment (additive; a no-op when
        // the variable is unset).
        krsp_failpoint::setup_from_env();
        let executor = Arc::new(Executor::new(cfg.workers));
        // The disk tier opens (and recovers) before the first request; an
        // unopenable directory degrades to memory-only rather than failing
        // the whole service.
        let disk =
            cfg.cache_dir
                .as_ref()
                .and_then(|dir| match DiskCache::open(dir, cfg.cache_disk_cap) {
                    Ok(d) => Some(d),
                    Err(e) => {
                        eprintln!(
                            "krsp-service: disk cache at {} disabled: {e}",
                            dir.display()
                        );
                        None
                    }
                });
        let shared = Arc::new(Shared {
            cache: ShardedCache::new(cfg.cache_capacity, cfg.cache_shards),
            flights: Singleflight::new(cfg.cache_shards),
            metrics: Mutex::new(MetricsSnapshot::default()),
            in_flight: AtomicUsize::new(0),
            quarantine: Quarantine::new(
                cfg.quarantine_threshold,
                cfg.quarantine_ttl,
                cfg.quarantine_capacity,
            ),
            disk,
            epochs: EpochRegistry::default(),
            shutdown: CancelToken::cancellable(),
            draining_since: Mutex::new(None),
            drain_lock: Mutex::new(()),
            idle: Condvar::new(),
            frontend: Mutex::new(None),
            #[cfg(test)]
            solve_gate: Mutex::new(None),
            cfg,
        });
        Service { shared, executor }
    }

    /// Submits a request and blocks until its answer (or rejection) is
    /// available. Safe to call from many threads concurrently.
    pub fn provision(&self, request: Request) -> Result<Response, Rejection> {
        let admitted_at = Instant::now();
        let deadline = request.deadline.unwrap_or(self.shared.cfg.default_deadline);
        self.admit()?;
        let out = self.drive(&request.instance, request.kernel, admitted_at, deadline);
        self.release();
        out
    }

    /// Submits a request without blocking the caller: admission (and its
    /// rejections) happen synchronously, but an admitted request's solve
    /// runs as a pool job and `complete` fires from a worker thread. This
    /// is the entry point the event-driven frontend uses — its reactor
    /// thread must never block on a solve.
    ///
    /// `complete` is called exactly once, either inline (rejections — the
    /// caller gets backpressure feedback before queuing anything) or from
    /// the worker that finished the request.
    pub fn provision_async<F>(&self, request: Request, complete: F)
    where
        F: FnOnce(Result<Response, Rejection>) + Send + 'static,
    {
        let admitted_at = Instant::now();
        let deadline = request.deadline.unwrap_or(self.shared.cfg.default_deadline);
        if let Err(rejected) = self.admit() {
            complete(Err(rejected));
            return;
        }
        let svc = self.clone();
        // The job drives the full post-admission path on a worker. A
        // singleflight follower briefly parks that worker until its leader
        // publishes (bounded by one solve; a queued follower behind its
        // own leader on a single worker cannot exist — the leader's job
        // ran to completion first, retiring the flight).
        self.executor.submit(Box::new(move || {
            let out = svc.drive(&request.instance, request.kernel, admitted_at, deadline);
            svc.release();
            complete(out);
        }));
    }

    /// Shutdown gate plus admission control. `in_flight` counts admitted
    /// requests not yet released; the queue is full when it exceeds
    /// capacity plus the workers that could be draining it. This runs
    /// before the cache and the coalescing layer, so backpressure does not
    /// depend on how duplicate-heavy the traffic is.
    fn admit(&self) -> Result<(), Rejection> {
        // A draining service refuses new work outright so `drain` only
        // waits on requests admitted before the flip.
        if self.shared.shutdown.is_cancelled() {
            lock_recover(&self.shared.metrics).rejected_shutdown += 1;
            return Err(Rejection::ShuttingDown);
        }
        let limit = self.shared.cfg.queue_capacity + self.shared.cfg.workers;
        if self.shared.in_flight.fetch_add(1, Ordering::AcqRel) >= limit {
            self.release();
            lock_recover(&self.shared.metrics).rejected_queue_full += 1;
            return Err(Rejection::QueueFull);
        }
        lock_recover(&self.shared.metrics).admitted += 1;
        Ok(())
    }

    /// Releases one admission slot, waking `drain` when the service goes
    /// idle. The notify runs under `drain_lock` so a concurrent drainer
    /// cannot check the counter and park between our decrement and notify.
    fn release(&self) {
        if self.shared.in_flight.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = lock_recover(&self.shared.drain_lock);
            self.shared.idle.notify_all();
        }
    }

    /// The post-admission request path, run entirely on the calling
    /// thread: cache probe, singleflight join, and (for leaders) the solve
    /// dispatched to the pool.
    fn drive(
        &self,
        instance: &Instance,
        kernel: Option<KernelKind>,
        admitted_at: Instant,
        deadline: Duration,
    ) -> Result<Response, Rejection> {
        let shared = &self.shared;
        // A per-request kernel override swaps in a uniform ladder; the
        // effective ladder is part of the cache key, so answers, coalesced
        // flights, and quarantine strikes are all scoped per kernel — a
        // kernel that keeps panicking on a key never blocks the others.
        let kernels = kernel.map_or(shared.cfg.kernels, KernelLadder::uniform);
        let ktag = kernel_tag(&kernels);
        // A request whose graph matches a registered topology lineage (at
        // its current weights) keys by structure + query + epoch instead of
        // the full weighted digest, so a later weight-only epoch advance
        // invalidates its entry selectively; everything else keys by the
        // canonical digest at epoch 0 (bit-identical to the historical
        // keys for the default kernel ladder).
        let scope = shared.epochs.lookup(instance);
        let key = match &scope {
            Some(s) => scope_key(s.base, ktag, s.epoch),
            None => scope_key(canonical_key(instance), ktag, 0),
        };
        // Disk records outlive the process but the epoch registry does
        // not: after a restart a re-registered lineage starts over at
        // epoch 0, so a weight-free epoch-scoped key could alias records
        // written under *different* weights in a previous run (weights
        // drift while the daemon is down, or the old run was epochs
        // ahead). The disk tier therefore always keys by the canonical
        // weight-inclusive digest; for unscoped requests that is `key`
        // itself.
        let disk_key = shared.disk.as_ref().map(|_| match &scope {
            Some(_) => scope_key(canonical_key(instance), ktag, 0),
            None => key,
        });
        // The request's cancel token: trips when the service shuts down or
        // the deadline passes, degrading the solve to its cheapest rung.
        let cancel = shared
            .shutdown
            .child_with_deadline(admitted_at.checked_add(deadline));
        loop {
            // Cache first — a hit costs two hashes and one shard lock.
            if let Some(hit) = shared.cache.get(key) {
                let latency = admitted_at.elapsed();
                let deadline_missed = latency > deadline;
                finish_metrics(shared, latency, deadline_missed, None, false);
                return Ok(Response {
                    solution: hit.solution,
                    rung: hit.rung,
                    guarantee: hit.guarantee,
                    kernel: hit.kernel,
                    cache_hit: true,
                    coalesced: false,
                    latency,
                    deadline_missed,
                });
            }

            // Disk tier on an LRU miss: a record that survived a restart
            // (or LRU pressure) answers like a cache hit and is promoted
            // back into the LRU for its successors.
            if let (Some(disk), Some(dk)) = (&shared.disk, disk_key) {
                if let Some(hit) = disk.get(dk) {
                    shared.cache.put(key, hit.clone());
                    let latency = admitted_at.elapsed();
                    let deadline_missed = latency > deadline;
                    finish_metrics(shared, latency, deadline_missed, None, false);
                    return Ok(Response {
                        solution: hit.solution,
                        rung: hit.rung,
                        guarantee: hit.guarantee,
                        kernel: hit.kernel,
                        cache_hit: true,
                        coalesced: false,
                        latency,
                        deadline_missed,
                    });
                }
            }

            // Quarantine after both cache tiers: a stored answer predating
            // the strikes is still a valid answer, but a fresh solve on a
            // striking key would crash-loop the workers. (Activation also
            // purges the key's LRU entry *and* its disk record — see
            // `record_outcome` — so a quarantined key has nothing cached
            // to serve.)
            if shared.quarantine.is_quarantined(key) {
                return Err(Rejection::Quarantined);
            }

            let remaining = deadline.saturating_sub(admitted_at.elapsed());
            if shared.cfg.reject_expired && remaining.is_zero() && !deadline.is_zero() {
                lock_recover(&shared.metrics).rejected_expired += 1;
                return Err(Rejection::DeadlineExpired);
            }

            // A seed is the previous epoch's evicted answer for this exact
            // query: the solver re-verifies it against the new weights and
            // warm-starts when it still certifies, falling back to the
            // bit-identical cold solve when it does not. Consuming it here
            // (leader / uncoalesced paths only) means followers never race
            // for it.
            if !shared.cfg.coalesce {
                let seed = scope.as_ref().and_then(|s| shared.epochs.take_seed(s, key));
                let solved = self.solve_on_pool(instance, &kernels, remaining, &cancel, seed);
                self.record_outcome(key, disk_key, scope.as_ref(), ktag, &solved);
                return finish_fresh(shared, solved, admitted_at, deadline, false);
            }
            match shared.flights.join(key) {
                Join::Leader(leader) => {
                    let seed = scope.as_ref().and_then(|s| shared.epochs.take_seed(s, key));
                    let solved = self.solve_on_pool(instance, &kernels, remaining, &cancel, seed);
                    // Populate the cache before retiring the flight, so a
                    // request arriving after the flight is gone hits the
                    // cache instead of solving again.
                    self.record_outcome(key, disk_key, scope.as_ref(), ktag, &solved);
                    if matches!(solved, Err(SolveFailure::Panicked(_))) {
                        // Abort the flight instead of publishing the panic:
                        // each follower wakes with `None` and re-drives on
                        // its own, where it either sees the quarantine or
                        // retries the solve itself. Dropping the leader
                        // without `complete` publishes the abort.
                        drop(leader);
                    } else {
                        leader.complete(solved.clone());
                    }
                    return finish_fresh(shared, solved, admitted_at, deadline, false);
                }
                Join::Follower(Some(solved)) => {
                    return finish_fresh(shared, solved, admitted_at, deadline, true);
                }
                // The leader aborted (dropped without publishing); start
                // over rather than hang.
                Join::Follower(None) => {}
            }
        }
    }

    /// Post-solve bookkeeping shared by the coalesced and independent
    /// paths: successes populate both cache tiers (the disk tier under its
    /// weight-inclusive `disk_key`) and register with the epoch lineage
    /// when the request is scoped to one; contained panics strike the
    /// quarantine — an activation purges the key's LRU entry *and* its
    /// disk record, so the quarantine is authoritative until its TTL
    /// lapses.
    fn record_outcome(
        &self,
        key: CacheKey,
        disk_key: Option<CacheKey>,
        scope: Option<&EpochScope>,
        ktag: u32,
        solved: &Result<Degraded, SolveFailure>,
    ) {
        match solved {
            Ok(d) => {
                self.shared.cache.put(key, d.clone());
                if let Some(s) = scope {
                    self.shared.epochs.record_issued(s, key, ktag);
                }
                if let (Some(disk), Some(dk)) = (&self.shared.disk, disk_key) {
                    // Disk persistence is best-effort: a full or failing
                    // volume degrades the tier, never the answer.
                    let _ = disk.put(dk, d);
                }
                if d.warm {
                    lock_recover(&self.shared.metrics).warm_starts += 1;
                }
            }
            Err(SolveFailure::Panicked(_)) => {
                if self.shared.quarantine.strike(key) {
                    lock_recover(&self.shared.metrics).quarantined += 1;
                    self.shared.cache.remove(key);
                    if let (Some(disk), Some(dk)) = (&self.shared.disk, disk_key) {
                        disk.remove(dk);
                    }
                }
            }
            Err(SolveFailure::Infeasible) => {}
        }
    }

    /// Runs one ladder solve on the resident pool, blocking the calling
    /// thread for the result. When the caller *is* a pool worker (a nested
    /// provision), the solve runs inline instead — parking a worker behind
    /// a job that needs a worker would deadlock the pool.
    fn solve_on_pool(
        &self,
        instance: &Instance,
        kernels: &KernelLadder,
        remaining: Duration,
        cancel: &CancelToken,
        seed: Option<EdgeSet>,
    ) -> Result<Degraded, SolveFailure> {
        if Executor::on_worker_thread() {
            return solve_job(
                &self.shared,
                instance,
                kernels,
                remaining,
                cancel,
                seed.as_ref(),
            );
        }
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        {
            let shared = Arc::clone(&self.shared);
            let slot = Arc::clone(&slot);
            let instance = instance.clone();
            let kernels = *kernels;
            let cancel = cancel.clone();
            // `solve_job` contains every panic behind `catch_unwind`, so
            // this closure always fills the slot and the condvar wait below
            // cannot hang on a dead worker.
            self.executor.submit(Box::new(move || {
                let out = solve_job(
                    &shared,
                    &instance,
                    &kernels,
                    remaining,
                    &cancel,
                    seed.as_ref(),
                );
                *lock_recover(&slot.result) = Some(out);
                slot.done.notify_all();
            }));
        }
        let mut guard = lock_recover(&slot.result);
        while guard.is_none() {
            guard = crate::sync_util::wait_recover(&slot.done, guard);
        }
        guard
            .take()
            .expect("loop exits only when the slot is filled")
    }

    /// A point-in-time copy of the service counters (cache counters folded
    /// in, per shard and in aggregate).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = lock_recover(&self.shared.metrics).clone();
        let c = self.shared.cache.stats();
        m.cache_hits = c.hits;
        m.cache_misses = c.misses;
        m.cache_evictions = c.evictions;
        m.cache_invalidations = c.invalidations;
        m.per_shard = self.shared.cache.shard_stats();
        if let Some(disk) = &self.shared.disk {
            let d = disk.stats();
            m.disk_hits = d.hits;
            m.disk_misses = d.misses;
            m.disk_recovered = d.recovered;
            m.disk_dropped = d.dropped;
        }
        m.epoch = self.shared.epochs.max_epoch();
        if let Some(frontend) = lock_recover(&self.shared.frontend).as_ref() {
            m.frontend = frontend.snapshot();
        }
        m
    }

    /// Registers `graph` as a topology lineage at epoch 0 (idempotent for
    /// the same structure). Subsequent requests whose graph matches the
    /// lineage's current weights get epoch-scoped, weight-free cache keys,
    /// so [`Service::advance_epoch`] can invalidate selectively instead of
    /// orphaning every entry on a weight change. Returns the structural
    /// digest (the lineage handle) and the current epoch.
    pub fn register_topology(&self, graph: &DiGraph) -> (u128, u64) {
        self.shared.epochs.register(graph)
    }

    /// Applies a weight delta to a registered lineage, bumping its epoch:
    /// cached entries untouched by the delta are re-keyed to the new epoch
    /// in place (they stay exact), touched entries are evicted into
    /// warm-start seeds that the next solve of the same query consumes.
    pub fn advance_epoch(
        &self,
        structural: u128,
        changes: &[WeightChange],
    ) -> Result<EpochReport, EpochError> {
        let report = self
            .shared
            .epochs
            .advance(&self.shared.cache, structural, changes)?;
        let mut m = lock_recover(&self.shared.metrics);
        m.epoch_advances += 1;
        m.epoch_retained += report.retained;
        m.epoch_evicted += report.evicted;
        Ok(report)
    }

    /// Registers the TCP frontend's live counters so [`Service::metrics`]
    /// (and therefore the `Metrics` wire request) reports them. The
    /// frontend keeps the same `Arc` and updates it lock-free.
    pub fn attach_frontend_stats(&self, stats: Arc<FrontendStats>) {
        *lock_recover(&self.shared.frontend) = Some(stats);
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.cfg
    }

    /// Requests currently queued or running.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Acquire)
    }

    /// Flips the service into shutdown: new requests are refused with
    /// [`Rejection::ShuttingDown`], and every in-flight request's cancel
    /// token trips, degrading its solve to the cheapest completed rung so
    /// it finishes (with a valid answer) instead of running its full
    /// course. Idempotent.
    pub fn begin_shutdown(&self) {
        lock_recover(&self.shared.draining_since).get_or_insert_with(Instant::now);
        self.shared.shutdown.cancel();
    }

    /// Whether [`Service::begin_shutdown`] has been called.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.is_cancelled()
    }

    /// How long the service has been draining (since the first
    /// [`Service::begin_shutdown`]); `None` while serving normally.
    #[must_use]
    pub fn draining_since(&self) -> Option<Duration> {
        lock_recover(&self.shared.draining_since).map(|at| at.elapsed())
    }

    /// Number of registered topology lineages (see
    /// [`Service::register_topology`]).
    #[must_use]
    pub fn lineage_count(&self) -> u64 {
        self.shared.epochs.lineage_count()
    }

    /// Blocks until every in-flight request has finished, or `grace`
    /// elapses. Returns `true` when the service fully drained. Usually
    /// preceded by [`Service::begin_shutdown`] (otherwise new arrivals can
    /// keep the count from reaching zero).
    pub fn drain(&self, grace: Duration) -> bool {
        let deadline = saturating_deadline(Instant::now(), grace);
        let mut guard = lock_recover(&self.shared.drain_lock);
        loop {
            if self.in_flight() == 0 {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            // Parked until `release` drops the count to zero (it notifies
            // under `drain_lock`, so the wakeup cannot be lost) or the
            // grace deadline arrives.
            guard = wait_timeout_recover(&self.shared.idle, guard, deadline - now);
        }
    }

    /// Installs a hook that runs inside every solver job before solving.
    #[cfg(test)]
    fn set_solve_gate(&self, gate: Box<dyn Fn(&Shared) + Send + Sync>) {
        *lock_recover(&self.shared.solve_gate) = Some(gate.into());
    }
}

/// One ladder solve behind the panic boundary. Everything that can run
/// user-triggered solver code — the test gate, the `service.solve`
/// failpoint, the ladder itself, and the debug-build audit — executes
/// inside `catch_unwind`, so a panic anywhere in the solver surfaces as
/// [`SolveFailure::Panicked`] instead of killing the worker thread.
fn solve_job(
    shared: &Shared,
    instance: &Instance,
    kernels: &KernelLadder,
    remaining: Duration,
    cancel: &CancelToken,
    seed: Option<&EdgeSet>,
) -> Result<Degraded, SolveFailure> {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        // The gate runs outside its lock, so a held gate does not block
        // other solves from reaching theirs.
        #[cfg(test)]
        {
            let gate = lock_recover(&shared.solve_gate).clone();
            if let Some(gate) = gate {
                gate(shared);
            }
        }
        krsp_failpoint::fail_point!("service.solve");
        let out = ladder(
            instance,
            &shared.cfg.solver,
            remaining,
            &shared.cfg.ladder,
            kernels,
            cancel,
            seed,
        );
        #[cfg(debug_assertions)]
        if let Ok((degraded, certified)) = &out {
            audit_response(instance, degraded, *certified);
        }
        out
    }));
    match caught {
        Ok(Ok((degraded, _))) => Ok(degraded),
        Ok(Err(LadderError::Infeasible)) => Err(SolveFailure::Infeasible),
        Err(payload) => Err(SolveFailure::Panicked(panic_message(payload.as_ref()))),
    }
}

/// Packs the effective kernel ladder into a 4-byte tag (one kernel byte
/// per rung) for [`scope_key`], so distinct kernel assignments occupy
/// disjoint cache/singleflight/quarantine key spaces. The
/// all-[`KernelKind::Classic`] default packs to zero, which `scope_key`
/// folds as the identity at epoch 0 — default-configuration keys stay
/// identical to the plain instance digest.
fn kernel_tag(kernels: &KernelLadder) -> u32 {
    let mut tag = 0u32;
    for rung in Rung::LADDER {
        tag = (tag << 8) | kernels.for_rung(rung) as u32;
    }
    tag
}

/// Best-effort text of a panic payload (`&str` and `String` payloads cover
/// `panic!`, `assert!`, `unwrap`, and the failpoint `panic` action).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Converts a (possibly shared) solve outcome into the caller's response,
/// recording the caller's own latency, deadline, and coalescing outcome.
fn finish_fresh(
    shared: &Shared,
    solved: Result<Degraded, SolveFailure>,
    admitted_at: Instant,
    deadline: Duration,
    coalesced: bool,
) -> Result<Response, Rejection> {
    match solved {
        Ok(degraded) => {
            let latency = admitted_at.elapsed();
            let deadline_missed = latency > deadline;
            // Only the leader's solve counts as a rung solve; followers
            // report themselves via the coalesced counter.
            let fresh_rung = (!coalesced).then_some(degraded.rung);
            finish_metrics(shared, latency, deadline_missed, fresh_rung, coalesced);
            Ok(Response {
                solution: degraded.solution,
                rung: degraded.rung,
                guarantee: degraded.guarantee,
                kernel: degraded.kernel,
                cache_hit: false,
                coalesced,
                latency,
                deadline_missed,
            })
        }
        Err(SolveFailure::Infeasible) => {
            let mut m = lock_recover(&shared.metrics);
            m.infeasible += 1;
            if coalesced {
                m.coalesced += 1;
            }
            Err(Rejection::Infeasible)
        }
        // Only the leader sees a panic (the flight is aborted, not
        // completed), so there is no coalesced bookkeeping here.
        Err(SolveFailure::Panicked(msg)) => {
            lock_recover(&shared.metrics).solver_panics += 1;
            Err(Rejection::SolverPanic(msg))
        }
    }
}

fn finish_metrics(
    shared: &Shared,
    latency: Duration,
    deadline_missed: bool,
    fresh_rung: Option<Rung>,
    coalesced: bool,
) {
    let mut m = lock_recover(&shared.metrics);
    m.completed += 1;
    if deadline_missed {
        m.deadline_missed += 1;
    }
    if coalesced {
        m.coalesced += 1;
    }
    if let Some(rung) = fresh_rung {
        m.count_rung(rung);
    }
    m.latency
        .record(latency.as_micros().min(u128::from(u64::MAX)) as u64);
}

/// Debug-build audit: every fresh answer is re-verified from first
/// principles against the rung's advertised guarantee (delay within
/// `delay_factor · D`; cost within `cost_factor ×` the reference the rung
/// certifies, when it certifies one). That reference is the solve's
/// certified `Ĉ* ≤ C_OPT` where it proves one — Algorithm 1's bound, which
/// an optimal answer can put above `2·C_LP` — and the LP lower bound
/// otherwise. A `k = 1` answer from the RSP kernel carries neither, so it
/// is held to `C_OPT` itself: the exact RSP optimum at `D`.
#[cfg(debug_assertions)]
fn audit_response(instance: &Instance, degraded: &Degraded, certified: Option<i64>) {
    let mut relaxed = instance.clone();
    relaxed.delay_bound = instance
        .delay_bound
        .saturating_mul(i64::from(degraded.guarantee.delay_factor));
    let reference = degraded.guarantee.cost_factor.and_then(|factor| {
        let lb = certified
            .map(Into::into)
            .or(degraded.solution.lower_bound)
            .or_else(|| {
                let (g, s, t, d) = (
                    &instance.graph,
                    instance.s,
                    instance.t,
                    instance.delay_bound,
                );
                let opt = (instance.k == 1).then(|| krsp::constrained_shortest_path(g, s, t, d));
                opt.flatten().map(|p| p.cost.into())
            })?;
        Some((lb, factor))
    });
    let violations = krsp::verify::audit(&relaxed, &degraded.solution, reference);
    assert!(
        violations.is_empty(),
        "service produced an invalid {} response: {violations:?}",
        degraded.rung
    );
}

#[cfg(test)]
// Tests may unwrap: a panic is exactly the failure report we want there.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use krsp_graph::{DiGraph, NodeId};

    fn tradeoff(d: i64) -> Instance {
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
        Instance::new(g, NodeId(0), NodeId(5), 2, d).unwrap()
    }

    fn req(d: i64) -> Request {
        Request {
            instance: tradeoff(d),
            deadline: None,
            kernel: None,
        }
    }

    /// `tradeoff(d)` with its edge list rotated by two: the same problem,
    /// numbered differently.
    fn rotated(d: i64) -> Instance {
        let mut list: Vec<(u32, u32, i64, i64)> = tradeoff(d)
            .graph
            .edges()
            .iter()
            .map(|e| (e.src.0, e.dst.0, e.cost, e.delay))
            .collect();
        list.rotate_left(2);
        Instance::new(DiGraph::from_edges(6, &list), NodeId(0), NodeId(5), 2, d).unwrap()
    }

    /// Provisions `rotated(14)` and checks that it was solved fresh and
    /// that its edge ids are valid in its own numbering.
    fn provision_rotated(svc: &Service) {
        let out = svc
            .provision(Request {
                instance: rotated(14),
                deadline: None,
                kernel: None,
            })
            .unwrap();
        let violations = krsp::verify::audit(&rotated(14), &out.solution, None);
        assert!(
            violations.is_empty(),
            "ids read in the request's own numbering: {violations:?}"
        );
        assert!(!out.cache_hit && !out.coalesced, "solved fresh: {out:?}");
    }

    #[test]
    fn permuted_repeat_misses_the_cache() {
        let svc = Service::new(ServiceConfig::default());
        svc.provision(req(14)).unwrap();
        provision_rotated(&svc);
    }

    #[test]
    fn permuted_repeat_misses_a_registered_lineage() {
        let svc = Service::new(ServiceConfig::default());
        svc.register_topology(&tradeoff(14).graph);
        svc.provision(req(14)).unwrap();
        provision_rotated(&svc);
    }

    #[test]
    fn permuted_repeat_misses_the_disk_tier_after_a_restart() {
        let _fp = crate::sync_util::fp_lock();
        let dir = std::env::temp_dir().join(format!("krsp-svc-permuted-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig {
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        Service::new(cfg.clone()).provision(req(14)).unwrap();
        let restarted = Service::new(cfg);
        let out = std::panic::catch_unwind(AssertUnwindSafe(|| provision_rotated(&restarted)));
        let _ = std::fs::remove_dir_all(&dir);
        out.unwrap();
    }

    /// A `k = 1` Full answer carries no certified reference and no LP
    /// bound, so the audit holds it to the exact RSP optimum: an answer at
    /// `C_OPT` passes and one above `2·C_OPT` trips it.
    #[cfg(debug_assertions)]
    #[test]
    fn k1_full_answer_above_twice_the_optimum_trips_the_audit() {
        // OPT = 2 over 0→1→3; the 0→2→3 leg costs 20 within the same D.
        let g = DiGraph::from_edges(
            4,
            &[(0, 1, 1, 1), (1, 3, 1, 1), (0, 2, 10, 1), (2, 3, 10, 1)],
        );
        let inst = Instance::new(g, krsp_graph::NodeId(0), krsp_graph::NodeId(3), 1, 4).unwrap();
        let answer = |ids: &[u32]| {
            let ids: Vec<krsp_graph::EdgeId> = ids.iter().map(|&e| krsp_graph::EdgeId(e)).collect();
            Degraded {
                solution: Solution::from_edge_set(&inst, EdgeSet::from_edges(inst.m(), &ids))
                    .unwrap(),
                rung: Rung::Full,
                guarantee: Rung::Full.guarantee(),
                kernel: KernelKind::Classic,
                warm: false,
            }
        };
        audit_response(&inst, &answer(&[0, 1]), None);
        let inflated = answer(&[2, 3]);
        assert_eq!(inflated.solution.cost, 20);
        let tripped = catch_unwind(AssertUnwindSafe(|| audit_response(&inst, &inflated, None)));
        let message = panic_message(tripped.unwrap_err().as_ref());
        assert!(message.contains("CostGuaranteeExceeded"), "{message}");
    }

    #[test]
    fn permuted_repeat_is_not_coalesced_onto_the_original_flight() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let key = canonical_key(&tradeoff(14));
        let held = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        {
            let (held, release) = (Arc::clone(&held), Arc::clone(&release));
            // The first solve (the original's) holds its flight open until
            // released, or until a request joins it as a follower.
            svc.set_solve_gate(Box::new(move |shared| {
                if !held.swap(true, Ordering::SeqCst) {
                    while !release.load(Ordering::Acquire) && shared.flights.waiters(key) == 0 {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        std::thread::scope(|s| {
            let original = {
                let svc = svc.clone();
                s.spawn(move || svc.provision(req(14)))
            };
            while !held.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let permuted = std::panic::catch_unwind(AssertUnwindSafe(|| provision_rotated(&svc)));
            release.store(true, Ordering::Release);
            assert!(!original.join().unwrap().unwrap().coalesced);
            permuted.unwrap();
        });
    }

    #[test]
    fn provisions_and_caches() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let first = svc.provision(req(14)).unwrap();
        assert!(!first.cache_hit);
        assert!(!first.coalesced);
        assert_eq!(first.rung, Rung::Full);
        assert!(first.solution.delay <= 14);

        let second = svc.provision(req(14)).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.solution.cost, first.solution.cost);

        let m = svc.metrics();
        assert_eq!(m.admitted, 2);
        assert_eq!(m.completed, 2);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.coalesced, 0);
        assert_eq!(m.per_rung, [1, 0, 0, 0]);
        assert_eq!(m.per_shard.len(), svc.config().cache_shards);
    }

    #[test]
    fn zero_deadline_serves_degraded() {
        let svc = Service::new(ServiceConfig::default());
        let out = svc
            .provision(Request {
                instance: tradeoff(14),
                deadline: Some(Duration::ZERO),
                kernel: None,
            })
            .unwrap();
        assert_eq!(out.rung, Rung::MinDelay);
        assert_eq!(out.guarantee.cost_factor, None);
        assert!(out.solution.delay <= 14);
    }

    #[test]
    fn strict_mode_rejects_lapsed_deadlines() {
        let svc = Service::new(ServiceConfig {
            reject_expired: true,
            ..ServiceConfig::default()
        });
        let err = svc
            .provision(Request {
                instance: tradeoff(14),
                deadline: Some(Duration::from_nanos(1)),
                kernel: None,
            })
            .unwrap_err();
        assert_eq!(err, Rejection::DeadlineExpired);
        assert_eq!(svc.metrics().rejected_expired, 1);
    }

    #[test]
    fn infeasible_is_reported() {
        let svc = Service::new(ServiceConfig::default());
        let err = svc.provision(req(3)).unwrap_err();
        assert_eq!(err, Rejection::Infeasible);
        assert_eq!(svc.metrics().infeasible, 1);
    }

    #[test]
    fn concurrent_clients_share_the_cache() {
        let svc = Service::new(ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        });
        std::thread::scope(|s| {
            for _ in 0..4 {
                let svc = svc.clone();
                s.spawn(move || {
                    for d in [14, 16, 22, 14, 16, 22] {
                        let out = svc.provision(req(d)).unwrap();
                        assert!(out.solution.delay <= d);
                    }
                });
            }
        });
        let m = svc.metrics();
        assert_eq!(m.completed, 24);
        // 3 distinct instances: every request is a cache hit, a coalesced
        // follower, or one of the fresh solves. Coalescing collapses
        // simultaneous misses, so fresh solves stay near 3 (a solve can
        // repeat only in the narrow window between a cache probe and the
        // leader's cache fill).
        let fresh: u64 = m.per_rung.iter().sum();
        assert_eq!(m.cache_hits + m.coalesced + fresh, 24);
        assert!(fresh >= 3, "fresh = {fresh}");
        assert!(m.cache_hits + m.coalesced >= 24 - 2 * 3, "m = {m:?}");
        assert_eq!(m.cache_evictions, 0);
    }

    #[test]
    fn coalescing_runs_exactly_one_solve_for_concurrent_duplicates() {
        const K: usize = 8;
        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        // Hold the leader's flight open until every other request has
        // joined it as a follower — making "exactly one solver run for K
        // concurrent duplicates" deterministic rather than racy.
        let key = canonical_key(&tradeoff(14));
        svc.set_solve_gate(Box::new(move |shared| {
            while shared.flights.waiters(key) < K - 1 {
                std::thread::yield_now();
            }
        }));
        std::thread::scope(|s| {
            for _ in 0..K {
                let svc = svc.clone();
                s.spawn(move || {
                    let out = svc.provision(req(14)).unwrap();
                    assert!(!out.cache_hit, "cache was empty for the whole flight");
                    assert!(out.solution.delay <= 14);
                });
            }
        });
        let m = svc.metrics();
        assert_eq!(m.completed, K as u64);
        assert_eq!(
            m.per_rung.iter().sum::<u64>(),
            1,
            "exactly one solver run, m = {m:?}"
        );
        assert_eq!(m.coalesced, (K - 1) as u64);
        assert_eq!(m.cache_hits, 0);
    }

    #[test]
    fn disabling_coalescing_solves_independently() {
        let svc = Service::new(ServiceConfig {
            coalesce: false,
            cache_capacity: 0,
            ..ServiceConfig::default()
        });
        for _ in 0..3 {
            let out = svc.provision(req(14)).unwrap();
            assert!(!out.cache_hit && !out.coalesced);
        }
        let m = svc.metrics();
        assert_eq!(m.per_rung.iter().sum::<u64>(), 3);
        assert_eq!(m.coalesced, 0);
    }

    #[test]
    fn panicking_leader_does_not_panic_followers() {
        const K: usize = 6;
        let svc = Service::new(ServiceConfig {
            workers: 2,
            // Retries must be allowed to reach the solver again.
            quarantine_threshold: 0,
            ..ServiceConfig::default()
        });
        let key = canonical_key(&tradeoff(14));
        let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
        {
            let fired = Arc::clone(&fired);
            svc.set_solve_gate(Box::new(move |shared| {
                // First leader only: wait until every follower has joined
                // the flight, then blow up — deterministically exercising
                // the abort-and-retry path with a full house of waiters.
                if !fired.swap(true, Ordering::SeqCst) {
                    while shared.flights.waiters(key) < K - 1 {
                        std::thread::yield_now();
                    }
                    panic!("injected leader panic");
                }
            }));
        }
        let (mut ok, mut panicked) = (0, 0);
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..K {
                let svc = svc.clone();
                handles.push(s.spawn(move || svc.provision(req(14))));
            }
            for h in handles {
                match h.join().expect("client threads must not panic") {
                    Ok(r) => {
                        assert!(r.solution.delay <= 14);
                        ok += 1;
                    }
                    Err(Rejection::SolverPanic(msg)) => {
                        assert!(msg.contains("injected"), "msg = {msg}");
                        panicked += 1;
                    }
                    Err(other) => panic!("unexpected rejection: {other}"),
                }
            }
        });
        assert_eq!(panicked, 1, "exactly the leader reports the panic");
        assert_eq!(ok, K - 1, "every follower recovered via retry");
        let m = svc.metrics();
        assert_eq!(m.solver_panics, 1);
        assert_eq!(m.quarantined, 0);
        assert!(m.per_rung.iter().sum::<u64>() >= 1, "a retry re-solved");
    }

    #[test]
    fn quarantine_fast_fails_after_repeated_panics() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            quarantine_threshold: 2,
            quarantine_ttl: Duration::from_secs(60),
            ..ServiceConfig::default()
        });
        svc.set_solve_gate(Box::new(|_| panic!("always broken")));
        for _ in 0..2 {
            let err = svc.provision(req(14)).unwrap_err();
            assert!(matches!(err, Rejection::SolverPanic(_)), "err = {err}");
        }
        // The third request fast-fails without touching the solver.
        let t0 = Instant::now();
        assert_eq!(svc.provision(req(14)).unwrap_err(), Rejection::Quarantined);
        assert!(t0.elapsed() < Duration::from_millis(250));
        let m = svc.metrics();
        assert_eq!(m.solver_panics, 2);
        assert_eq!(m.quarantined, 1);
        // Other keys are unaffected once the faulty gate is gone.
        svc.set_solve_gate(Box::new(|_| {}));
        assert!(svc.provision(req(16)).is_ok());
        assert_eq!(svc.provision(req(14)).unwrap_err(), Rejection::Quarantined);
    }

    #[test]
    fn shutdown_rejects_new_and_drains_in_flight() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        {
            let release = Arc::clone(&release);
            svc.set_solve_gate(Box::new(move |_| {
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }));
        }
        std::thread::scope(|s| {
            let in_flight = {
                let svc = svc.clone();
                s.spawn(move || svc.provision(req(14)))
            };
            while svc.in_flight() == 0 {
                std::thread::yield_now();
            }
            svc.begin_shutdown();
            assert!(svc.is_shutting_down());
            // New arrivals are refused while the gated request drains.
            assert_eq!(svc.provision(req(16)).unwrap_err(), Rejection::ShuttingDown);
            assert!(
                !svc.drain(Duration::from_millis(20)),
                "gated request cannot drain yet"
            );
            release.store(true, Ordering::Release);
            assert!(svc.drain(Duration::from_secs(10)), "drain after release");
            let out = in_flight.join().expect("no panic").expect("still answered");
            assert!(out.solution.delay <= 14);
            // The shutdown tripped the request's token mid-solve: it
            // finished on the always-on rung with a complete answer.
            assert_eq!(out.rung, Rung::MinDelay);
            assert_eq!(out.guarantee, Rung::MinDelay.guarantee());
        });
        assert_eq!(svc.metrics().rejected_shutdown, 1);
    }

    #[test]
    fn queue_full_backpressure() {
        // One worker, tiny queue, and requests that take real time: the
        // admission counter must reject the overflow. Admission runs
        // before coalescing, so identical instances still backpressure.
        let svc = Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 0,
            ..ServiceConfig::default()
        });
        let mut rejected = 0u64;
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..12 {
                let svc = svc.clone();
                handles.push(s.spawn(move || svc.provision(req(14)).is_err()));
            }
            for h in handles {
                if h.join().unwrap() {
                    rejected += 1;
                }
            }
        });
        let m = svc.metrics();
        assert_eq!(rejected, m.rejected_queue_full);
        // With 12 simultaneous clients, capacity 1 and one worker, at
        // least some requests must have seen backpressure.
        assert!(m.rejected_queue_full > 0, "no backpressure observed");
        assert_eq!(m.completed + m.rejected_queue_full, 12);
    }

    #[test]
    fn disk_tier_answers_across_a_restart() {
        let _fp = crate::sync_util::fp_lock();
        let dir = std::env::temp_dir().join(format!("krsp-svc-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig {
            workers: 2,
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let first = {
            let svc = Service::new(cfg.clone());
            let first = svc.provision(req(14)).unwrap();
            assert!(!first.cache_hit);
            first
        };
        // A fresh service over the same directory — the LRU is empty, the
        // disk tier is not.
        let svc = Service::new(cfg);
        let again = svc.provision(req(14)).unwrap();
        assert!(again.cache_hit, "restart must answer from the disk tier");
        assert_eq!(again.solution.cost, first.solution.cost);
        assert_eq!(again.solution.delay, first.solution.delay);
        let m = svc.metrics();
        assert!(m.disk_hits >= 1, "disk hit not counted: {m:?}");
        assert!(m.disk_recovered >= 1, "recovery scan found nothing");
        // Promoted into the LRU: the next lookup is a memory hit.
        let third = svc.provision(req(14)).unwrap();
        assert!(third.cache_hit);
        assert_eq!(svc.metrics().disk_hits, m.disk_hits);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_with_drifted_weights_never_serves_stale_scoped_records() {
        use krsp_graph::EdgeId;
        let _fp = crate::sync_util::fp_lock();
        let dir = std::env::temp_dir().join(format!("krsp-svc-drift-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig {
            workers: 2,
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        // Run 1: an epoch-scoped answer lands in the disk tier.
        let first = {
            let svc = Service::new(cfg.clone());
            svc.register_topology(&tradeoff(14).graph);
            let first = svc.provision(req(14)).unwrap();
            assert!(!first.cache_hit);
            first
        };
        // Weights drift while the daemon is down; the restarted daemon
        // re-registers the lineage, which starts over at epoch 0 — the
        // aliasing scenario a weight-free disk key would fall for.
        let drifted = {
            let g = tradeoff(14).graph;
            let bump: Vec<(EdgeId, i64, i64)> = g
                .edges()
                .iter()
                .enumerate()
                .map(|(i, e)| (EdgeId(i as u32), e.cost + 1, e.delay))
                .collect();
            g.with_updates(&bump)
        };
        let svc = Service::new(cfg);
        svc.register_topology(&drifted);
        let out = svc
            .provision(Request {
                instance: Instance::new(drifted, NodeId(0), NodeId(5), 2, 14).unwrap(),
                deadline: None,
                kernel: None,
            })
            .unwrap();
        assert!(
            !out.cache_hit,
            "pre-drift record must not answer post-drift"
        );
        // Re-solved under the new weights: all four solution edges cost
        // one more (the uniform bump leaves the optimal pairing alone).
        assert_eq!(out.solution.cost, first.solution.cost + 4);
        // The pre-drift instance no longer matches the lineage's weights,
        // so it keys canonically — the same weight-inclusive family the
        // run-1 record was written under, which still answers it exactly.
        let stale_weights = svc.provision(req(14)).unwrap();
        assert!(
            stale_weights.cache_hit,
            "canonical disk record must survive"
        );
        assert_eq!(stale_weights.solution.cost, first.solution.cost);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_activation_purges_the_disk_record() {
        let _fp = crate::sync_util::fp_lock();
        let dir = std::env::temp_dir().join(format!("krsp-svc-quar-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = Service::new(ServiceConfig {
            workers: 1,
            quarantine_threshold: 1,
            quarantine_ttl: Duration::from_secs(60),
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        let good = svc.provision(req(14)).unwrap();
        assert!(!good.cache_hit, "first answer is fresh (and hits disk)");
        // The key's solves start panicking (the stored answer predates the
        // strikes): activation must leave *neither* tier anything to
        // serve, or the quarantine never actually fast-fails the key.
        let key = canonical_key(&tradeoff(14));
        svc.record_outcome(
            key,
            Some(key),
            None,
            0,
            &Err(SolveFailure::Panicked("injected".into())),
        );
        assert_eq!(svc.metrics().quarantined, 1);
        assert_eq!(
            svc.provision(req(14)).unwrap_err(),
            Rejection::Quarantined,
            "a quarantined key must not answer from the disk tier"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_advance_retains_rekeys_and_warm_starts() {
        use krsp_graph::EdgeId;
        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        // D = 22 makes the phase-1 rounding infeasible, so the cold solve
        // probes — exactly the work a certified seed skips.
        let inst = tradeoff(22);
        let (topo, epoch0) = svc.register_topology(&inst.graph);
        assert_eq!(epoch0, 0);
        let first = svc.provision(req(22)).unwrap();
        assert!(!first.cache_hit);
        // The optimum pairs 0→3→5 with 0→2→5 (edge indices 2..=5); the
        // 0→1 edge (index 0) is off-solution. Re-asserting its current
        // weights is a valid non-decreasing delta that touches nothing
        // the cached answer uses, so the entry is rekeyed, not evicted.
        let report = svc
            .advance_epoch(
                topo,
                &[krsp_gen::WeightChange {
                    edge: EdgeId(0),
                    cost: 1,
                    delay: 10,
                }],
            )
            .unwrap();
        assert_eq!((report.epoch, report.retained, report.evicted), (1, 1, 0));
        let second = svc.provision(req(22)).unwrap();
        assert!(second.cache_hit, "untouched entry must survive the epoch");
        // Touching a used edge (0→3, index 4) evicts the entry into a
        // warm-start seed; the next solve of the same query consumes it.
        let report = svc
            .advance_epoch(
                topo,
                &[krsp_gen::WeightChange {
                    edge: EdgeId(4),
                    cost: 2,
                    delay: 6,
                }],
            )
            .unwrap();
        assert_eq!((report.epoch, report.retained, report.evicted), (2, 0, 1));
        assert_eq!(report.seeds, 1);
        let third = svc.provision(req(22)).unwrap();
        assert!(!third.cache_hit, "touched entry must not be served stale");
        assert_eq!(third.solution.cost, first.solution.cost);
        let m = svc.metrics();
        assert_eq!(m.epoch, 2);
        assert_eq!(m.epoch_advances, 2);
        assert_eq!(m.epoch_retained, 1);
        assert_eq!(m.epoch_evicted, 1);
        assert!(
            m.warm_starts >= 1,
            "identical-weight seed must warm-start: {m:?}"
        );
    }
}
