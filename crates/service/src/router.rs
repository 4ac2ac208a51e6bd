//! Replica ring: a consistent-hash router over N `serve` replicas
//! (DESIGN.md §4.18).
//!
//! One `krsp-cli serve` process is a single point of failure and a single
//! cache. The router fronts a fixed replica set with a consistent-hash
//! ring keyed on the **canonical instance digest** — the same 128-bit key
//! the cache/singleflight stack uses — so every digest lands on one
//! replica and that replica's L1/disk/warm caches stay hot, while
//! duplicate traffic still coalesces per replica.
//!
//! Robustness model:
//!
//! * **Health state machine** per replica: `Up → Degraded → Draining →
//!   Down`, driven by an active `Health` prober and passive
//!   forward-error signals. Draining and Down replicas are skipped at
//!   *lookup* time — the ring itself never rebuilds, so keys mapped to
//!   live replicas keep their assignment and only the dead replica's
//!   keys spill to their ring successors (no full cache flush).
//! * **Deadline-propagating retries**: every forwarded `Solve` carries
//!   the client's *remaining* budget, and a transport failure or `shed`
//!   answer fails over to the next live ring node after a jittered,
//!   deterministic backoff — never past the budget. A request whose
//!   replica already admitted it is retried only when the connection
//!   died; a stalled-but-alive connection waits out the budget instead
//!   (the replica may still answer in-guarantee).
//! * **Hedged sends** (opt-in): once enough latency samples exist, the
//!   first attempt arms a timer at a configurable latency quantile; if
//!   the primary has not answered by then, the same request is fired at
//!   the next live replica and the first answer wins. The loser is
//!   cancelled by shutting its socket down, and its connection never
//!   returns to the pool.
//! * **Graceful handoff**: a replica entering drain advertises it via
//!   the extended `Health` reply (`accepting: false`); the prober flips
//!   it to `Draining`, new sends stop, and any in-flight request either
//!   completes on the draining replica or — when the connection dies —
//!   reissues elsewhere through the normal retry path, so its in-flight
//!   window hands off with zero dropped ids.
//!
//! Failpoints `router.dial`, `router.forward`, and `router.probe` let the
//! chaos suite (tests/ring.rs) inject torn dials, forward failures, and
//! probe blackouts deterministically. All jitter derives from
//! [`RouterOptions::seed`] (see [`resolve_seed`]), so two identical chaos
//! replays produce identical retry traces ([`Router::take_trace`]).
//!
//! The router serves the same NDJSON wire protocol as a single replica,
//! on the same connection loop (see [`serve_ring_with_shutdown`]): slow
//! clients are reaped, oversize lines answered, and id'd requests
//! pipelined exactly as on a replica. `Health` is answered inline from
//! the ring view; every other request blocks on replica I/O, so each runs
//! on a thread of its own, at most [`RouterOptions::max_conns`] at once.

use crate::hash::{canonical_key, splitmix64};
use crate::metrics::LatencyHistogram;
use crate::proto::{
    decode_response_line, read_line_capped, wire_error, write_line, EpochReply, ErrorKind,
    HealthReply, HealthStatus, LineRead, RegisteredReply, ReplicaStatus, RingReply, SolveRequest,
    WireRequest, WireResponse, MAX_LINE_BYTES,
};
use crate::sync_util::{lock_recover, saturating_deadline};
use std::io::{BufReader, ErrorKind as IoErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Environment variable consulted by [`resolve_seed`] when no explicit
/// seed flag is given.
pub const SEED_ENV_VAR: &str = "KRSP_SEED";

/// Default jitter seed when neither a flag nor [`SEED_ENV_VAR`] names one
/// (`0x6b727370` = `"krsp"`).
pub const DEFAULT_SEED: u64 = 0x6b72_7370;

/// Read-poll tick while waiting on a replica reply; bounds how late the
/// deadline check inside a blocked read can run.
const READ_TICK: Duration = Duration::from_millis(5);

/// Hard cap on retained retry-trace entries, so a long-lived router's
/// diagnostics cannot grow without bound.
const TRACE_CAP: usize = 65_536;

/// Resolves the deterministic jitter seed: an explicit flag wins, then a
/// parseable [`SEED_ENV_VAR`], then [`DEFAULT_SEED`]. A malformed env
/// value is reported to stderr and ignored rather than silently zeroed.
#[must_use]
pub fn resolve_seed(flag: Option<u64>) -> u64 {
    seed_from(flag, std::env::var(SEED_ENV_VAR).ok())
}

/// [`resolve_seed`] with the environment injected, so the precedence is
/// testable without mutating process-global state.
fn seed_from(flag: Option<u64>, env: Option<String>) -> u64 {
    if let Some(seed) = flag {
        return seed;
    }
    if let Some(text) = env {
        match text.trim().parse() {
            Ok(seed) => return seed,
            Err(_) => eprintln!("warning: ignoring non-integer {SEED_ENV_VAR}={text:?}"),
        }
    }
    DEFAULT_SEED
}

/// Folds the 128-bit canonical digest onto the ring's 64-bit point space.
fn ring_hash(key: u128) -> u64 {
    splitmix64((key as u64) ^ ((key >> 64) as u64))
}

/// Health state of one replica in the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingState {
    /// Serving normally; first choice for its ring arcs.
    Up,
    /// Under suspicion (consecutive failures short of the down
    /// threshold); still eligible for sends, so a transient blip does not
    /// flush its keys.
    Degraded,
    /// Announced a drain via `Health` (`accepting: false`): no new sends;
    /// in-flight work finishes or fails over when the connection dies.
    Draining,
    /// Considered dead (failure threshold crossed); skipped at lookup
    /// until probes see it ready again.
    Down,
}

impl RingState {
    /// The wire string (`"up"`, `"degraded"`, `"draining"`, `"down"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RingState::Up => "up",
            RingState::Degraded => "degraded",
            RingState::Draining => "draining",
            RingState::Down => "down",
        }
    }

    /// Whether the ring hands this replica new requests.
    #[must_use]
    pub fn is_live(self) -> bool {
        matches!(self, RingState::Up | RingState::Degraded)
    }
}

/// Knobs for a [`Router`]. `Default` is a serviceable single-box setup
/// except for `replicas`, which must be non-empty.
#[derive(Clone, Debug)]
pub struct RouterOptions {
    /// Replica listen addresses; index order is the ring's replica-id
    /// space (retry traces name replicas by index, so traces reproduce
    /// across runs even though ports differ).
    pub replicas: Vec<String>,
    /// Virtual nodes per replica on the hash ring; more vnodes smooth the
    /// key distribution at O(replicas × vnodes log ·) lookup cost.
    pub vnodes: usize,
    /// Active `Health` probe cadence.
    pub probe_interval: Duration,
    /// Per-probe dial+reply budget.
    pub probe_timeout: Duration,
    /// TCP connect budget per forward dial (also capped by the request's
    /// remaining deadline).
    pub dial_timeout: Duration,
    /// Consecutive failures that demote `Up` to `Degraded`.
    pub degrade_after: u32,
    /// Consecutive failures that demote any state to `Down`.
    pub down_after: u32,
    /// Consecutive successes that promote a non-`Up` replica back to
    /// `Up`.
    pub revive_after: u32,
    /// Deadline budget for requests that carry none of their own — the
    /// router always propagates *some* budget so a dead replica cannot
    /// hang a client forever.
    pub default_deadline: Duration,
    /// First-retry backoff base (doubles per attempt).
    pub backoff_base: Duration,
    /// Backoff growth cap.
    pub backoff_cap: Duration,
    /// Enables hedged sends.
    pub hedge: bool,
    /// Latency quantile (of router-observed solve latencies) that arms
    /// the hedge timer.
    pub hedge_quantile: f64,
    /// Floor on the hedge trigger delay, so a cold histogram cannot hedge
    /// every request.
    pub hedge_min: Duration,
    /// Minimum latency samples before hedging activates.
    pub hedge_warmup: u64,
    /// Deterministic jitter seed (see [`resolve_seed`]).
    pub seed: u64,
    /// Idle pooled connections kept per replica.
    pub pool_cap: usize,
    /// Client-connection cap; connections past it are shed at accept. It
    /// also caps the routed requests in flight: past it a request is
    /// answered `"shed"` at once.
    pub max_conns: usize,
    /// Housekeeping tick of the connection loop: how often it checks the
    /// shutdown flag and the stall timeouts.
    pub poll: Duration,
    /// Budget for a mid-line client read stall before the connection is
    /// dropped.
    pub read_timeout: Duration,
    /// How long a client may leave its responses undrained before the
    /// connection is dropped.
    pub write_timeout: Duration,
    /// How long shutdown waits for in-flight client connections.
    pub grace: Duration,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            replicas: Vec::new(),
            vnodes: 64,
            probe_interval: Duration::from_millis(250),
            probe_timeout: Duration::from_secs(1),
            dial_timeout: Duration::from_secs(1),
            degrade_after: 2,
            down_after: 4,
            revive_after: 2,
            default_deadline: Duration::from_secs(2),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(100),
            hedge: false,
            hedge_quantile: 0.99,
            hedge_min: Duration::from_millis(20),
            hedge_warmup: 32,
            seed: DEFAULT_SEED,
            pool_cap: 8,
            max_conns: 1024,
            poll: Duration::from_millis(50),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            grace: Duration::from_secs(5),
        }
    }
}

/// The consistent-hash ring: sorted vnode points, each owned by a replica
/// index. Built once — liveness is filtered at lookup, not by rebuilding.
struct Ring {
    points: Vec<(u64, u32)>,
}

impl Ring {
    fn new(replicas: usize, vnodes: usize) -> Ring {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(replicas * vnodes);
        for r in 0..replicas {
            let base = splitmix64(r as u64 + 1);
            for v in 0..vnodes {
                points.push((splitmix64(base ^ (v as u64) << 1), r as u32));
            }
        }
        points.sort_unstable();
        Ring { points }
    }

    /// Every replica index in clockwise order from `key`'s ring position:
    /// the first entry owns the key, the rest are its failover chain.
    fn order_for(&self, key: u128, replicas: usize) -> Vec<usize> {
        let h = ring_hash(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut seen = vec![false; replicas];
        let mut order = Vec::with_capacity(replicas);
        for i in 0..self.points.len() {
            let (_, r) = self.points[(start + i) % self.points.len()];
            let r = r as usize;
            if !seen[r] {
                seen[r] = true;
                order.push(r);
                if order.len() == replicas {
                    break;
                }
            }
        }
        order
    }
}

/// Mutable health view of one replica.
struct HealthView {
    state: RingState,
    consecutive_failures: u32,
    consecutive_successes: u32,
    /// Replica-reported drain age (ms) at the last probe.
    draining_for_ms: u64,
}

struct Replica {
    addr: String,
    health: Mutex<HealthView>,
    pool: Mutex<Vec<TcpStream>>,
    in_flight: AtomicU64,
}

impl Replica {
    fn new(addr: String) -> Replica {
        Replica {
            addr,
            health: Mutex::new(HealthView {
                state: RingState::Up,
                consecutive_failures: 0,
                consecutive_successes: 0,
                draining_for_ms: 0,
            }),
            pool: Mutex::new(Vec::new()),
            in_flight: AtomicU64::new(0),
        }
    }

    fn state(&self) -> RingState {
        lock_recover(&self.health).state
    }

    /// Passive failure signal (failed dial/forward, or a failed probe).
    fn note_failure(&self, opts: &RouterOptions) {
        let mut h = lock_recover(&self.health);
        h.consecutive_successes = 0;
        h.consecutive_failures = h.consecutive_failures.saturating_add(1);
        if h.consecutive_failures >= opts.down_after {
            h.state = RingState::Down;
        } else if h.state == RingState::Up && h.consecutive_failures >= opts.degrade_after {
            h.state = RingState::Degraded;
        }
    }

    /// Passive success signal (a forward completed). Revives `Degraded`
    /// and `Down`, but never clears `Draining` — only a probe that sees
    /// the replica ready again does that (in-flight answers during a
    /// drain are expected and do not mean it accepts new work).
    fn note_success(&self, opts: &RouterOptions) {
        let mut h = lock_recover(&self.health);
        h.consecutive_failures = 0;
        h.consecutive_successes = h.consecutive_successes.saturating_add(1);
        if matches!(h.state, RingState::Degraded | RingState::Down)
            && h.consecutive_successes >= opts.revive_after
        {
            h.state = RingState::Up;
        }
    }

    /// Probe observed the replica serving and accepting: the only signal
    /// that clears `Draining` (a restarted process on the same address).
    fn probe_ready(&self, opts: &RouterOptions) {
        let mut h = lock_recover(&self.health);
        h.consecutive_failures = 0;
        h.consecutive_successes = h.consecutive_successes.saturating_add(1);
        if h.state != RingState::Up && h.consecutive_successes >= opts.revive_after {
            h.state = RingState::Up;
            h.draining_for_ms = 0;
        }
    }

    /// Probe observed a drain announcement.
    fn mark_draining(&self, reported_ms: u64) {
        let mut h = lock_recover(&self.health);
        h.state = RingState::Draining;
        h.draining_for_ms = reported_ms;
        h.consecutive_successes = 0;
    }

    fn status(&self) -> ReplicaStatus {
        let h = lock_recover(&self.health);
        ReplicaStatus {
            addr: self.addr.clone(),
            state: h.state.as_str().to_string(),
            consecutive_failures: u64::from(h.consecutive_failures),
            draining_since_ms: if h.state == RingState::Draining {
                h.draining_for_ms
            } else {
                0
            },
            in_flight: self.in_flight.load(Ordering::Acquire),
        }
    }
}

/// Decrements a replica's in-flight gauge on scope exit, so early returns
/// and panics cannot leak the count.
struct InFlightGuard<'a>(&'a AtomicU64);

impl<'a> InFlightGuard<'a> {
    fn new(counter: &'a AtomicU64) -> Self {
        counter.fetch_add(1, Ordering::AcqRel);
        InFlightGuard(counter)
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    retries: AtomicU64,
    hedges_fired: AtomicU64,
    hedges_won: AtomicU64,
    rejected: AtomicU64,
}

struct Inner {
    opts: RouterOptions,
    replicas: Vec<Replica>,
    ring: Ring,
    latencies: Mutex<LatencyHistogram>,
    stats: Stats,
    trace: Mutex<Vec<String>>,
}

/// How one forward attempt failed.
enum ForwardFail {
    /// Could not connect (or an injected `router.dial` error).
    Dial(std::io::Error),
    /// The connection died mid-exchange — retrying elsewhere is safe even
    /// for an admitted request.
    Died(std::io::Error),
    /// The read stalled to the request's deadline on a *live* connection;
    /// the replica may have admitted the request, so this is final (no
    /// failover), answered as a structured timeout.
    DeadlineStall,
}

impl ForwardFail {
    fn event(&self) -> &'static str {
        match self {
            ForwardFail::Dial(_) => "dial_fail",
            ForwardFail::Died(_) => "conn_died",
            ForwardFail::DeadlineStall => "deadline_stall",
        }
    }

    /// Human-readable detail for the client-facing error message (never
    /// for traces — transport errors carry nondeterministic detail like
    /// ports).
    fn detail(&self) -> String {
        match self {
            ForwardFail::Dial(e) => format!("dial failed: {e}"),
            ForwardFail::Died(e) => format!("connection died: {e}"),
            ForwardFail::DeadlineStall => "read stalled to the deadline".to_string(),
        }
    }
}

/// What one hedged leg reports back: which replica it raced, and either
/// the raw reply line with its observed latency or the failure that ended
/// the leg.
type LegOutcome = (usize, Result<(String, Duration), ForwardFail>);

/// Cancellation handle for one hedged leg: the losing leg's socket is
/// shut down (unblocking its read), and the flag stops the loser from
/// counting its induced error as a replica failure.
#[derive(Default)]
struct LegCtl {
    conn: Mutex<Option<TcpStream>>,
    cancelled: AtomicBool,
}

impl LegCtl {
    fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
        if let Some(conn) = lock_recover(&self.conn).as_ref() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// The consistent-hash replica router. Cheap to clone (shared state);
/// every clone routes over the same ring, health views, and pools.
#[derive(Clone)]
pub struct Router {
    inner: Arc<Inner>,
}

impl Router {
    /// Builds a router over `opts.replicas`.
    ///
    /// # Panics
    /// When the replica list is empty — an unroutable configuration.
    #[must_use]
    pub fn new(opts: RouterOptions) -> Router {
        assert!(
            !opts.replicas.is_empty(),
            "router needs at least one replica address"
        );
        let ring = Ring::new(opts.replicas.len(), opts.vnodes);
        let replicas = opts.replicas.iter().cloned().map(Replica::new).collect();
        Router {
            inner: Arc::new(Inner {
                opts,
                replicas,
                ring,
                latencies: Mutex::new(LatencyHistogram::default()),
                stats: Stats::default(),
                trace: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The configuration this router was built with.
    #[must_use]
    pub fn options(&self) -> &RouterOptions {
        &self.inner.opts
    }

    /// Current health state of every replica, in configured order.
    #[must_use]
    pub fn replica_states(&self) -> Vec<RingState> {
        self.inner.replicas.iter().map(Replica::state).collect()
    }

    /// Drains and returns the retry trace accumulated so far. Entries are
    /// pure functions of (seed, request keys, failure script), so two
    /// identical chaos replays yield identical traces when requests are
    /// issued sequentially.
    #[must_use]
    pub fn take_trace(&self) -> Vec<String> {
        std::mem::take(&mut *lock_recover(&self.inner.trace))
    }

    /// Counts a request the router rejected without routing it: the
    /// connection loop's `shed` once `max_conns` requests are in flight.
    pub(crate) fn count_rejected(&self) {
        self.inner.stats.rejected.fetch_add(1, Ordering::AcqRel);
    }

    /// The router's replica-set view and counters (the `Health` answer).
    #[must_use]
    pub fn ring_reply(&self) -> RingReply {
        RingReply {
            replicas: self.inner.replicas.iter().map(Replica::status).collect(),
            requests: self.inner.stats.requests.load(Ordering::Acquire),
            retries: self.inner.stats.retries.load(Ordering::Acquire),
            hedges_fired: self.inner.stats.hedges_fired.load(Ordering::Acquire),
            hedges_won: self.inner.stats.hedges_won.load(Ordering::Acquire),
            rejected: self.inner.stats.rejected.load(Ordering::Acquire),
        }
    }

    /// Routes one solve across the ring with failover, backoff, and
    /// (optionally) hedging. Always returns *something*: a relayed
    /// replica answer, or a structured router-side error — never hangs
    /// past the deadline budget and never silently drops.
    pub fn route_solve(&self, solve: &SolveRequest) -> WireResponse {
        self.inner.stats.requests.fetch_add(1, Ordering::AcqRel);
        let key = canonical_key(&solve.instance).0;
        let budget = solve
            .deadline_ms
            .map_or(self.inner.opts.default_deadline, Duration::from_millis);
        let deadline = saturating_deadline(Instant::now(), budget);
        let order = self.inner.ring.order_for(key, self.inner.replicas.len());
        let candidates = self.live_or_all(&order);
        let mut attempts: u32 = 0;
        let mut last_fail: Option<String> = None;
        for (slot, &idx) in candidates.iter().enumerate() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let attempt = slot as u32;
            attempts = attempt + 1;
            if slot > 0 {
                self.inner.stats.retries.fetch_add(1, Ordering::AcqRel);
            }
            let line = self.encode_forward(solve, deadline.saturating_duration_since(now));
            // Hedge only the first attempt; a retry is already a second
            // send.
            let hedge_with = if slot == 0 {
                candidates.get(1).copied()
            } else {
                None
            };
            match self.attempt(idx, hedge_with, key, attempt, &line, deadline) {
                Ok((winner, raw)) => match decode_response_line(&raw) {
                    Ok((_, WireResponse::Error(e))) if e.kind == ErrorKind::Shed => {
                        // Shed means *not admitted*: safe and correct to
                        // fail over.
                        self.trace(key, attempt, winner, "shed", Duration::ZERO);
                    }
                    Ok((_, response)) => {
                        self.trace(key, attempt, winner, "ok", Duration::ZERO);
                        return response;
                    }
                    Err(_) => {
                        // Garbage reply: treat like a torn connection.
                        self.inner.replicas[winner].note_failure(&self.inner.opts);
                        self.trace(key, attempt, winner, "bad_reply", Duration::ZERO);
                    }
                },
                Err(ForwardFail::DeadlineStall) => {
                    self.trace(key, attempt, idx, "deadline_stall", Duration::ZERO);
                    self.inner.stats.rejected.fetch_add(1, Ordering::AcqRel);
                    return wire_error(
                        ErrorKind::Timeout,
                        format!(
                            "deadline budget ({} ms) exhausted waiting on replica {idx}",
                            budget.as_millis()
                        ),
                    );
                }
                Err(fail) => {
                    let backoff = self.backoff(key, attempt, deadline);
                    self.trace(key, attempt, idx, fail.event(), backoff);
                    last_fail = Some(format!("replica {idx}: {}", fail.detail()));
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
            }
        }
        self.inner.stats.rejected.fetch_add(1, Ordering::AcqRel);
        if attempts == 0 {
            wire_error(
                ErrorKind::Timeout,
                format!(
                    "deadline budget ({} ms) exhausted before any replica could be tried",
                    budget.as_millis()
                ),
            )
        } else {
            let detail = last_fail.map_or_else(String::new, |d| format!("; last failure: {d}"));
            wire_error(
                ErrorKind::Timeout,
                format!(
                    "deadline budget ({} ms) exhausted after {attempts} attempt(s){detail}",
                    budget.as_millis()
                ),
            )
        }
    }

    /// The failover order filtered to live replicas — or, when the whole
    /// ring looks dark, the unfiltered order as a last-ditch pass (probes
    /// may simply not have seen a recovery yet).
    fn live_or_all(&self, order: &[usize]) -> Vec<usize> {
        let live: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| self.inner.replicas[i].state().is_live())
            .collect();
        if live.is_empty() {
            order.to_vec()
        } else {
            live
        }
    }

    /// Re-encodes a solve with the *remaining* deadline budget, so every
    /// hop sees how much time is actually left.
    fn encode_forward(&self, solve: &SolveRequest, remaining: Duration) -> String {
        let forwarded = WireRequest::Solve(SolveRequest {
            instance: solve.instance.clone(),
            deadline_ms: Some((remaining.as_millis() as u64).max(1)),
            kernel: solve.kernel,
        });
        serde_json::to_string(&forwarded).unwrap_or_else(|e| {
            format!("{{\"Error\":{{\"kind\":\"internal\",\"message\":\"encode failed: {e}\"}}}}")
        })
    }

    /// Jittered exponential backoff for retry `attempt` of `key`: a pure
    /// function of (seed, key, attempt), clamped to the remaining budget.
    fn backoff(&self, key: u128, attempt: u32, deadline: Instant) -> Duration {
        let opts = &self.inner.opts;
        let base = opts
            .backoff_base
            .saturating_mul(1u32 << attempt.min(6))
            .min(opts.backoff_cap);
        let mix = splitmix64(
            opts.seed
                ^ (key as u64)
                ^ ((key >> 64) as u64)
                ^ u64::from(attempt).wrapping_mul(0x9e37_79b9),
        );
        let base_us = base.as_micros() as u64;
        // Jitter in [base/2, base): exact integer arithmetic, no floats.
        let jittered = base_us / 2 + (base_us / 2).saturating_mul(mix % 1024) / 1024;
        Duration::from_micros(jittered).min(deadline.saturating_duration_since(Instant::now()))
    }

    fn trace(&self, key: u128, attempt: u32, replica: usize, event: &str, backoff: Duration) {
        let mut trace = lock_recover(&self.inner.trace);
        if trace.len() >= TRACE_CAP {
            return;
        }
        trace.push(format!(
            "key={key:032x} attempt={attempt} replica={replica} event={event} backoff_us={}",
            backoff.as_micros()
        ));
    }

    /// One attempt slot: a plain forward, or — when `hedge_with` names a
    /// second live replica and the histogram is warm — a hedged pair.
    fn attempt(
        &self,
        primary: usize,
        hedge_with: Option<usize>,
        key: u128,
        attempt: u32,
        line: &str,
        deadline: Instant,
    ) -> Result<(usize, String), ForwardFail> {
        if let (Some(secondary), Some(delay)) = (hedge_with, self.hedge_delay()) {
            return self.attempt_hedged(primary, secondary, key, attempt, line, delay, deadline);
        }
        let started = Instant::now();
        match self.forward_once(primary, line, deadline) {
            Ok(raw) => {
                self.inner.replicas[primary].note_success(&self.inner.opts);
                self.record_latency(started.elapsed());
                Ok((primary, raw))
            }
            Err(fail) => {
                if !matches!(fail, ForwardFail::DeadlineStall) {
                    self.inner.replicas[primary].note_failure(&self.inner.opts);
                }
                Err(fail)
            }
        }
    }

    /// The hedge trigger delay, or `None` while hedging is disabled or
    /// the latency histogram is still cold.
    fn hedge_delay(&self) -> Option<Duration> {
        let opts = &self.inner.opts;
        if !opts.hedge {
            return None;
        }
        let histogram = lock_recover(&self.inner.latencies);
        if histogram.count < opts.hedge_warmup {
            return None;
        }
        Some(Duration::from_micros(histogram.quantile(opts.hedge_quantile)).max(opts.hedge_min))
    }

    fn record_latency(&self, latency: Duration) {
        lock_recover(&self.inner.latencies)
            .record(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Hedged pair: primary fires immediately; if it has not answered
    /// within `delay`, the same line goes to `secondary` and the first
    /// answer wins. The loser is cancelled (socket shutdown) and its
    /// connection never pools.
    #[allow(clippy::too_many_arguments)]
    fn attempt_hedged(
        &self,
        primary: usize,
        secondary: usize,
        key: u128,
        attempt: u32,
        line: &str,
        delay: Duration,
        deadline: Instant,
    ) -> Result<(usize, String), ForwardFail> {
        let (tx, rx) = mpsc::channel();
        let primary_ctl = Arc::new(LegCtl::default());
        let secondary_ctl = Arc::new(LegCtl::default());
        self.spawn_leg(primary, line, deadline, &primary_ctl, &tx);
        let first =
            match rx.recv_timeout(delay.min(deadline.saturating_duration_since(Instant::now()))) {
                Ok(arrival) => Some(arrival),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(ForwardFail::Died(std::io::Error::other("hedge leg lost")))
                }
            };
        if let Some((idx, result)) = first {
            // Primary settled before the hedge timer: no second send.
            return match result {
                Ok((raw, latency)) => {
                    self.record_latency(latency);
                    Ok((idx, raw))
                }
                Err(fail) => Err(fail),
            };
        }
        // Hedge fires.
        self.inner.stats.hedges_fired.fetch_add(1, Ordering::AcqRel);
        self.trace(key, attempt, secondary, "hedge_fire", Duration::ZERO);
        self.spawn_leg(secondary, line, deadline, &secondary_ctl, &tx);
        let mut pending = 2u32;
        let mut first_fail: Option<ForwardFail> = None;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                primary_ctl.cancel();
                secondary_ctl.cancel();
                return Err(ForwardFail::DeadlineStall);
            }
            match rx.recv_timeout(remaining) {
                Ok((idx, Ok((raw, latency)))) => {
                    self.record_latency(latency);
                    if idx == secondary {
                        self.inner.stats.hedges_won.fetch_add(1, Ordering::AcqRel);
                        primary_ctl.cancel();
                    } else {
                        secondary_ctl.cancel();
                    }
                    return Ok((idx, raw));
                }
                Ok((_, Err(fail))) => {
                    pending -= 1;
                    if pending == 0 {
                        return Err(first_fail.unwrap_or(fail));
                    }
                    first_fail.get_or_insert(fail);
                }
                Err(_) => {
                    primary_ctl.cancel();
                    secondary_ctl.cancel();
                    return Err(ForwardFail::DeadlineStall);
                }
            }
        }
    }

    /// Fires one hedged leg on its own thread: always a fresh dial (so
    /// the cancel handle owns the only pooled-state-free socket), result
    /// delivered over `tx`.
    fn spawn_leg(
        &self,
        idx: usize,
        line: &str,
        deadline: Instant,
        ctl: &Arc<LegCtl>,
        tx: &mpsc::Sender<LegOutcome>,
    ) {
        let router = self.clone();
        let line = line.to_string();
        let ctl = Arc::clone(ctl);
        let tx = tx.clone();
        std::thread::spawn(move || {
            let result = router.leg_forward(idx, &line, deadline, &ctl);
            let _ = tx.send((idx, result));
        });
    }

    fn leg_forward(
        &self,
        idx: usize,
        line: &str,
        deadline: Instant,
        ctl: &LegCtl,
    ) -> Result<(String, Duration), ForwardFail> {
        let replica = &self.inner.replicas[idx];
        let _guard = InFlightGuard::new(&replica.in_flight);
        let started = Instant::now();
        let conn = self.dial(idx, deadline).map_err(ForwardFail::Dial)?;
        *lock_recover(&ctl.conn) = conn.try_clone().ok();
        let mut conn = conn;
        match self.send_recv(&mut conn, line, deadline) {
            Ok(raw) => {
                replica.note_success(&self.inner.opts);
                if !ctl.cancelled.load(Ordering::Acquire) {
                    self.checkin(idx, conn);
                }
                Ok((raw, started.elapsed()))
            }
            Err(e) => {
                if ctl.cancelled.load(Ordering::Acquire) {
                    // Our own shutdown, not the replica's fault.
                    return Err(ForwardFail::Died(e));
                }
                let fail = Self::classify(e, deadline);
                if !matches!(fail, ForwardFail::DeadlineStall) {
                    replica.note_failure(&self.inner.opts);
                }
                Err(fail)
            }
        }
    }

    /// One complete request/response exchange with a replica, preferring
    /// a pooled connection. A pooled connection that *died* (the replica
    /// closed it while idle) rolls over to a fresh dial; a pooled read
    /// that merely stalled does not — the request may be admitted, and
    /// resending it over a new connection would double-solve it.
    fn forward_once(
        &self,
        idx: usize,
        line: &str,
        deadline: Instant,
    ) -> Result<String, ForwardFail> {
        let replica = &self.inner.replicas[idx];
        let _guard = InFlightGuard::new(&replica.in_flight);
        // The pop must not borrow the pool across the exchange: an `if
        // let` scrutinee's temporary guard lives to the end of the block,
        // and `checkin` relocks the same (non-reentrant) pool mutex.
        let pooled = lock_recover(&replica.pool).pop();
        if let Some(mut pooled) = pooled {
            match self.send_recv(&mut pooled, line, deadline) {
                Ok(raw) => {
                    self.checkin(idx, pooled);
                    return Ok(raw);
                }
                Err(e) if e.kind() == IoErrorKind::TimedOut => {
                    return Err(Self::classify(e, deadline));
                }
                Err(_) => {} // stale pooled conn: fall through to a fresh dial
            }
        }
        let mut conn = self.dial(idx, deadline).map_err(|e| {
            if Instant::now() >= deadline {
                ForwardFail::DeadlineStall
            } else {
                ForwardFail::Dial(e)
            }
        })?;
        match self.send_recv(&mut conn, line, deadline) {
            Ok(raw) => {
                self.checkin(idx, conn);
                Ok(raw)
            }
            Err(e) => Err(Self::classify(e, deadline)),
        }
    }

    fn classify(e: std::io::Error, deadline: Instant) -> ForwardFail {
        if e.kind() == IoErrorKind::TimedOut && Instant::now() >= deadline {
            ForwardFail::DeadlineStall
        } else {
            ForwardFail::Died(e)
        }
    }

    fn dial(&self, idx: usize, deadline: Instant) -> std::io::Result<TcpStream> {
        krsp_failpoint::fail_point!("router.dial", |msg| Err(std::io::Error::other(msg)));
        let replica = &self.inner.replicas[idx];
        let addr: SocketAddr =
            replica.addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::other(format!("{} resolves nowhere", replica.addr))
            })?;
        let timeout = self
            .inner
            .opts
            .dial_timeout
            .min(deadline.saturating_duration_since(Instant::now()))
            .max(Duration::from_millis(1));
        let conn = TcpStream::connect_timeout(&addr, timeout)?;
        let _ = conn.set_nodelay(true);
        Ok(conn)
    }

    /// Writes `line` and reads exactly one reply line, bounded by
    /// `deadline`. A stall surfaces as `TimedOut` (see [`ForwardFail`]).
    fn send_recv(
        &self,
        conn: &mut TcpStream,
        line: &str,
        deadline: Instant,
    ) -> std::io::Result<String> {
        krsp_failpoint::fail_point!("router.forward", |msg| Err(std::io::Error::other(msg)));
        let remaining = deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1));
        conn.set_write_timeout(Some(remaining))?;
        write_line(conn, line)?;
        conn.flush()?;
        conn.set_read_timeout(Some(READ_TICK))?;
        let mut reader = BufReader::new(&mut *conn);
        match read_line_capped(&mut reader, MAX_LINE_BYTES, deadline)? {
            LineRead::Line(raw) => String::from_utf8(raw)
                .map_err(|_| std::io::Error::other("replica sent a non-UTF-8 reply")),
            LineRead::TooLong => Err(std::io::Error::other("replica reply exceeds the line cap")),
            LineRead::Eof => Err(std::io::Error::new(
                IoErrorKind::UnexpectedEof,
                "replica closed the connection mid-request",
            )),
        }
    }

    /// Returns a healthy connection to the replica's pool (bounded).
    fn checkin(&self, idx: usize, conn: TcpStream) {
        let mut pool = lock_recover(&self.inner.replicas[idx].pool);
        if pool.len() < self.inner.opts.pool_cap {
            pool.push(conn);
        }
    }

    /// Forwards a `Metrics` request to the first live replica (the ring
    /// has no aggregate metrics; per-replica counters are what exist).
    pub(crate) fn forward_metrics(&self) -> WireResponse {
        let deadline = saturating_deadline(Instant::now(), self.inner.opts.default_deadline);
        let all: Vec<usize> = (0..self.inner.replicas.len()).collect();
        for idx in self.live_or_all(&all) {
            if let Ok(raw) = self.forward_once(idx, "\"Metrics\"", deadline) {
                if let Ok((_, response)) = decode_response_line(&raw) {
                    return response;
                }
            }
        }
        wire_error(ErrorKind::Internal, "no replica answered Metrics")
    }

    /// Broadcasts a `Register`/`Epoch` request to every non-`Down`
    /// replica, so each one's epoch-scoped caches track the lineage, and
    /// merges the replies (`Register`: the first digest, which is
    /// content-addressed and therefore identical everywhere; `Epoch`:
    /// max epoch, summed sweep counters).
    pub(crate) fn broadcast(&self, request: &WireRequest) -> WireResponse {
        let line = match serde_json::to_string(request) {
            Ok(line) => line,
            Err(e) => return wire_error(ErrorKind::Internal, format!("encode failed: {e}")),
        };
        let deadline = saturating_deadline(Instant::now(), self.inner.opts.default_deadline);
        let mut registered: Option<RegisteredReply> = None;
        let mut epoch: Option<EpochReply> = None;
        let mut last_error: Option<WireResponse> = None;
        let mut reached = 0u32;
        for (idx, replica) in self.inner.replicas.iter().enumerate() {
            if replica.state() == RingState::Down {
                continue;
            }
            match self.forward_once(idx, &line, deadline) {
                Ok(raw) => match decode_response_line(&raw) {
                    Ok((_, WireResponse::Registered(r))) => {
                        reached += 1;
                        registered.get_or_insert(r);
                    }
                    Ok((_, WireResponse::Epoch(e))) => {
                        reached += 1;
                        match &mut epoch {
                            None => epoch = Some(e),
                            Some(merged) => {
                                merged.epoch = merged.epoch.max(e.epoch);
                                merged.retained += e.retained;
                                merged.evicted += e.evicted;
                                merged.seeds += e.seeds;
                            }
                        }
                    }
                    Ok((_, other)) => {
                        last_error = Some(other);
                    }
                    Err(_) => replica.note_failure(&self.inner.opts),
                },
                Err(ForwardFail::DeadlineStall) => {}
                Err(_) => replica.note_failure(&self.inner.opts),
            }
        }
        if let Some(r) = registered {
            WireResponse::Registered(r)
        } else if let Some(e) = epoch {
            WireResponse::Epoch(e)
        } else if let Some(err) = last_error {
            err
        } else {
            wire_error(
                ErrorKind::Internal,
                format!("broadcast reached {reached} replicas, none answered"),
            )
        }
    }

    /// One active-probe sweep over every replica, applying state
    /// transitions. Called by the prober thread; exposed so tests can
    /// drive the state machine without timing races.
    pub fn probe_all_once(&self) {
        for idx in 0..self.inner.replicas.len() {
            let replica = &self.inner.replicas[idx];
            match self.probe_health(idx) {
                Ok(health) => {
                    let draining =
                        health.status == HealthStatus::Draining || health.accepting == Some(false);
                    if draining {
                        replica.mark_draining(health.draining_since_ms.unwrap_or(0));
                    } else {
                        replica.probe_ready(&self.inner.opts);
                    }
                }
                Err(_) => replica.note_failure(&self.inner.opts),
            }
        }
    }

    /// One `Health` probe round-trip on a dedicated connection. Dials
    /// directly (not through `router.dial`) so chaos scripts can fail
    /// forwards and probes independently.
    fn probe_health(&self, idx: usize) -> std::io::Result<HealthReply> {
        krsp_failpoint::fail_point!("router.probe", |msg| Err(std::io::Error::other(msg)));
        let opts = &self.inner.opts;
        let deadline = saturating_deadline(Instant::now(), opts.probe_timeout);
        let replica = &self.inner.replicas[idx];
        let addr: SocketAddr =
            replica.addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::other(format!("{} resolves nowhere", replica.addr))
            })?;
        let mut conn = TcpStream::connect_timeout(&addr, opts.probe_timeout)?;
        conn.set_write_timeout(Some(opts.probe_timeout))?;
        conn.write_all(b"\"Health\"\n")?;
        conn.flush()?;
        conn.set_read_timeout(Some(READ_TICK))?;
        let mut reader = BufReader::new(&mut conn);
        let raw = match read_line_capped(&mut reader, MAX_LINE_BYTES, deadline)? {
            LineRead::Line(raw) => raw,
            LineRead::TooLong | LineRead::Eof => {
                return Err(std::io::Error::other("probe got no reply line"))
            }
        };
        let text = String::from_utf8(raw).map_err(|_| std::io::Error::other("non-UTF-8 probe"))?;
        match decode_response_line(&text) {
            Ok((_, WireResponse::Health(health))) => Ok(health),
            Ok((_, other)) => Err(std::io::Error::other(format!(
                "probe expected Health, got {other:?}"
            ))),
            Err(e) => Err(std::io::Error::other(e)),
        }
    }

    /// Spawns the active-probe loop; it sweeps every
    /// [`RouterOptions::probe_interval`] until `shutdown` flips.
    pub fn spawn_prober(&self, shutdown: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
        let router = self.clone();
        std::thread::spawn(move || {
            while !shutdown.load(Ordering::Acquire) {
                router.probe_all_once();
                // Sleep in small ticks so shutdown stays prompt.
                let mut slept = Duration::ZERO;
                let interval = router.inner.opts.probe_interval;
                while slept < interval && !shutdown.load(Ordering::Acquire) {
                    let tick = Duration::from_millis(20).min(interval - slept);
                    std::thread::sleep(tick);
                    slept += tick;
                }
            }
        })
    }
}

/// Serves the router on `listener` until `shutdown` flips, on the same
/// connection loop as a replica (see [`crate::serve_with_shutdown`]) with
/// the ring as its backend, plus the active prober. The loop's options
/// come from [`RouterOptions::max_conns`], `poll`, `read_timeout`,
/// `write_timeout` and `grace`; `max_conns` also bounds the routed
/// requests in flight. On shutdown the listener closes, in-flight client
/// requests get [`RouterOptions::grace`] to finish, and the prober joins.
#[cfg(unix)]
pub fn serve_ring_with_shutdown(
    router: &Router,
    listener: std::net::TcpListener,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<()> {
    let opts = router.options();
    let serve = crate::proto::ServeOptions {
        read_timeout: opts.read_timeout,
        write_timeout: opts.write_timeout,
        grace: opts.grace,
        poll: opts.poll,
        max_conns: opts.max_conns,
        // The router caps connections in total, not per client address.
        per_client_conns: opts.max_conns,
        ..crate::proto::ServeOptions::default()
    };
    let prober = router.spawn_prober(Arc::clone(&shutdown));
    crate::frontend::serve(
        crate::frontend::Backend::Router(router.clone()),
        listener,
        shutdown,
        serve,
    )?;
    let _ = prober.join();
    Ok(())
}

#[cfg(test)]
// Tests may unwrap: a panic is exactly the failure report we want there.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn opts(n: usize) -> RouterOptions {
        RouterOptions {
            replicas: (0..n).map(|i| format!("127.0.0.1:{}", 49000 + i)).collect(),
            ..RouterOptions::default()
        }
    }

    #[test]
    fn ring_order_is_deterministic_and_complete() {
        let ring = Ring::new(5, 64);
        for key in [0u128, 1, 42, u128::MAX, 0xdead_beef] {
            let a = ring.order_for(key, 5);
            let b = ring.order_for(key, 5);
            assert_eq!(a, b);
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "order {a:?} must cover all");
        }
    }

    #[test]
    fn ring_spreads_keys_across_replicas() {
        let ring = Ring::new(4, 64);
        let mut owners: HashMap<usize, usize> = HashMap::new();
        for i in 0u128..4096 {
            let key = u128::from(splitmix64(i as u64)) << 64 | u128::from(splitmix64(!(i as u64)));
            *owners.entry(ring.order_for(key, 4)[0]).or_default() += 1;
        }
        // With 64 vnodes each replica should own a meaningful share; the
        // bound is loose on purpose (hash distribution, not balance).
        for idx in 0..4 {
            let share = owners.get(&idx).copied().unwrap_or(0);
            assert!(share > 4096 / 16, "replica {idx} owns only {share}/4096");
        }
    }

    #[test]
    fn dead_primary_spills_only_its_keys() {
        // Consistent hashing's contract: removing one replica from
        // eligibility must not move keys whose owner is still live.
        let ring = Ring::new(4, 64);
        for i in 0u128..512 {
            let key = u128::from(splitmix64(i as u64));
            let order = ring.order_for(key, 4);
            let survivors: Vec<usize> = order.iter().copied().filter(|&r| r != 3).collect();
            if order[0] != 3 {
                assert_eq!(order[0], survivors[0], "live key {i} must not move");
            } else {
                assert_eq!(order[1], survivors[0], "dead key {i} goes to its successor");
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let router = Router::new(opts(2));
        let far = saturating_deadline(Instant::now(), Duration::from_secs(3600));
        let key = 0x1234_5678_9abc_def0_u128;
        let a = router.backoff(key, 0, far);
        let b = router.backoff(key, 0, far);
        assert_eq!(a, b, "same (seed, key, attempt) must give the same jitter");
        let base = router.options().backoff_base;
        assert!(
            a >= base / 2 && a < base,
            "attempt 0 jitter in [base/2, base)"
        );
        let late = router.backoff(key, 6, far);
        assert!(late <= router.options().backoff_cap);
        assert!(late >= router.options().backoff_cap / 2);
        // Different keys jitter differently (with overwhelming odds).
        let c = router.backoff(key ^ 1, 0, far);
        assert!(a != c || router.backoff(key ^ 2, 0, far) != a);
    }

    #[test]
    fn backoff_respects_the_deadline() {
        let router = Router::new(opts(1));
        let near = saturating_deadline(Instant::now(), Duration::from_micros(100));
        assert!(router.backoff(7, 5, near) <= Duration::from_micros(100));
    }

    #[test]
    fn seed_precedence_flag_env_default() {
        assert_eq!(seed_from(Some(9), Some("4".into())), 9);
        assert_eq!(seed_from(None, Some("4".into())), 4);
        assert_eq!(seed_from(None, Some(" 17 ".into())), 17);
        assert_eq!(seed_from(None, Some("nope".into())), DEFAULT_SEED);
        assert_eq!(seed_from(None, None), DEFAULT_SEED);
    }

    #[test]
    fn state_machine_degrades_downs_and_revives() {
        let o = opts(1);
        let replica = Replica::new("127.0.0.1:1".into());
        assert_eq!(replica.state(), RingState::Up);
        replica.note_failure(&o);
        assert_eq!(replica.state(), RingState::Up);
        replica.note_failure(&o);
        assert_eq!(replica.state(), RingState::Degraded);
        replica.note_failure(&o);
        replica.note_failure(&o);
        assert_eq!(replica.state(), RingState::Down);
        replica.note_success(&o);
        assert_eq!(replica.state(), RingState::Down);
        replica.note_success(&o);
        assert_eq!(replica.state(), RingState::Up);
    }

    #[test]
    fn draining_clears_only_via_probe() {
        let o = opts(1);
        let replica = Replica::new("127.0.0.1:1".into());
        replica.mark_draining(1500);
        assert_eq!(replica.state(), RingState::Draining);
        assert_eq!(replica.status().draining_since_ms, 1500);
        // Passive successes (in-flight answers during the drain) must not
        // resurrect it for new sends.
        for _ in 0..8 {
            replica.note_success(&o);
        }
        assert_eq!(replica.state(), RingState::Draining);
        // A probe that sees it ready (restarted process) revives it.
        replica.probe_ready(&o);
        replica.probe_ready(&o);
        assert_eq!(replica.state(), RingState::Up);
        assert_eq!(replica.status().draining_since_ms, 0);
    }

    #[test]
    fn draining_replica_goes_down_when_it_stops_answering() {
        let o = opts(1);
        let replica = Replica::new("127.0.0.1:1".into());
        replica.mark_draining(10);
        for _ in 0..o.down_after {
            replica.note_failure(&o);
        }
        assert_eq!(replica.state(), RingState::Down);
    }
}
