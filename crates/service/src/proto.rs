//! The newline-delimited-JSON wire protocol and the replica server.
//!
//! One request per line, one response per line. The server (see
//! [`serve_with_shutdown`], unix only) is event-driven: a single reactor
//! thread (the vendored `krsp-reactor` epoll/poll loop) multiplexes every
//! connection, frames lines incrementally against [`MAX_LINE_BYTES`], and
//! dispatches solves to the service's worker pool, so thousands of
//! mostly-idle connections cost O(workers) threads — not one thread each.
//! The replica-ring router runs the same loop. The wire enums are
//! externally tagged, so a solve request looks like
//!
//! ```json
//! {"Solve": {"instance": {...}, "deadline_ms": 250}}
//! ```
//!
//! A solve payload may additionally carry `"kernel": "classic"` or
//! `"kernel": "interval"` to override the service's RSP-kernel ladder
//! (DESIGN.md §4.16) for that request; absent or `null` uses the server's
//! configured default, and the answering kernel is echoed back in every
//! solved reply.
//!
//! `"Metrics"` (a bare string) fetches a [`MetricsSnapshot`], and `"Health"`
//! fetches a [`HealthReply`] (ready/draining/shedding plus width and cache
//! counters) cheap enough for load-balancer probing. Malformed lines get
//! an `"Error"` response carrying a machine-readable [`ErrorKind`]
//! (`"parse"`, `"oversize_line"`, `"shed"`, `"rate_limited"`, `"timeout"`,
//! `"solver_panic"`, `"internal"`) so clients can implement retry policy
//! without string matching; the connection stays up.
//!
//! ## Pipelining and request ids
//!
//! Because solves complete on worker threads, responses on one connection
//! come back **in completion order, not submission order**. A map-shaped
//! request may carry an `"id"` member — any JSON value, opaque to the
//! server — and every response to it echoes that id back verbatim as an
//! `"id"` member, so clients can pipeline many in-flight requests and
//! match the replies ([`encode_request_with_id`] /
//! [`decode_response_line`] implement the client side). The bare-string
//! requests take an id in map form, `{"id":7,"Health":null}`. Requests
//! without an id get the unchanged historical wire format.
//!
//! [`serve_with_shutdown`] is the graceful entry point: on shutdown it
//! stops accepting, flips the service into drain mode (see
//! [`Service::begin_shutdown`]), answers the in-flight work, and bounds
//! the whole farewell by a grace period.

use crate::degrade::{Guarantee, Rung};
use crate::metrics::MetricsSnapshot;
use crate::service::{Rejection, Request, Response, Service};
use krsp::{Instance, KernelKind};
use serde::{Content, Deserialize, Serialize};
use std::io::{BufRead, ErrorKind as IoErrorKind, Write};
#[cfg(unix)]
use std::net::TcpListener;
#[cfg(unix)]
use std::sync::{atomic::AtomicBool, Arc};
use std::time::{Duration, Instant};

/// Hard cap on one request line. A line longer than this is rejected with
/// an [`WireResponse::Error`] and drained, instead of being buffered — an
/// unbounded line would otherwise let a single client OOM the daemon.
/// 8 MiB comfortably fits the largest instances `krsp-gen` emits (a few
/// hundred bytes per edge) while bounding per-connection memory.
pub const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// A request line.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum WireRequest {
    /// Provision paths for an instance.
    Solve(SolveRequest),
    /// Provision paths for many instances in one request line; each query
    /// is admitted, deadlined, and answered individually (one response
    /// line per query, matched by the query's `id`).
    SolveBatch(SolveBatchRequest),
    /// Fetch the service counters.
    Metrics,
    /// Cheap liveness/readiness probe for load balancers.
    Health,
    /// Register a topology lineage for epoch-scoped caching: later solves
    /// on this graph get weight-free cache keys, and [`WireRequest::Epoch`]
    /// can invalidate them selectively on weight updates.
    Register(RegisterRequest),
    /// Advance a registered lineage's epoch with a weight delta.
    Epoch(EpochRequest),
}

/// Payload of [`WireRequest::Register`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RegisterRequest {
    /// The topology (with its current weights) to track as a lineage.
    pub graph: krsp_graph::DiGraph,
}

/// Payload of [`WireRequest::Epoch`]: a weight-only delta against a
/// registered lineage.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EpochRequest {
    /// The lineage's structural digest as 32 hex digits — the `topo` a
    /// [`WireResponse::Registered`] reply handed back. (Hex because the
    /// digest is a `u128` and JSON integers top out well below that.)
    pub topo: String,
    /// The edges whose weights change, with their new values.
    pub changes: Vec<WireChange>,
}

/// One edge-weight mutation inside an [`EpochRequest`].
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WireChange {
    /// Index of the mutated edge in the lineage's edge array.
    pub edge: u32,
    /// New edge cost.
    pub cost: i64,
    /// New edge delay.
    pub delay: i64,
}

/// Payload of [`WireRequest::Solve`].
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// The kRSP instance.
    pub instance: Instance,
    /// Latency budget in milliseconds; omitted uses the service default.
    pub deadline_ms: Option<u64>,
    /// RSP-kernel override (`"classic"` or `"interval"`); absent or `null`
    /// uses the service's configured kernel ladder.
    pub kernel: Option<KernelKind>,
}

// Hand-written so `kernel` can be genuinely optional on the wire: the
// vendored serde derive requires every member on deserialize and writes
// `None` as `null`, but the kernel override postdates deployed clients.
// Absent (or `null`) means "service default", and `None` is omitted on
// serialize, so kernel-less requests stay byte-identical to the historical
// format.
impl Serialize for SolveRequest {
    fn to_content(&self) -> Content {
        let mut entries = vec![
            ("instance".to_string(), self.instance.to_content()),
            ("deadline_ms".to_string(), self.deadline_ms.to_content()),
        ];
        if let Some(kind) = self.kernel {
            entries.push(("kernel".to_string(), kind.to_content()));
        }
        Content::Map(entries)
    }
}

impl Deserialize for SolveRequest {
    fn from_content(c: &Content) -> Result<Self, serde::DeError> {
        Ok(SolveRequest {
            instance: Instance::from_content(c.field("instance")?)?,
            deadline_ms: Option::from_content(c.field("deadline_ms")?)?,
            kernel: opt_kernel_member(c)?,
        })
    }
}

/// The optional `"kernel"` member shared by [`SolveRequest`] and
/// [`BatchQuery`]: absent or `null` means "service default", otherwise a
/// kernel-kind string (a bad string is still a parse error, not a silent
/// fallback).
fn opt_kernel_member(c: &Content) -> Result<Option<KernelKind>, serde::DeError> {
    match c.field("kernel") {
        Ok(member) => Option::from_content(member),
        Err(_) => Ok(None),
    }
}

/// Payload of [`WireRequest::SolveBatch`]: many solve queries on one line.
///
/// Unlike pipelined `Solve` requests, the ids here are *part of the
/// payload* (`u64`, chosen by the client, unique within the batch) rather
/// than an envelope member; every per-query response line echoes its
/// query's id as the usual top-level `"id"` member, so a pipelining client
/// consumes batch responses with the same matcher it already has.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SolveBatchRequest {
    /// The queries, answered in completion order.
    pub queries: Vec<BatchQuery>,
}

/// One query inside a [`SolveBatchRequest`].
#[derive(Clone, Debug)]
pub struct BatchQuery {
    /// Client-chosen response-matching id, echoed as the response's
    /// top-level `"id"` member.
    pub id: u64,
    /// The kRSP instance.
    pub instance: Instance,
    /// Latency budget in milliseconds; omitted uses the service default.
    /// The deadline ladder applies per query, not per batch.
    pub deadline_ms: Option<u64>,
    /// RSP-kernel override for this query; absent or `null` uses the
    /// service's configured kernel ladder.
    pub kernel: Option<KernelKind>,
}

// Hand-written for the same reason as `SolveRequest`: `kernel` must be
// optional-on-absent and omitted when `None`.
impl Serialize for BatchQuery {
    fn to_content(&self) -> Content {
        let mut entries = vec![
            ("id".to_string(), self.id.to_content()),
            ("instance".to_string(), self.instance.to_content()),
            ("deadline_ms".to_string(), self.deadline_ms.to_content()),
        ];
        if let Some(kind) = self.kernel {
            entries.push(("kernel".to_string(), kind.to_content()));
        }
        Content::Map(entries)
    }
}

impl Deserialize for BatchQuery {
    fn from_content(c: &Content) -> Result<Self, serde::DeError> {
        Ok(BatchQuery {
            id: u64::from_content(c.field("id")?)?,
            instance: Instance::from_content(c.field("instance")?)?,
            deadline_ms: Option::from_content(c.field("deadline_ms")?)?,
            kernel: opt_kernel_member(c)?,
        })
    }
}

/// A response line.
///
/// One of these exists per request, briefly, between dispatch and
/// serialization — the variant size spread is irrelevant at that rate and
/// boxing would complicate every pattern match on the wire.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum WireResponse {
    /// The request was provisioned.
    Solved(SolvedReply),
    /// The request was rejected; the string names the [`Rejection`].
    Rejected(String),
    /// Service counters.
    Metrics(MetricsSnapshot),
    /// Readiness probe answer.
    Health(HealthReply),
    /// The router's answer to [`WireRequest::Health`]: its view of the
    /// replica ring (per-replica health plus routing counters). Single
    /// replicas never send this.
    Ring(RingReply),
    /// A lineage was registered (or re-confirmed).
    Registered(RegisteredReply),
    /// A lineage's epoch advanced.
    Epoch(EpochReply),
    /// The request failed for an operational reason: unparseable line,
    /// load shed, deadline, or a contained solver fault.
    Error(WireError),
}

/// Payload of [`WireResponse::Registered`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RegisteredReply {
    /// The lineage's structural digest, 32 hex digits — quote it back in
    /// [`EpochRequest::topo`].
    pub topo: String,
    /// The lineage's current epoch (0 on first registration).
    pub epoch: u64,
}

/// Payload of [`WireResponse::Epoch`]: what the advance did to the cache.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EpochReply {
    /// The lineage's structural digest, echoed back.
    pub topo: String,
    /// The epoch the lineage is now at.
    pub epoch: u64,
    /// Cached entries rekeyed into the new epoch (still served verbatim).
    pub retained: u64,
    /// Cached entries evicted because their solutions touched a changed
    /// edge (or the delta decreased a weight).
    pub evicted: u64,
    /// Warm-start seeds now waiting for the new epoch's solves.
    pub seeds: u64,
}

/// Coarse serving state reported by [`WireRequest::Health`], serialized as
/// a snake_case string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthStatus {
    /// Accepting and solving.
    Ready,
    /// Shutting down: existing work finishes, new work is refused.
    Draining,
    /// At capacity (admission queue or connection cap): retry elsewhere.
    Shedding,
}

impl HealthStatus {
    /// The wire string (`"ready"`, `"draining"`, `"shedding"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Ready => "ready",
            HealthStatus::Draining => "draining",
            HealthStatus::Shedding => "shedding",
        }
    }
}

// Hand-written for the same reason as `ErrorKind`: the vendored serde
// derive cannot rename variants to snake_case strings.
impl Serialize for HealthStatus {
    fn to_content(&self) -> Content {
        Content::Str(self.as_str().to_string())
    }
}

impl Deserialize for HealthStatus {
    fn from_content(c: &Content) -> Result<Self, serde::DeError> {
        match c {
            Content::Str(s) => match s.as_str() {
                "ready" => Ok(HealthStatus::Ready),
                "draining" => Ok(HealthStatus::Draining),
                "shedding" => Ok(HealthStatus::Shedding),
                other => Err(serde::DeError(format!("unknown health status {other:?}"))),
            },
            other => Err(serde::DeError::expected("health-status string", other)),
        }
    }
}

/// Payload of [`WireResponse::Health`]: enough for a load balancer to
/// route (status), for capacity planning (width/workers/queue), and for a
/// cheap cache-efficiency read, without the full metrics histogram.
///
/// The trailing members (`draining_since_ms`, `accepting`, `lineages`,
/// `max_epoch`) postdate deployed clients, so they are **optional on the
/// wire**: absent members deserialize to `None`, and a reply in which
/// they are all `None` serializes byte-identically to the historical
/// format (the same compatibility contract as the `kernel` request
/// member). A router uses them to make handoff decisions — a draining
/// replica advertises *when* it started draining and that it no longer
/// accepts new work — without guessing from the coarse status.
#[derive(Clone, Debug)]
pub struct HealthReply {
    /// Coarse serving state.
    pub status: HealthStatus,
    /// Solver data-parallel width (see `krsp::solver_width`).
    pub width: u64,
    /// Service worker threads.
    pub workers: u64,
    /// Requests admitted and not yet finished.
    pub in_flight: u64,
    /// Admission limit (`queue_capacity + workers`); `in_flight` at or
    /// above this sheds.
    pub queue_limit: u64,
    /// Open frontend connections (0 when no frontend is attached).
    pub conns_open: u64,
    /// Solution-cache hits so far.
    pub cache_hits: u64,
    /// Solution-cache misses so far.
    pub cache_misses: u64,
    /// Solution-cache evictions so far.
    pub cache_evictions: u64,
    /// The service's default RSP kernel — the top (`full`) rung's
    /// assignment, which is what `--kernel` sets uniformly. Per-rung
    /// detail in `kernels`.
    pub kernel: KernelKind,
    /// The RSP kernel assigned to each ladder rung, best rung first
    /// (DESIGN.md §4.16). A per-request `"kernel"` override replaces this
    /// whole map with a uniform one for that request.
    pub kernels: Vec<RungKernel>,
    /// Milliseconds since this replica began draining; absent while
    /// serving normally. Lets an operator (or the router) distinguish a
    /// fresh drain from one stuck past its grace.
    pub draining_since_ms: Option<u64>,
    /// Whether the replica accepts *new* work. Absent means accepting
    /// (the historical implicit contract); an explicit `false` is the
    /// drain handoff signal — in-flight work still completes, but a
    /// router must stop sending and re-ring this replica's digests.
    pub accepting: Option<bool>,
    /// Registered topology lineages; absent when none are registered (so
    /// the steady lineage-free reply stays byte-identical).
    pub lineages: Option<u64>,
    /// Highest epoch across registered lineages; absent alongside
    /// `lineages`.
    pub max_epoch: Option<u64>,
}

// Hand-written for the same reason as `SolveRequest`: the four trailing
// members must be absent-tolerant on deserialize and omitted when `None`,
// which the vendored serde derive cannot express.
impl Serialize for HealthReply {
    fn to_content(&self) -> Content {
        let mut entries = vec![
            ("status".to_string(), self.status.to_content()),
            ("width".to_string(), self.width.to_content()),
            ("workers".to_string(), self.workers.to_content()),
            ("in_flight".to_string(), self.in_flight.to_content()),
            ("queue_limit".to_string(), self.queue_limit.to_content()),
            ("conns_open".to_string(), self.conns_open.to_content()),
            ("cache_hits".to_string(), self.cache_hits.to_content()),
            ("cache_misses".to_string(), self.cache_misses.to_content()),
            (
                "cache_evictions".to_string(),
                self.cache_evictions.to_content(),
            ),
            ("kernel".to_string(), self.kernel.to_content()),
            ("kernels".to_string(), self.kernels.to_content()),
        ];
        if let Some(ms) = self.draining_since_ms {
            entries.push(("draining_since_ms".to_string(), ms.to_content()));
        }
        if let Some(accepting) = self.accepting {
            entries.push(("accepting".to_string(), accepting.to_content()));
        }
        if let Some(lineages) = self.lineages {
            entries.push(("lineages".to_string(), lineages.to_content()));
        }
        if let Some(epoch) = self.max_epoch {
            entries.push(("max_epoch".to_string(), epoch.to_content()));
        }
        Content::Map(entries)
    }
}

/// One optional member of a [`HealthReply`]-style map: absent (or `null`)
/// is `None`, present must parse.
fn opt_member<T: Deserialize>(c: &Content, name: &str) -> Result<Option<T>, serde::DeError> {
    match c.field(name) {
        Ok(member) => Option::from_content(member),
        Err(_) => Ok(None),
    }
}

impl Deserialize for HealthReply {
    fn from_content(c: &Content) -> Result<Self, serde::DeError> {
        Ok(HealthReply {
            status: HealthStatus::from_content(c.field("status")?)?,
            width: u64::from_content(c.field("width")?)?,
            workers: u64::from_content(c.field("workers")?)?,
            in_flight: u64::from_content(c.field("in_flight")?)?,
            queue_limit: u64::from_content(c.field("queue_limit")?)?,
            conns_open: u64::from_content(c.field("conns_open")?)?,
            cache_hits: u64::from_content(c.field("cache_hits")?)?,
            cache_misses: u64::from_content(c.field("cache_misses")?)?,
            cache_evictions: u64::from_content(c.field("cache_evictions")?)?,
            kernel: KernelKind::from_content(c.field("kernel")?)?,
            kernels: Vec::from_content(c.field("kernels")?)?,
            draining_since_ms: opt_member(c, "draining_since_ms")?,
            accepting: opt_member(c, "accepting")?,
            lineages: opt_member(c, "lineages")?,
            max_epoch: opt_member(c, "max_epoch")?,
        })
    }
}

/// One rung's kernel assignment inside [`HealthReply::kernels`].
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RungKernel {
    /// The ladder rung.
    pub rung: Rung,
    /// The RSP kernel assigned to it.
    pub kernel: KernelKind,
}

/// One replica's entry inside a [`RingReply`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplicaStatus {
    /// The replica's listen address as configured.
    pub addr: String,
    /// Ring health state (`"up"`, `"degraded"`, `"draining"`, `"down"`).
    pub state: String,
    /// Consecutive probe/forward failures (resets on success).
    pub consecutive_failures: u64,
    /// The replica's self-reported drain age in milliseconds at the last
    /// probe; `0` when not draining.
    pub draining_since_ms: u64,
    /// Router-side requests currently outstanding against this replica.
    pub in_flight: u64,
}

/// Payload of [`WireResponse::Ring`]: the router's replica-set view plus
/// its routing counters, answered to [`WireRequest::Health`] probes of the
/// router itself.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RingReply {
    /// Per-replica health, in configured order (the ring's index space).
    pub replicas: Vec<ReplicaStatus>,
    /// Solve requests routed (before retries).
    pub requests: u64,
    /// Failover retries: additional replicas tried after a transport
    /// failure or a `shed` answer.
    pub retries: u64,
    /// Hedged second sends fired at the latency-quantile trigger.
    pub hedges_fired: u64,
    /// Hedged sends where the *second* replica answered first.
    pub hedges_won: u64,
    /// Requests structurally rejected by the router itself (deadline
    /// budget exhausted or no live replica).
    pub rejected: u64,
}

/// Builds a [`HealthReply`] from the service's current state. `conn_caps`
/// carries the frontend's `(open, max)` connection counts when serving
/// over TCP; `None` (library use) bases shedding on admission pressure
/// alone.
#[must_use]
pub fn health_reply(service: &Service, conn_caps: Option<(u64, u64)>) -> HealthReply {
    let m = service.metrics();
    let cfg = service.config();
    let queue_limit = (cfg.queue_capacity + cfg.workers) as u64;
    let in_flight = service.in_flight() as u64;
    let conns_open = conn_caps.map_or(m.frontend.conns_open, |(open, _)| open);
    let status = if service.is_shutting_down() {
        HealthStatus::Draining
    } else if in_flight >= queue_limit || conn_caps.is_some_and(|(open, max)| open >= max) {
        HealthStatus::Shedding
    } else {
        HealthStatus::Ready
    };
    HealthReply {
        status,
        width: krsp::solver_width() as u64,
        workers: cfg.workers as u64,
        in_flight,
        queue_limit,
        conns_open,
        cache_hits: m.cache_hits,
        cache_misses: m.cache_misses,
        cache_evictions: m.cache_evictions,
        kernel: cfg.kernels.for_rung(Rung::Full),
        kernels: Rung::LADDER
            .into_iter()
            .map(|rung| RungKernel {
                rung,
                kernel: cfg.kernels.for_rung(rung),
            })
            .collect(),
        draining_since_ms: service
            .draining_since()
            .map(|since| since.as_millis() as u64),
        accepting: if service.is_shutting_down() {
            Some(false)
        } else {
            None
        },
        lineages: (service.lineage_count() > 0).then(|| service.lineage_count()),
        max_epoch: (service.lineage_count() > 0).then_some(m.epoch),
    }
}

/// Machine-readable category of a [`WireResponse::Error`], serialized as a
/// snake_case string so clients branch on it without string matching the
/// human-readable message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line exceeded [`MAX_LINE_BYTES`].
    OversizeLine,
    /// The line was not a valid request (bad JSON or invalid instance).
    Parse,
    /// The solver panicked on this instance (contained server-side), or
    /// the instance is quarantined after repeated panics. Retrying the
    /// same instance will keep failing until the quarantine TTL lapses.
    SolverPanic,
    /// The deadline expired before the solve started (strict mode).
    Timeout,
    /// The service shed the request (queue full or shutting down) —
    /// retry with backoff.
    Shed,
    /// The client exceeded its per-address token-bucket request rate —
    /// retry after backing off.
    RateLimited,
    /// The server failed internally while producing the response.
    Internal,
}

impl ErrorKind {
    /// The wire string (`"oversize_line"`, `"parse"`, `"solver_panic"`,
    /// `"timeout"`, `"shed"`, `"internal"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::OversizeLine => "oversize_line",
            ErrorKind::Parse => "parse",
            ErrorKind::SolverPanic => "solver_panic",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Shed => "shed",
            ErrorKind::RateLimited => "rate_limited",
            ErrorKind::Internal => "internal",
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// Hand-written (the vendored serde derive cannot rename variants, and the
// wire format wants snake_case strings, not Rust variant names).
impl Serialize for ErrorKind {
    fn to_content(&self) -> serde::Content {
        serde::Content::Str(self.as_str().to_string())
    }
}

impl Deserialize for ErrorKind {
    fn from_content(c: &serde::Content) -> Result<Self, serde::DeError> {
        match c {
            serde::Content::Str(s) => match s.as_str() {
                "oversize_line" => Ok(ErrorKind::OversizeLine),
                "parse" => Ok(ErrorKind::Parse),
                "solver_panic" => Ok(ErrorKind::SolverPanic),
                "timeout" => Ok(ErrorKind::Timeout),
                "shed" => Ok(ErrorKind::Shed),
                "rate_limited" => Ok(ErrorKind::RateLimited),
                "internal" => Ok(ErrorKind::Internal),
                other => Err(serde::DeError(format!("unknown error kind {other:?}"))),
            },
            other => Err(serde::DeError::expected("error-kind string", other)),
        }
    }
}

/// Structured payload of [`WireResponse::Error`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireError {
    /// Machine-readable category for client retry logic.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

pub(crate) fn wire_error(kind: ErrorKind, message: impl Into<String>) -> WireResponse {
    WireResponse::Error(WireError {
        kind,
        message: message.into(),
    })
}

/// Payload of [`WireResponse::Solved`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SolvedReply {
    /// Total solution cost.
    pub cost: i64,
    /// Total solution delay.
    pub delay: i64,
    /// Edge ids of the path system, ascending.
    pub edges: Vec<u32>,
    /// Ladder rung that answered.
    pub rung: Rung,
    /// The rung's advertised guarantee.
    pub guarantee: Guarantee,
    /// The RSP kernel assigned to the answering rung.
    pub kernel: KernelKind,
    /// Whether the solution cache answered.
    pub cache_hit: bool,
    /// Whether the answer piggybacked on a concurrent identical request's
    /// in-flight solve.
    pub coalesced: bool,
    /// End-to-end service latency in microseconds.
    pub latency_us: u64,
    /// True when the answer arrived past the deadline.
    pub deadline_missed: bool,
}

/// Maps a provisioning outcome onto the wire — the single point the
/// server, [`dispatch`] and [`dispatch_batch`] share, so solve payloads
/// are bit-identical whichever path answered.
#[must_use]
pub(crate) fn solve_response(out: Result<Response, Rejection>) -> WireResponse {
    match out {
        Ok(r) => WireResponse::Solved(SolvedReply {
            cost: r.solution.cost,
            delay: r.solution.delay,
            edges: r.solution.edges.iter().map(|e| e.0).collect(),
            rung: r.rung,
            guarantee: r.guarantee,
            kernel: r.kernel,
            cache_hit: r.cache_hit,
            coalesced: r.coalesced,
            latency_us: r.latency.as_micros().min(u128::from(u64::MAX)) as u64,
            deadline_missed: r.deadline_missed,
        }),
        // Infeasibility is a *semantic* answer about the instance and
        // keeps the dedicated `Rejected` variant; operational failures map
        // onto error kinds clients can act on.
        Err(r @ Rejection::Infeasible) => WireResponse::Rejected(r.to_string()),
        Err(r @ (Rejection::QueueFull | Rejection::ShuttingDown)) => {
            wire_error(ErrorKind::Shed, r.to_string())
        }
        Err(r @ Rejection::DeadlineExpired) => wire_error(ErrorKind::Timeout, r.to_string()),
        Err(r @ (Rejection::SolverPanic(_) | Rejection::Quarantined)) => {
            wire_error(ErrorKind::SolverPanic, r.to_string())
        }
    }
}

/// Evaluates one already-parsed request against the service.
///
/// [`WireRequest::SolveBatch`] does not fit the one-request/one-response
/// shape — use [`dispatch_batch`] (or the NDJSON server, which fans it out
/// to one line per query); here it answers with a `"parse"` error.
#[must_use]
pub fn dispatch(service: &Service, request: WireRequest) -> WireResponse {
    match request {
        WireRequest::Metrics => WireResponse::Metrics(service.metrics()),
        WireRequest::Health => WireResponse::Health(health_reply(service, None)),
        WireRequest::Solve(solve) => {
            if let Err(e) = solve.instance.validate() {
                return wire_error(ErrorKind::Parse, format!("invalid instance: {e}"));
            }
            solve_response(service.provision(Request {
                instance: solve.instance,
                deadline: solve.deadline_ms.map(Duration::from_millis),
                kernel: solve.kernel,
            }))
        }
        WireRequest::Register(register) => {
            let (structural, epoch) = service.register_topology(&register.graph);
            WireResponse::Registered(RegisteredReply {
                topo: format!("{structural:032x}"),
                epoch,
            })
        }
        WireRequest::Epoch(req) => dispatch_epoch(service, &req),
        WireRequest::SolveBatch(_) => wire_error(
            ErrorKind::Parse,
            "SolveBatch produces one response per query; use dispatch_batch or an NDJSON server",
        ),
    }
}

/// Evaluates an [`WireRequest::Epoch`] advance: hex-decodes the lineage
/// handle, converts the wire delta, and reports what the sweep did. Bad
/// handles and out-of-range edges answer with a `"parse"` error — they are
/// client mistakes, not service faults.
fn dispatch_epoch(service: &Service, req: &EpochRequest) -> WireResponse {
    let Ok(structural) = u128::from_str_radix(&req.topo, 16) else {
        return wire_error(
            ErrorKind::Parse,
            format!("topo is not a hex digest: {:?}", req.topo),
        );
    };
    let changes: Vec<krsp_gen::WeightChange> = req
        .changes
        .iter()
        .map(|c| krsp_gen::WeightChange {
            edge: krsp_graph::EdgeId(c.edge),
            cost: c.cost,
            delay: c.delay,
        })
        .collect();
    match service.advance_epoch(structural, &changes) {
        Ok(report) => WireResponse::Epoch(EpochReply {
            topo: req.topo.clone(),
            epoch: report.epoch,
            retained: report.retained,
            evicted: report.evicted,
            seeds: report.seeds,
        }),
        Err(e) => wire_error(ErrorKind::Parse, e.to_string()),
    }
}

/// Evaluates every query of a batch against the service, synchronously and
/// in order, returning `(query id, response)` pairs. Each query is
/// admitted and deadlined individually, so one shed, infeasible, or
/// panicking query never poisons its siblings.
#[must_use]
pub fn dispatch_batch(service: &Service, batch: SolveBatchRequest) -> Vec<(u64, WireResponse)> {
    batch
        .queries
        .into_iter()
        .map(|q| {
            let response = if let Err(e) = q.instance.validate() {
                wire_error(ErrorKind::Parse, format!("invalid instance: {e}"))
            } else {
                solve_response(service.provision(Request {
                    instance: q.instance,
                    deadline: q.deadline_ms.map(Duration::from_millis),
                    kernel: q.kernel,
                }))
            };
            (q.id, response)
        })
        .collect()
}

/// Evaluates one raw NDJSON line, returning the response line(s) (without
/// the trailing newline). A `SolveBatch` line yields one `\n`-joined
/// response line per query, each carrying its query's `"id"`.
#[must_use]
pub fn dispatch_line(service: &Service, line: &str) -> String {
    let response = match serde_json::from_str::<WireRequest>(line) {
        Ok(WireRequest::SolveBatch(batch)) => {
            if batch.queries.is_empty() {
                wire_error(ErrorKind::Parse, "empty SolveBatch: no queries")
            } else {
                return dispatch_batch(service, batch)
                    .iter()
                    .map(|(id, response)| {
                        encode_response_line(Some(&Content::Int(i128::from(*id))), response)
                    })
                    .collect::<Vec<_>>()
                    .join("\n");
            }
        }
        Ok(req) => dispatch(service, req),
        Err(e) => wire_error(ErrorKind::Parse, format!("bad request: {e}")),
    };
    serde_json::to_string(&response).unwrap_or_else(|e| {
        format!("{{\"Error\":{{\"kind\":\"internal\",\"message\":\"serialize failed: {e}\"}}}}")
    })
}

// ---- request-id envelope ----------------------------------------------
//
// The vendored serde derive has no field attributes, so optional-absent
// members cannot live in the wire structs themselves (an `Option` field
// would serialize as `null`, changing the id-less format). Instead the id
// is spliced in and out at the `Content` layer: requests may carry an
// `"id"` member beside the request tag, responses echo it back, and an
// id-less exchange is byte-identical to the historical wire format.

/// A request line split into its (verbatim, opaque) id and the parse
/// outcome of the remainder.
pub(crate) struct DecodedRequest {
    /// The `"id"` member, if the line was a map carrying one.
    pub(crate) id: Option<Content>,
    /// The rest of the line parsed as a request, or the parse error.
    pub(crate) request: Result<WireRequest, String>,
}

/// Splits the optional `"id"` member off a raw request line. The id (when
/// the line parsed far enough to extract one) is returned even for
/// unparseable requests, so the error response can still be matched by a
/// pipelining client. What is left of `{"id":7,"Health":null}` reads as
/// the bare string `"Health"`.
pub(crate) fn decode_request_line(line: &str) -> DecodedRequest {
    let content = match serde_json::parse_value(line) {
        Ok(c) => c,
        Err(e) => {
            return DecodedRequest {
                id: None,
                request: Err(format!("bad request: {e}")),
            }
        }
    };
    let (id, body) = match content {
        Content::Map(mut entries) => {
            let id = entries
                .iter()
                .position(|(key, _)| key == "id")
                .map(|at| entries.remove(at).1);
            match entries.as_slice() {
                [(tag, Content::Null)] => (id, Content::Str(tag.clone())),
                _ => (id, Content::Map(entries)),
            }
        }
        other => (None, other),
    };
    let request = WireRequest::from_content(&body).map_err(|e| format!("bad request: {e}"));
    DecodedRequest { id, request }
}

/// Renders a response line (no trailing newline), echoing `id` as an
/// `"id"` member when present. Without an id the output is exactly the
/// historical `serde_json::to_string(&response)` bytes.
pub(crate) fn encode_response_line(id: Option<&Content>, response: &WireResponse) -> String {
    let content = match (id, response.to_content()) {
        (None, c) => c,
        (Some(id), Content::Map(mut entries)) => {
            entries.insert(0, ("id".to_string(), id.clone()));
            Content::Map(entries)
        }
        // Unreachable today (every `WireResponse` variant is a map), but a
        // future unit variant must not lose the id.
        (Some(id), other) => Content::Map(vec![
            ("id".to_string(), id.clone()),
            ("response".to_string(), other),
        ]),
    };
    serde_json::to_string(&content).unwrap_or_else(|e| {
        format!("{{\"Error\":{{\"kind\":\"internal\",\"message\":\"serialize failed: {e}\"}}}}")
    })
}

/// Client-side encoder for a pipelined request: `request` with an `"id"`
/// member spliced in. A bare-string request (`"Health"`, `"Metrics"`)
/// takes its map form, `{"id":7,"Health":null}`.
#[must_use]
pub fn encode_request_with_id(id: u64, request: &WireRequest) -> String {
    let id = ("id".to_string(), Content::Int(i128::from(id)));
    let content = match request.to_content() {
        Content::Map(mut entries) => {
            entries.insert(0, id);
            Content::Map(entries)
        }
        Content::Str(tag) => Content::Map(vec![id, (tag, Content::Null)]),
        other => other,
    };
    serde_json::to_string(&content).unwrap_or_else(|e| {
        format!("{{\"Error\":{{\"kind\":\"internal\",\"message\":\"serialize failed: {e}\"}}}}")
    })
}

/// Client-side decoder for a response line: the echoed numeric id (if
/// any) and the response.
///
/// # Errors
/// The parse failure as text when the line is not a valid response.
pub fn decode_response_line(line: &str) -> Result<(Option<u64>, WireResponse), String> {
    let content = serde_json::parse_value(line).map_err(|e| format!("bad response: {e}"))?;
    let (id, body) = match content {
        Content::Map(mut entries) => {
            let id = entries
                .iter()
                .position(|(key, _)| key == "id")
                .map(|at| entries.remove(at).1);
            (id, Content::Map(entries))
        }
        other => (None, other),
    };
    let id = match id {
        None => None,
        Some(Content::Int(n)) => {
            Some(u64::try_from(n).map_err(|_| format!("response id {n} out of u64 range"))?)
        }
        Some(other) => return Err(format!("non-integer response id: {other:?}")),
    };
    let response = WireResponse::from_content(&body).map_err(|e| format!("bad response: {e}"))?;
    Ok((id, response))
}

/// One outcome of [`read_line_capped`].
pub(crate) enum LineRead {
    /// A complete line (without the trailing newline).
    Line(Vec<u8>),
    /// The line exceeded the cap; the remainder up to its newline has been
    /// drained so the connection can keep serving.
    TooLong,
    /// Clean end of stream.
    Eof,
}

/// Writes `line` and its terminating newline in one `write_all`. A lone
/// `"\n"` written after the line would be a segment of its own, and on a
/// socket without `TCP_NODELAY` it waits out Nagle plus the peer's delayed
/// ACK (tens of milliseconds) while the peer holds an unterminated line.
pub(crate) fn write_line(w: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    w.write_all(&buf)
}

/// Reads one `\n`-terminated line, buffering at most `max` bytes.
///
/// `Interrupted` reads are retried, and so is a read that blocks
/// (`WouldBlock` / `TimedOut` on a socket with a read timeout) until
/// `deadline`, when it fails with `TimedOut`.
pub(crate) fn read_line_capped(
    reader: &mut impl BufRead,
    max: usize,
    deadline: Instant,
) -> std::io::Result<LineRead> {
    // Chaos-testing hook: `proto.read=err(...)` fails the read like a torn
    // connection would.
    krsp_failpoint::fail_point!("proto.read", |msg| Err(std::io::Error::other(msg)));
    let mut line = Vec::new();
    let mut discarding = false;
    loop {
        let (consumed, done) = {
            let chunk = match reader.fill_buf() {
                Ok(c) => c,
                Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
                Err(e) if matches!(e.kind(), IoErrorKind::WouldBlock | IoErrorKind::TimedOut) => {
                    if Instant::now() >= deadline {
                        return Err(std::io::Error::new(
                            IoErrorKind::TimedOut,
                            "read stalled past its deadline",
                        ));
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                // EOF: a capped line ends here too, as does a final
                // unterminated line.
                return Ok(match (discarding, line.is_empty()) {
                    (true, _) => LineRead::TooLong,
                    (false, true) => LineRead::Eof,
                    (false, false) => LineRead::Line(line),
                });
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if !discarding {
                        line.extend_from_slice(&chunk[..pos]);
                    }
                    (pos + 1, true)
                }
                None => {
                    if !discarding {
                        line.extend_from_slice(chunk);
                    }
                    (chunk.len(), false)
                }
            }
        };
        reader.consume(consumed);
        if line.len() > max {
            line.clear();
            discarding = true;
        }
        if done {
            return Ok(if discarding {
                LineRead::TooLong
            } else {
                LineRead::Line(line)
            });
        }
    }
}

/// Knobs for [`serve_with_shutdown`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Budget for a *mid-line* read stall before the connection is
    /// dropped; an idle connection (between lines) never times out.
    pub read_timeout: Duration,
    /// How long a client may leave its responses undrained before the
    /// connection is dropped.
    pub write_timeout: Duration,
    /// How long shutdown waits for in-flight connections to finish before
    /// returning anyway.
    pub grace: Duration,
    /// Housekeeping tick: how often the server checks the shutdown flag
    /// and enforces the stall timeouts.
    pub poll: Duration,
    /// Total open-connection cap; connections past it are answered with a
    /// `"shed"` error at accept and closed.
    pub max_conns: usize,
    /// Open-connection cap per client address; excess connections from one
    /// address are shed at accept.
    pub per_client_conns: usize,
    /// Token-bucket refill rate, in `Solve` requests per second per client
    /// address; `0` disables rate limiting. Refused requests get a
    /// `"rate_limited"` error and the connection stays up.
    pub rate_per_sec: u64,
    /// Token-bucket burst capacity; `0` defaults to `2 × rate_per_sec`.
    pub rate_burst: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            grace: Duration::from_secs(5),
            poll: Duration::from_millis(50),
            max_conns: 4096,
            per_client_conns: 1024,
            rate_per_sec: 0,
            rate_burst: 0,
        }
    }
}

/// Serves on an already-bound listener (lets callers report the chosen
/// port, e.g. when binding port 0). Never shuts down on its own.
#[cfg(unix)]
pub fn serve_on(service: &Service, listener: TcpListener) -> std::io::Result<()> {
    serve_with_shutdown(
        service,
        listener,
        Arc::new(AtomicBool::new(false)),
        ServeOptions::default(),
    )
}

/// Serves NDJSON connections until `shutdown` becomes `true`, then drains:
/// stop accepting, flip the service into shutdown (new requests are shed,
/// in-flight solves degrade to their cheapest rung and complete), close
/// idle connections, and wait up to [`ServeOptions::grace`] for busy ones.
///
/// One reactor thread multiplexes every connection; solves run on the
/// service's worker pool and responses complete out of order (match them
/// by request id). The flag is typically set from a signal handler
/// (`SIGTERM`/ctrl-c in `krsp-cli serve`), which cannot run service code
/// itself — hence a plain atomic rather than a callback; the loop's
/// housekeeping tick ([`ServeOptions::poll`]) bounds how long the flip
/// can go unnoticed. Returns once drained (or the grace lapsed), so the
/// caller can flush final metrics before exiting.
#[cfg(unix)]
pub fn serve_with_shutdown(
    service: &Service,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    opts: ServeOptions,
) -> std::io::Result<()> {
    crate::frontend::serve(
        crate::frontend::Backend::Service(service.clone()),
        listener,
        shutdown,
        opts,
    )
}

#[cfg(test)]
// Tests may unwrap: a panic is exactly the failure report we want there.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use krsp_graph::{DiGraph, NodeId};
    use std::io::BufReader;
    use std::net::TcpStream;

    fn inst(d: i64) -> Instance {
        let g = DiGraph::from_edges(4, &[(0, 1, 1, 5), (1, 3, 1, 5), (0, 2, 4, 1), (2, 3, 4, 1)]);
        Instance::new(g, NodeId(0), NodeId(3), 2, d).unwrap()
    }

    #[test]
    fn request_round_trips_through_json() {
        let req = WireRequest::Solve(SolveRequest {
            instance: inst(20),
            deadline_ms: Some(250),
            kernel: None,
        });
        let text = serde_json::to_string(&req).unwrap();
        let back: WireRequest = serde_json::from_str(&text).unwrap();
        match back {
            WireRequest::Solve(s) => {
                assert_eq!(s.deadline_ms, Some(250));
                assert_eq!(s.instance.k, 2);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let metrics: WireRequest = serde_json::from_str("\"Metrics\"").unwrap();
        assert!(matches!(metrics, WireRequest::Metrics));
    }

    #[test]
    fn kernel_member_is_optional_and_omitted_when_none() {
        // A kernel-less request serializes without a "kernel" member at
        // all (historical byte compatibility), and a historical line
        // missing the member parses as `None` rather than erroring.
        let req = WireRequest::Solve(SolveRequest {
            instance: inst(20),
            deadline_ms: Some(250),
            kernel: None,
        });
        let text = serde_json::to_string(&req).unwrap();
        assert!(!text.contains("kernel"), "line = {text}");
        match serde_json::from_str::<WireRequest>(&text).unwrap() {
            WireRequest::Solve(s) => assert_eq!(s.kernel, None),
            other => panic!("wrong variant: {other:?}"),
        }

        // An explicit override round-trips as a snake_case string, and
        // `null` means "absent".
        for kind in krsp::KERNEL_KINDS {
            let req = WireRequest::Solve(SolveRequest {
                instance: inst(20),
                deadline_ms: None,
                kernel: Some(kind),
            });
            let text = serde_json::to_string(&req).unwrap();
            assert!(text.contains(&format!("\"kernel\":\"{kind}\"")), "{text}");
            match serde_json::from_str::<WireRequest>(&text).unwrap() {
                WireRequest::Solve(s) => assert_eq!(s.kernel, Some(kind)),
                other => panic!("wrong variant: {other:?}"),
            }
            let nulled = text.replace(&format!("\"kernel\":\"{kind}\""), "\"kernel\":null");
            match serde_json::from_str::<WireRequest>(&nulled).unwrap() {
                WireRequest::Solve(s) => assert_eq!(s.kernel, None),
                other => panic!("wrong variant: {other:?}"),
            }
        }

        // A bad kernel string is a parse error, not a silent default.
        let bad = text.replace(
            "\"deadline_ms\":250",
            "\"deadline_ms\":250,\"kernel\":\"exact\"",
        );
        assert!(serde_json::from_str::<WireRequest>(&bad).is_err());
    }

    #[test]
    fn solved_replies_and_health_report_the_kernel() {
        let svc = Service::new(ServiceConfig::default());
        match dispatch(
            &svc,
            WireRequest::Solve(SolveRequest {
                instance: inst(20),
                deadline_ms: None,
                kernel: Some(krsp::KernelKind::Interval),
            }),
        ) {
            WireResponse::Solved(r) => assert_eq!(r.kernel, krsp::KernelKind::Interval),
            other => panic!("expected Solved, got {other:?}"),
        }
        let health = health_reply(&svc, None);
        assert_eq!(health.kernel, krsp::KernelKind::Classic);
        assert_eq!(health.kernels.len(), Rung::LADDER.len());
        for (entry, rung) in health.kernels.iter().zip(Rung::LADDER) {
            assert_eq!(entry.rung, rung);
            assert_eq!(entry.kernel, krsp::KernelKind::Classic);
        }
    }

    #[test]
    fn health_trailing_members_absent_stay_byte_identical() {
        // A steady-state reply (not draining, no lineages) must serialize
        // exactly as it did before the trailing members existed, so old
        // clients parse it unchanged.
        let svc = Service::new(ServiceConfig::default());
        let health = health_reply(&svc, None);
        assert_eq!(health.draining_since_ms, None);
        assert_eq!(health.accepting, None);
        assert_eq!(health.lineages, None);
        assert_eq!(health.max_epoch, None);
        let text = serde_json::to_string(&WireResponse::Health(health.clone())).unwrap();
        for member in ["draining_since_ms", "accepting", "lineages", "max_epoch"] {
            assert!(!text.contains(member), "line = {text}");
        }
        // And a historical line (no trailing members) parses with all
        // four as `None`.
        match serde_json::from_str::<WireResponse>(&text).unwrap() {
            WireResponse::Health(h) => {
                assert_eq!(h.status, health.status);
                assert_eq!(h.draining_since_ms, None);
                assert_eq!(h.accepting, None);
                assert_eq!(h.lineages, None);
                assert_eq!(h.max_epoch, None);
            }
            other => panic!("expected Health, got {other:?}"),
        }
    }

    #[test]
    fn health_trailing_members_round_trip_when_present() {
        let svc = Service::new(ServiceConfig::default());
        let mut health = health_reply(&svc, None);
        health.draining_since_ms = Some(1234);
        health.accepting = Some(false);
        health.lineages = Some(2);
        health.max_epoch = Some(7);
        let text = serde_json::to_string(&WireResponse::Health(health)).unwrap();
        match serde_json::from_str::<WireResponse>(&text).unwrap() {
            WireResponse::Health(h) => {
                assert_eq!(h.draining_since_ms, Some(1234));
                assert_eq!(h.accepting, Some(false));
                assert_eq!(h.lineages, Some(2));
                assert_eq!(h.max_epoch, Some(7));
            }
            other => panic!("expected Health, got {other:?}"),
        }
    }

    #[test]
    fn draining_service_advertises_handoff_members() {
        let svc = Service::new(ServiceConfig::default());
        let g = DiGraph::from_edges(4, &[(0, 1, 1, 5), (1, 3, 1, 5), (0, 2, 4, 1), (2, 3, 4, 1)]);
        svc.register_topology(&g);
        svc.begin_shutdown();
        let health = health_reply(&svc, None);
        assert_eq!(health.status, HealthStatus::Draining);
        assert!(health.draining_since_ms.is_some());
        assert_eq!(health.accepting, Some(false));
        assert_eq!(health.lineages, Some(1));
        assert!(health.max_epoch.is_some());
    }

    #[test]
    fn dispatch_solves_rejects_and_reports() {
        let svc = Service::new(ServiceConfig::default());
        let ok = dispatch(
            &svc,
            WireRequest::Solve(SolveRequest {
                instance: inst(20),
                deadline_ms: None,
                kernel: None,
            }),
        );
        match ok {
            WireResponse::Solved(r) => {
                assert!(r.delay <= 20);
                assert!(!r.edges.is_empty());
            }
            other => panic!("expected Solved, got {other:?}"),
        }
        let infeasible = dispatch(
            &svc,
            WireRequest::Solve(SolveRequest {
                instance: inst(3),
                deadline_ms: None,
                kernel: None,
            }),
        );
        assert!(matches!(infeasible, WireResponse::Rejected(_)));
        let metrics = dispatch(&svc, WireRequest::Metrics);
        match metrics {
            WireResponse::Metrics(m) => assert_eq!(m.completed, 1),
            other => panic!("expected Metrics, got {other:?}"),
        }
    }

    #[test]
    fn register_and_epoch_round_trip_over_the_wire() {
        let svc = Service::new(ServiceConfig::default());
        let instance = inst(20);

        // Register the topology; the reply's topo is the hex handle an
        // Epoch advance quotes back.
        let line = serde_json::to_string(&WireRequest::Register(RegisterRequest {
            graph: instance.graph.clone(),
        }))
        .unwrap();
        let reply: WireResponse = serde_json::from_str(&dispatch_line(&svc, &line)).unwrap();
        let WireResponse::Registered(registered) = reply else {
            panic!("expected Registered, got {reply:?}");
        };
        assert_eq!(registered.epoch, 0);
        assert_eq!(registered.topo.len(), 32);

        // Populate the cache, then advance with a no-op-valued delta on
        // edge 0 (on the cheap path, which the k=2 answer uses): the one
        // entry is evicted into a seed.
        let solved = dispatch(
            &svc,
            WireRequest::Solve(SolveRequest {
                instance,
                deadline_ms: None,
                kernel: None,
            }),
        );
        assert!(matches!(solved, WireResponse::Solved(_)));
        let line = serde_json::to_string(&WireRequest::Epoch(EpochRequest {
            topo: registered.topo.clone(),
            changes: vec![WireChange {
                edge: 0,
                cost: 1,
                delay: 5,
            }],
        }))
        .unwrap();
        let reply: WireResponse = serde_json::from_str(&dispatch_line(&svc, &line)).unwrap();
        let WireResponse::Epoch(advanced) = reply else {
            panic!("expected Epoch, got {reply:?}");
        };
        assert_eq!(advanced.topo, registered.topo);
        assert_eq!(advanced.epoch, 1);
        assert_eq!(advanced.retained + advanced.evicted, 1);

        // A bogus handle and an out-of-range edge both answer with parse
        // errors, not panics.
        for bad in [
            EpochRequest {
                topo: "not-hex".to_string(),
                changes: Vec::new(),
            },
            EpochRequest {
                topo: registered.topo.clone(),
                changes: vec![WireChange {
                    edge: 999,
                    cost: 1,
                    delay: 1,
                }],
            },
        ] {
            let reply = dispatch(&svc, WireRequest::Epoch(bad));
            match reply {
                WireResponse::Error(e) => assert_eq!(e.kind, ErrorKind::Parse),
                other => panic!("expected Error, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_lines_get_error_replies() {
        let svc = Service::new(ServiceConfig::default());
        let reply = dispatch_line(&svc, "{not json");
        let parsed: WireResponse = serde_json::from_str(&reply).unwrap();
        match parsed {
            WireResponse::Error(e) => assert_eq!(e.kind, ErrorKind::Parse),
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_line_is_rejected_but_connection_survives() {
        use std::io::{BufRead, BufReader, Read, Write};

        let svc = Service::new(ServiceConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let _ = serve_on(&svc, listener);
            });
        }

        let mut stream = TcpStream::connect(addr).unwrap();
        // A single line larger than the cap, then a valid pipelined request
        // on the same connection.
        let garbage = vec![b'x'; MAX_LINE_BYTES + 4096];
        stream.write_all(&garbage).unwrap();
        stream.write_all(b"\n").unwrap();
        let req = serde_json::to_string(&WireRequest::Solve(SolveRequest {
            instance: inst(20),
            deadline_ms: None,
            kernel: None,
        }))
        .unwrap();
        stream.write_all(req.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();

        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match serde_json::from_str::<WireResponse>(line.trim()).unwrap() {
            WireResponse::Error(e) => {
                assert_eq!(e.kind, ErrorKind::OversizeLine);
                assert!(e.message.contains("exceeds"), "msg = {}", e.message);
            }
            other => panic!("expected Error for oversized line, got {other:?}"),
        }
        line.clear();
        reader.read_line(&mut line).unwrap();
        let solved: WireResponse = serde_json::from_str(line.trim()).unwrap();
        assert!(
            matches!(solved, WireResponse::Solved(_)),
            "connection must keep serving after a rejected line"
        );
        // Invalid UTF-8 no longer tears down the connection either.
        let mut stream = reader.into_inner();
        stream.write_all(&[0xff, 0xfe, b'{', b'\n']).unwrap();
        stream.flush().unwrap();
        let mut byte = [0u8; 1];
        stream.read_exact(&mut byte).unwrap(); // an Error line comes back
        assert_eq!(byte[0], b'{');
    }

    #[test]
    fn capped_reader_handles_boundaries() {
        use std::io::Cursor;

        let far = Instant::now() + Duration::from_secs(60);
        // Exactly at the cap: accepted.
        let data = [vec![b'a'; 16], b"\nrest\n".to_vec()].concat();
        let mut r = BufReader::new(Cursor::new(data));
        match read_line_capped(&mut r, 16, far).unwrap() {
            LineRead::Line(l) => assert_eq!(l.len(), 16),
            _ => panic!("line at the cap must pass"),
        }
        match read_line_capped(&mut r, 16, far).unwrap() {
            LineRead::Line(l) => assert_eq!(l, b"rest"),
            _ => panic!("next line must still parse"),
        }
        assert!(matches!(
            read_line_capped(&mut r, 16, far).unwrap(),
            LineRead::Eof
        ));

        // One over: rejected, stream drained to the newline.
        let data = [vec![b'b'; 17], b"\nok\n".to_vec()].concat();
        let mut r = BufReader::new(Cursor::new(data));
        assert!(matches!(
            read_line_capped(&mut r, 16, far).unwrap(),
            LineRead::TooLong
        ));
        match read_line_capped(&mut r, 16, far).unwrap() {
            LineRead::Line(l) => assert_eq!(l, b"ok"),
            _ => panic!("stream must recover after a too-long line"),
        }

        // Unterminated final line and unterminated overflow at EOF.
        let mut r = BufReader::new(Cursor::new(b"tail".to_vec()));
        match read_line_capped(&mut r, 16, far).unwrap() {
            LineRead::Line(l) => assert_eq!(l, b"tail"),
            _ => panic!("unterminated final line is still a line"),
        }
        let mut r = BufReader::new(Cursor::new(vec![b'c'; 64]));
        assert!(matches!(
            read_line_capped(&mut r, 16, far).unwrap(),
            LineRead::TooLong
        ));
    }

    #[test]
    fn capped_reader_times_out_at_its_deadline() {
        /// A source that never has a byte ready.
        struct Stalled;
        impl std::io::Read for Stalled {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(IoErrorKind::WouldBlock.into())
            }
        }
        let deadline = Instant::now() + Duration::from_millis(20);
        let err = read_line_capped(&mut BufReader::new(Stalled), 16, deadline)
            .err()
            .expect("a stalled read must fail");
        assert_eq!(err.kind(), IoErrorKind::TimedOut);
        assert!(Instant::now() >= deadline);
    }

    #[test]
    fn bare_string_requests_carry_an_id_in_map_form() {
        for request in [WireRequest::Health, WireRequest::Metrics] {
            let line = encode_request_with_id(7, &request);
            let tag = serde_json::to_string(&request).unwrap();
            assert_eq!(line, format!("{{\"id\":7,{tag}:null}}"));
            let decoded = decode_request_line(&line);
            assert!(matches!(decoded.id, Some(Content::Int(7))), "{line}");
            assert_eq!(
                serde_json::to_string(&decoded.request.unwrap()).unwrap(),
                tag
            );
        }
    }

    #[test]
    fn tcp_round_trip_on_loopback() {
        use std::io::{BufRead, BufReader, Write};

        let svc = Service::new(ServiceConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let _ = serve_on(&svc, listener);
            });
        }

        let mut stream = TcpStream::connect(addr).unwrap();
        let req = serde_json::to_string(&WireRequest::Solve(SolveRequest {
            instance: inst(20),
            deadline_ms: Some(1000),
            kernel: None,
        }))
        .unwrap();
        stream.write_all(req.as_bytes()).unwrap();
        stream.write_all(b"\n\"Metrics\"\n").unwrap();
        stream.flush().unwrap();

        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let solved: WireResponse = serde_json::from_str(line.trim()).unwrap();
        assert!(matches!(solved, WireResponse::Solved(_)));
        line.clear();
        reader.read_line(&mut line).unwrap();
        let metrics: WireResponse = serde_json::from_str(line.trim()).unwrap();
        match metrics {
            WireResponse::Metrics(m) => assert_eq!(m.completed, 1),
            other => panic!("expected Metrics, got {other:?}"),
        }
    }
}
