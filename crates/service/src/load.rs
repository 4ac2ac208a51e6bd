//! Closed-loop load generator: replays `krsp-gen` workloads against an
//! in-process [`Service`] at a target arrival rate.
//!
//! Each request is assigned a scheduled start time on a fixed-rate arrival
//! clock (`i / qps`); client threads pick requests off a shared index,
//! sleep until their slot, and issue them. Latencies are recorded exactly
//! (client-side, every sample kept), so the reported percentiles are true
//! order statistics rather than histogram reconstructions. The report is
//! serializable — `krsp-load` prints it as JSON for committing under
//! `results/`.
//!
//! [`run_remote`] replays the same workload over the NDJSON wire protocol
//! against a running `krsp-cli serve`, with per-request reconnect and
//! jittered exponential backoff so a restarting or briefly absent server
//! does not fail the replay.

use crate::degrade::Rung;
use crate::metrics::MetricsSnapshot;
use crate::proto::{
    self, write_line, BatchQuery, ErrorKind, SolveBatchRequest, SolveRequest, WireRequest,
    WireResponse,
};
use crate::service::{Rejection, Request, Service};
use crate::sync_util::lock_recover;
use krsp_gen::{Family, Regime, Workload};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What to replay.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// Total requests to issue.
    pub requests: usize,
    /// Target arrival rate in requests/second; 0 = open throttle.
    pub qps: f64,
    /// Number of distinct instances cycled round-robin (1 = pure cache-hit
    /// traffic after warmup; `requests` = pure miss traffic).
    pub unique: usize,
    /// Client threads issuing requests.
    pub clients: usize,
    /// Topology family for the generated instances.
    pub family: Family,
    /// Node count per instance.
    pub n: usize,
    /// Disjoint paths per request.
    pub k: usize,
    /// Delay-budget tightness ∈ (0, 1].
    pub tightness: f64,
    /// Base PRNG seed; instance `u` uses `seed + 1000·u`.
    pub seed: u64,
    /// Per-request deadline in milliseconds; `None` uses the service
    /// default.
    pub deadline_ms: Option<u64>,
    /// Requests kept in flight per connection in remote replays. `0`/`1`
    /// is the classic one-at-a-time round trip; `N > 1` pipelines with
    /// per-request ids and matches responses out of order. Ignored by
    /// in-process replays (clients are the concurrency there).
    pub pipeline: usize,
    /// Queries grouped into each `SolveBatch` wire request in remote
    /// replays. `0`/`1` sends classic one-query `Solve` lines; `N > 1`
    /// sends one batch line per `N` claimed requests and matches the
    /// per-query responses by id. Mutually exclusive with `pipeline > 1`;
    /// ignored by in-process replays.
    pub batch: usize,
    /// RSP-kernel override stamped on every issued request; `None` leaves
    /// the server's configured kernel ladder in charge.
    pub kernel: Option<krsp::KernelKind>,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            requests: 200,
            qps: 0.0,
            unique: 20,
            clients: 4,
            family: Family::Gnm,
            n: 60,
            k: 2,
            tightness: 0.5,
            seed: 42,
            deadline_ms: None,
            pipeline: 1,
            batch: 1,
            kernel: None,
        }
    }
}

/// Exact latency statistics (µs) over one outcome class.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Sample count.
    pub count: u64,
    /// Median.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Mean.
    pub mean_us: f64,
    /// Maximum.
    pub max_us: u64,
}

/// Exact 1-based quantile rank: `ceil(q · count)` clamped to
/// `[1, count]`, computed without going through `f64` multiplication.
/// `(q * count as f64).ceil()` misrounds once `count` exceeds f64's
/// 53-bit mantissa (`count as f64` itself rounds, so e.g. `q = 1.0`
/// could yield a rank below `count` and select the wrong order
/// statistic); instead take `q` in 2⁻³² fixed point — exact for the
/// conversion — and compute `ceil(q_fp · count / 2³²)` in u128. The
/// same rank the metrics histogram uses (`metrics::LatencyHistogram`).
fn quantile_rank(q: f64, count: u64) -> u64 {
    const FP: u128 = 1 << 32;
    let q_fp = (q.clamp(0.0, 1.0) * FP as f64).round() as u128;
    let rank = (q_fp * u128::from(count)).div_ceil(FP);
    u64::try_from(rank.min(u128::from(count)))
        .expect("rank is clamped to count")
        .max(1)
}

impl LatencySummary {
    fn from_samples(mut samples: Vec<u64>) -> Self {
        // Empty replays (every request rejected) must report zeros, not a
        // 0/0 = NaN mean — NaN is not valid JSON and corrupts the report.
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let pick = |q: f64| {
            let rank = quantile_rank(q, samples.len() as u64) as usize;
            samples[rank - 1]
        };
        LatencySummary {
            count: samples.len() as u64,
            p50_us: pick(0.50),
            p95_us: pick(0.95),
            p99_us: pick(0.99),
            mean_us: samples.iter().sum::<u64>() as f64 / samples.len() as f64,
            max_us: *samples.last().expect("nonempty"),
        }
    }
}

/// One ladder rung's advertised guarantee plus its fresh-solve count in a
/// replay.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RungGuarantee {
    /// Rung name (`full`, `single_probe`, `lp_rounding`, `min_delay`).
    pub rung: String,
    /// Fresh solves served at this rung.
    pub requests: u64,
    /// Advertised cost factor vs the LP lower bound; `None` = uncertified.
    pub cost_factor: Option<u32>,
    /// Advertised delay-bound relaxation factor.
    pub delay_factor: u32,
}

/// The replay outcome, serializable for `results/`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LoadReport {
    /// Requests issued.
    pub issued: u64,
    /// Requests answered with a solution.
    pub completed: u64,
    /// Requests rejected by backpressure.
    pub rejected_queue_full: u64,
    /// Requests rejected by strict deadline enforcement.
    pub rejected_expired: u64,
    /// Requests that proved infeasible.
    pub infeasible: u64,
    /// Answers that arrived past their deadline.
    pub deadline_missed: u64,
    /// Answers served from the cache.
    pub cache_hits: u64,
    /// Answers that piggybacked on a concurrent identical request's solve
    /// (singleflight followers).
    pub coalesced: u64,
    /// Structured error replies: contained solver panics, quarantined
    /// keys, and (remote replay) transport failures that exhausted their
    /// retry budget.
    pub wire_errors: u64,
    /// Reconnect-and-reissue attempts after transport errors (remote
    /// replay only; 0 in-process).
    pub transport_retries: u64,
    /// Requests kept in flight per connection (1 = sequential round
    /// trips). Latencies are measured **per id** — send of a request to
    /// receipt of the response carrying its id — so pipelined numbers are
    /// true per-request latencies, not batch times.
    pub pipeline_depth: u64,
    /// Queries per `SolveBatch` wire request (1 = plain `Solve` lines).
    /// Latencies are per query — send of the batch line to receipt of the
    /// response carrying that query's id.
    pub batch_size: u64,
    /// Responses that arrived before an earlier-submitted request's
    /// response on the same connection (pipelined replays only).
    pub out_of_order_replies: u64,
    /// Deepest observed reordering: the most earlier-submitted requests
    /// still unanswered when a response arrived.
    pub reorder_depth_max: u64,
    /// Wall-clock duration of the replay in seconds.
    pub wall_s: f64,
    /// Achieved throughput (completed / wall).
    pub achieved_qps: f64,
    /// Fresh solves per rung (`[full, single_probe, lp_rounding,
    /// min_delay]`).
    pub per_rung: [u64; 4],
    /// The advertised approximation guarantee of every ladder rung,
    /// alongside how many fresh solves it served — so the report records
    /// which factor bound each answer carries.
    pub rung_guarantees: Vec<RungGuarantee>,
    /// Latency over all answered requests.
    pub latency: LatencySummary,
    /// Latency over cache hits only.
    pub latency_cache_hit: LatencySummary,
    /// Latency over cache misses only.
    pub latency_cache_miss: LatencySummary,
    /// Latency over all answered requests measured from each request's
    /// **last** transmission — the (re)issue that was actually answered —
    /// rather than its first. [`LoadReport::latency`] spans every failed
    /// attempt and the reconnect backoff between them (the caller's
    /// view); this distribution excludes them (the replica's view).
    /// The two are identical when no transport retries occurred.
    pub latency_last_send: LatencySummary,
    /// The service's own counters after the run.
    pub service_metrics: MetricsSnapshot,
}

#[derive(Default)]
struct Tally {
    completed: u64,
    rejected_queue_full: u64,
    rejected_expired: u64,
    infeasible: u64,
    deadline_missed: u64,
    cache_hits: u64,
    coalesced: u64,
    wire_errors: u64,
    out_of_order: u64,
    reorder_depth_max: u64,
    per_rung: [u64; 4],
    hit_latencies: Vec<u64>,
    miss_latencies: Vec<u64>,
    last_send_latencies: Vec<u64>,
}

impl Tally {
    fn record_solved(
        &mut self,
        rung: Rung,
        cache_hit: bool,
        coalesced: bool,
        deadline_missed: bool,
        latency_us: u64,
        latency_last_us: u64,
    ) {
        self.completed += 1;
        self.per_rung[rung.index()] += u64::from(!cache_hit && !coalesced);
        self.deadline_missed += u64::from(deadline_missed);
        self.cache_hits += u64::from(cache_hit);
        self.coalesced += u64::from(coalesced);
        if cache_hit {
            self.hit_latencies.push(latency_us);
        } else {
            self.miss_latencies.push(latency_us);
        }
        self.last_send_latencies.push(latency_last_us);
    }
}

/// Builds the distinct instance pool for `spec`. Public so callers can
/// pre-validate a spec before replaying it.
#[must_use]
pub fn build_pool(spec: &LoadSpec) -> Vec<krsp::Instance> {
    (0..spec.unique.max(1))
        .filter_map(|u| {
            let w = Workload {
                family: spec.family,
                n: spec.n,
                m: spec.n * 4,
                regime: Regime::Anticorrelated,
                k: spec.k,
                tightness: spec.tightness,
                seed: spec.seed.wrapping_add(1000 * u as u64),
            };
            krsp_gen::instantiate_with_retries(w, 50)
        })
        .collect()
}

/// Replays `spec` against `service` and reports.
///
/// # Panics
/// Panics when no feasible instance can be generated from the spec.
#[must_use]
pub fn run(service: &Service, spec: &LoadSpec) -> LoadReport {
    let pool = build_pool(spec);
    assert!(
        !pool.is_empty(),
        "load spec generated no feasible instances"
    );

    let next = AtomicUsize::new(0);
    let tally = Mutex::new(Tally::default());
    let start = Instant::now();
    let interval = if spec.qps > 0.0 {
        Some(Duration::from_secs_f64(1.0 / spec.qps))
    } else {
        None
    };

    std::thread::scope(|s| {
        for _ in 0..spec.clients.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= spec.requests {
                    break;
                }
                if let Some(step) = interval {
                    let slot = start + step * i as u32;
                    let now = Instant::now();
                    if slot > now {
                        std::thread::sleep(slot - now);
                    }
                }
                let out = service.provision(Request {
                    instance: pool[i % pool.len()].clone(),
                    deadline: spec.deadline_ms.map(Duration::from_millis),
                    kernel: spec.kernel,
                });
                let mut t = lock_recover(&tally);
                match out {
                    Ok(r) => {
                        let us = r.latency.as_micros().min(u128::from(u64::MAX)) as u64;
                        // In-process there is no transport, so the first
                        // and last send coincide.
                        t.record_solved(
                            r.rung,
                            r.cache_hit,
                            r.coalesced,
                            r.deadline_missed,
                            us,
                            us,
                        );
                    }
                    Err(Rejection::QueueFull) => t.rejected_queue_full += 1,
                    Err(Rejection::DeadlineExpired) => t.rejected_expired += 1,
                    Err(Rejection::Infeasible | Rejection::ShuttingDown) => t.infeasible += 1,
                    Err(Rejection::SolverPanic(_) | Rejection::Quarantined) => t.wire_errors += 1,
                }
            });
        }
    });

    let wall = start.elapsed();
    let t = tally.into_inner().unwrap_or_else(|e| e.into_inner());
    build_report(spec.requests as u64, wall, t, 0, 1, 1, service.metrics())
}

fn build_report(
    issued: u64,
    wall: Duration,
    t: Tally,
    transport_retries: u64,
    pipeline_depth: u64,
    batch_size: u64,
    service_metrics: MetricsSnapshot,
) -> LoadReport {
    let all: Vec<u64> = t
        .hit_latencies
        .iter()
        .chain(t.miss_latencies.iter())
        .copied()
        .collect();
    LoadReport {
        issued,
        completed: t.completed,
        rejected_queue_full: t.rejected_queue_full,
        rejected_expired: t.rejected_expired,
        infeasible: t.infeasible,
        deadline_missed: t.deadline_missed,
        cache_hits: t.cache_hits,
        coalesced: t.coalesced,
        wire_errors: t.wire_errors,
        transport_retries,
        pipeline_depth,
        batch_size,
        out_of_order_replies: t.out_of_order,
        reorder_depth_max: t.reorder_depth_max,
        wall_s: wall.as_secs_f64(),
        achieved_qps: if wall.as_secs_f64() > 0.0 {
            t.completed as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        per_rung: t.per_rung,
        rung_guarantees: Rung::LADDER
            .iter()
            .map(|&rg| {
                let g = rg.guarantee();
                RungGuarantee {
                    rung: rg.to_string(),
                    requests: t.per_rung[rg.index()],
                    cost_factor: g.cost_factor,
                    delay_factor: g.delay_factor,
                }
            })
            .collect(),
        latency: LatencySummary::from_samples(all),
        latency_cache_hit: LatencySummary::from_samples(t.hit_latencies),
        latency_cache_miss: LatencySummary::from_samples(t.miss_latencies),
        latency_last_send: LatencySummary::from_samples(t.last_send_latencies),
        service_metrics,
    }
}

/// Where and how [`run_remote`] replays over the wire.
#[derive(Clone, Debug)]
pub struct RemoteSpec {
    /// Server address (`host:port`), or a comma-separated list of
    /// addresses. With a list, clients spread their initial connections
    /// across the targets and rotate to the next one on each reconnect,
    /// so a replay keeps going while any listed replica answers.
    pub addr: String,
    /// Reconnect-and-reissue attempts per request after a transport
    /// error, with jittered exponential backoff between attempts.
    pub retries: u32,
}

impl RemoteSpec {
    /// The individual target addresses in [`RemoteSpec::addr`]. Never
    /// empty: a list with no usable entries falls back to the raw string
    /// so the connection error surfaces where it is acted on.
    #[must_use]
    pub fn addrs(&self) -> Vec<&str> {
        let list: Vec<&str> = self
            .addr
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .collect();
        if list.is_empty() {
            vec![self.addr.as_str()]
        } else {
            list
        }
    }
}

/// Deterministic jittered exponential backoff: base 10 ms doubling per
/// attempt, capped at 500 ms, with the top half of the window jittered by
/// an LCG step so concurrent clients do not reconnect in lockstep.
fn backoff_delay(attempt: u32, salt: u64) -> Duration {
    let cap = 10u64.saturating_mul(1 << attempt.min(6)).min(500);
    let j = salt
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
        >> 33;
    Duration::from_millis(cap / 2 + j % (cap / 2 + 1))
}

/// One client's connection to the server, lazily (re)established. With a
/// comma-separated address list the client starts on a salt-determined
/// target (spreading concurrent clients across replicas) and rotates to
/// the next target on every reconnect.
struct WireClient {
    addrs: Vec<String>,
    target: usize,
    retries: u32,
    salt: u64,
    conn: Option<BufReader<TcpStream>>,
}

impl WireClient {
    fn new(addr: &str, retries: u32, salt: u64) -> Self {
        let mut addrs: Vec<String> = addr
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .map(str::to_string)
            .collect();
        if addrs.is_empty() {
            addrs.push(addr.to_string());
        }
        let target = salt as usize % addrs.len();
        WireClient {
            addrs,
            target,
            retries,
            salt,
            conn: None,
        }
    }

    /// Drops the current connection and moves to the next target address.
    fn rotate(&mut self) {
        self.conn = None;
        self.target = self.target.wrapping_add(1) % self.addrs.len();
    }

    /// Sends one request line and reads one reply line, reconnecting and
    /// reissuing (the protocol is stateless per line, so a reissue is
    /// safe) up to the retry budget. Returns the instant the answered
    /// attempt was written alongside the reply, so callers can report
    /// replica latency separately from retry/backoff time.
    fn roundtrip(
        &mut self,
        line: &str,
        retries_made: &AtomicU64,
    ) -> std::io::Result<(Instant, String)> {
        let (sent, mut replies) = self.roundtrip_many(line, 1, retries_made)?;
        Ok((sent, replies.remove(0).1))
    }

    /// Sends one request line and reads `replies` reply lines — the
    /// multi-response shape of a `SolveBatch` line — with the same
    /// reconnect-and-reissue policy as [`WireClient::roundtrip`]. The
    /// returned instant is when the answered attempt's line was written;
    /// each reply carries its receipt instant so per-query latency can
    /// span only until *that* response arrived, not until the whole
    /// batch drained.
    fn roundtrip_many(
        &mut self,
        line: &str,
        replies: usize,
        retries_made: &AtomicU64,
    ) -> std::io::Result<(Instant, Vec<(Instant, String)>)> {
        let mut attempt = 0u32;
        loop {
            match self.try_roundtrip_many(line, replies) {
                Ok(out) => return Ok(out),
                Err(e) => {
                    self.rotate();
                    if attempt >= self.retries {
                        return Err(e);
                    }
                    retries_made.fetch_add(1, Ordering::Relaxed);
                    self.salt = self.salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    std::thread::sleep(backoff_delay(attempt, self.salt));
                    attempt += 1;
                }
            }
        }
    }

    fn try_roundtrip_many(
        &mut self,
        line: &str,
        replies: usize,
    ) -> std::io::Result<(Instant, Vec<(Instant, String)>)> {
        if self.conn.is_none() {
            let addr = &self.addrs[self.target % self.addrs.len()];
            self.conn = Some(BufReader::new(TcpStream::connect(addr)?));
        }
        let reader = self.conn.as_mut().expect("connected above");
        let sent = Instant::now();
        write_line(reader.get_mut(), line)?;
        let mut out = Vec::with_capacity(replies);
        for _ in 0..replies {
            let mut reply = String::new();
            if reader.read_line(&mut reply)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            out.push((Instant::now(), reply));
        }
        Ok((sent, out))
    }
}

/// Classifies one wire response (or its absence) into the tally.
/// `latency_us` spans from the request's first send (includes retries and
/// backoff); `latency_last_us` from its last (the attempt that was
/// answered).
fn tally_response(
    t: &mut Tally,
    response: Option<WireResponse>,
    latency_us: u64,
    latency_last_us: u64,
) {
    match response {
        Some(WireResponse::Solved(r)) => {
            t.record_solved(
                r.rung,
                r.cache_hit,
                r.coalesced,
                r.deadline_missed,
                latency_us,
                latency_last_us,
            );
        }
        Some(WireResponse::Rejected(_)) => t.infeasible += 1,
        Some(WireResponse::Error(e)) => match e.kind {
            ErrorKind::Shed => t.rejected_queue_full += 1,
            ErrorKind::Timeout => t.rejected_expired += 1,
            _ => t.wire_errors += 1,
        },
        // Transport failure past the retry budget, or a reply that did
        // not parse (including an unexpected `Metrics` payload).
        _ => t.wire_errors += 1,
    }
}

/// Splices a numeric id into an already-serialized map-shaped request
/// line: `{"Solve":...}` → `{"id":7,"Solve":...}`. Equivalent to
/// [`proto::encode_request_with_id`] without re-serializing the instance.
fn line_with_id(line: &str, id: u64) -> String {
    debug_assert!(line.starts_with('{'), "request line must be a JSON map");
    format!("{{\"id\":{id},{}", &line[1..])
}

/// A request written to a pipelined connection and not yet answered.
struct Pending {
    /// The full request line, kept for reissue after a connection death.
    line: String,
    /// When it was first sent; first-send latency spans reconnects,
    /// matching the sequential client's retries-inclusive measurement.
    first_send: Instant,
    /// When it was last (re)issued; last-send latency excludes the dead
    /// attempts and the reconnect backoff between them.
    last_send: Instant,
}

/// One pipelined client: keeps up to `depth` ids in flight on a single
/// connection, matches responses by id in whatever order they return,
/// and on a connection death reconnects (with the same backoff budget as
/// the sequential client) and reissues every outstanding id.
#[allow(clippy::too_many_arguments)]
fn run_pipelined_client(
    remote: &RemoteSpec,
    depth: usize,
    mut salt: u64,
    spec: &LoadSpec,
    lines: &[String],
    next: &AtomicUsize,
    retries_made: &AtomicU64,
    tally: &Mutex<Tally>,
    start: Instant,
    interval: Option<Duration>,
) {
    let addrs = remote.addrs();
    let mut conn: Option<BufReader<TcpStream>> = None;
    let mut target = salt as usize % addrs.len();
    let mut outstanding: HashMap<u64, Pending> = HashMap::new();
    let mut order: VecDeque<u64> = VecDeque::new();
    let mut exhausted = false;
    let mut attempt = 0u32;
    loop {
        // (Re)establish the connection, reissuing everything outstanding
        // oldest-first (the protocol is stateless per line, so a reissue
        // is safe). Each reissue restamps `last_send`, so the last-send
        // latency measures only the attempt that gets answered.
        if conn.is_none() {
            let established = TcpStream::connect(addrs[target % addrs.len()])
                .ok()
                .and_then(|s| {
                    let mut reader = BufReader::new(s);
                    for id in &order {
                        let pending = outstanding.get_mut(id).expect("order tracks outstanding");
                        pending.last_send = Instant::now();
                        write_line(reader.get_mut(), &pending.line).ok()?;
                    }
                    Some(reader)
                });
            match established {
                Some(reader) => conn = Some(reader),
                None => {
                    target = target.wrapping_add(1) % addrs.len();
                    if attempt >= remote.retries {
                        // Budget exhausted: fail the whole window like the
                        // sequential client fails its one request, then
                        // start fresh on the remainder.
                        let mut t = lock_recover(tally);
                        t.wire_errors += outstanding.len() as u64;
                        drop(t);
                        outstanding.clear();
                        order.clear();
                        attempt = 0;
                        if exhausted {
                            return;
                        }
                        continue;
                    }
                    retries_made.fetch_add(1, Ordering::Relaxed);
                    salt = salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    std::thread::sleep(backoff_delay(attempt, salt));
                    attempt += 1;
                    continue;
                }
            }
        }
        // Fill the window, writing each request as it is claimed.
        while !exhausted && outstanding.len() < depth {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= spec.requests {
                exhausted = true;
                break;
            }
            if let Some(step) = interval {
                let slot = start + step * i as u32;
                let now = Instant::now();
                if slot > now {
                    std::thread::sleep(slot - now);
                }
            }
            let id = i as u64;
            let line = line_with_id(&lines[i % lines.len()], id);
            let wrote = conn
                .as_mut()
                .is_some_and(|reader| write_line(reader.get_mut(), &line).is_ok());
            let now = Instant::now();
            outstanding.insert(
                id,
                Pending {
                    line,
                    first_send: now,
                    last_send: now,
                },
            );
            order.push_back(id);
            if !wrote {
                conn = None;
                target = target.wrapping_add(1) % addrs.len();
                break;
            }
        }
        if conn.is_none() {
            continue;
        }
        if outstanding.is_empty() {
            return; // exhausted and fully answered
        }
        // Read one reply and match it to its id.
        let mut reply = String::new();
        let read = conn
            .as_mut()
            .map(|reader| reader.read_line(&mut reply))
            .expect("connection established above");
        match read {
            Ok(n) if n > 0 => {
                attempt = 0;
                match proto::decode_response_line(reply.trim()) {
                    Ok((Some(id), response)) if outstanding.contains_key(&id) => {
                        let pos = order
                            .iter()
                            .position(|&x| x == id)
                            .expect("outstanding ids are ordered");
                        order.remove(pos);
                        let pending = outstanding.remove(&id).expect("checked above");
                        let us = pending
                            .first_send
                            .elapsed()
                            .as_micros()
                            .min(u128::from(u64::MAX)) as u64;
                        let us_last = pending
                            .last_send
                            .elapsed()
                            .as_micros()
                            .min(u128::from(u64::MAX)) as u64;
                        let mut t = lock_recover(tally);
                        if pos > 0 {
                            t.out_of_order += 1;
                            t.reorder_depth_max = t.reorder_depth_max.max(pos as u64);
                        }
                        tally_response(&mut t, Some(response), us, us_last);
                    }
                    other => {
                        // An id-less line (e.g. a shed error written at
                        // accept) or an unknown id: charge it to the
                        // oldest outstanding request.
                        if let Some(id) = order.pop_front() {
                            let pending =
                                outstanding.remove(&id).expect("order tracks outstanding");
                            let us = pending
                                .first_send
                                .elapsed()
                                .as_micros()
                                .min(u128::from(u64::MAX))
                                as u64;
                            let us_last = pending
                                .last_send
                                .elapsed()
                                .as_micros()
                                .min(u128::from(u64::MAX))
                                as u64;
                            let response = other.ok().map(|(_, r)| r);
                            tally_response(&mut lock_recover(tally), response, us, us_last);
                        }
                    }
                }
            }
            _ => {
                // EOF or transport error with a window in flight.
                conn = None;
                target = target.wrapping_add(1) % addrs.len();
                if attempt >= remote.retries {
                    let mut t = lock_recover(tally);
                    t.wire_errors += outstanding.len() as u64;
                    drop(t);
                    outstanding.clear();
                    order.clear();
                    attempt = 0;
                    if exhausted {
                        return;
                    }
                    continue;
                }
                retries_made.fetch_add(1, Ordering::Relaxed);
                salt = salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
                std::thread::sleep(backoff_delay(attempt, salt));
                attempt += 1;
            }
        }
    }
}

/// One batched client: claims `batch` request indices per window, sends
/// them as a single `SolveBatch` line (ids = request indices), and reads
/// the per-query responses back, matching them by id. A transport error
/// reissues the whole line (the protocol is stateless per line); a
/// window that exhausts its retry budget is charged to `wire_errors`
/// query by query, like the sequential client's single request.
#[allow(clippy::too_many_arguments)]
fn run_batched_client(
    remote: &RemoteSpec,
    batch: usize,
    salt: u64,
    spec: &LoadSpec,
    pool: &[krsp::Instance],
    next: &AtomicUsize,
    retries_made: &AtomicU64,
    tally: &Mutex<Tally>,
    start: Instant,
    interval: Option<Duration>,
) {
    let mut client = WireClient::new(&remote.addr, remote.retries, salt);
    loop {
        let base = next.fetch_add(batch, Ordering::Relaxed);
        if base >= spec.requests {
            return;
        }
        let count = batch.min(spec.requests - base);
        if let Some(step) = interval {
            // The whole window departs on its first query's arrival slot:
            // batching trades per-query pacing for amortization.
            let slot = start + step * base as u32;
            let now = Instant::now();
            if slot > now {
                std::thread::sleep(slot - now);
            }
        }
        let queries: Vec<BatchQuery> = (0..count)
            .map(|j| BatchQuery {
                id: (base + j) as u64,
                instance: pool[(base + j) % pool.len()].clone(),
                deadline_ms: spec.deadline_ms,
                kernel: spec.kernel,
            })
            .collect();
        let line =
            match serde_json::to_string(&WireRequest::SolveBatch(SolveBatchRequest { queries })) {
                Ok(line) => line,
                Err(_) => {
                    // Unreachable in practice: the pool pre-serialized.
                    lock_recover(tally).wire_errors += count as u64;
                    continue;
                }
            };
        let first_send = Instant::now();
        match client.roundtrip_many(&line, count, retries_made) {
            Ok((last_send, replies)) => {
                let mut expected: VecDeque<u64> = (base as u64..(base + count) as u64).collect();
                for (received, reply) in replies {
                    let us = received
                        .duration_since(first_send)
                        .as_micros()
                        .min(u128::from(u64::MAX)) as u64;
                    let us_last = received
                        .duration_since(last_send)
                        .as_micros()
                        .min(u128::from(u64::MAX)) as u64;
                    match proto::decode_response_line(reply.trim()) {
                        Ok((Some(id), response)) if expected.contains(&id) => {
                            let pos = expected
                                .iter()
                                .position(|&x| x == id)
                                .expect("checked contains above");
                            expected.remove(pos);
                            let mut t = lock_recover(tally);
                            if pos > 0 {
                                t.out_of_order += 1;
                                t.reorder_depth_max = t.reorder_depth_max.max(pos as u64);
                            }
                            tally_response(&mut t, Some(response), us, us_last);
                        }
                        other => {
                            // An id-less or unknown-id line: charge it to
                            // the oldest unanswered query in the window.
                            if expected.pop_front().is_some() {
                                let response = other.ok().map(|(_, r)| r);
                                tally_response(&mut lock_recover(tally), response, us, us_last);
                            }
                        }
                    }
                }
            }
            Err(_) => lock_recover(tally).wire_errors += count as u64,
        }
    }
}

/// Replays `spec` over the NDJSON wire protocol against the server (or
/// comma-separated servers) at `remote.addr`, one TCP connection per
/// client thread. With multiple targets, clients spread their initial
/// connections across the list and rotate to the next target on each
/// reconnect.
///
/// Transport errors reconnect and reissue with backoff; a request that
/// exhausts its retry budget is tallied under `wire_errors` rather than
/// failing the replay. Answered requests contribute to two latency
/// distributions: [`LoadReport::latency`] from the first send (spans
/// retries and backoff) and [`LoadReport::latency_last_send`] from the
/// answered attempt's send. The final metrics snapshot is fetched over a
/// fresh connection (left at its default if the server is already gone).
///
/// With [`LoadSpec::pipeline`] > 1 each client keeps that many requests
/// in flight per connection, tagging them with ids and matching the
/// responses in completion order; the report then carries the observed
/// reordering (`out_of_order_replies`, `reorder_depth_max`) and per-id
/// latencies. A connection that dies mid-window reissues every
/// outstanding id on the replacement connection.
///
/// With [`LoadSpec::batch`] > 1 each client instead groups that many
/// claimed requests into a single `SolveBatch` line per round trip and
/// matches the per-query responses by id; per-query latency spans from
/// the batch line's send to the receipt of the response carrying that
/// query's id.
///
/// # Errors
/// Returns an error when a request line cannot be serialized or when
/// `pipeline` and `batch` are both above 1 (they prescribe conflicting
/// framings for the same connection) — transport failures are absorbed
/// into the report instead.
///
/// # Panics
/// Panics when no feasible instance can be generated from the spec.
pub fn run_remote(spec: &LoadSpec, remote: &RemoteSpec) -> std::io::Result<LoadReport> {
    let pool = build_pool(spec);
    assert!(
        !pool.is_empty(),
        "load spec generated no feasible instances"
    );
    let lines: Vec<String> = pool
        .iter()
        .map(|inst| {
            serde_json::to_string(&WireRequest::Solve(SolveRequest {
                instance: inst.clone(),
                deadline_ms: spec.deadline_ms,
                kernel: spec.kernel,
            }))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
        })
        .collect::<std::io::Result<_>>()?;

    let next = AtomicUsize::new(0);
    let retries_made = AtomicU64::new(0);
    let tally = Mutex::new(Tally::default());
    let start = Instant::now();
    let interval = if spec.qps > 0.0 {
        Some(Duration::from_secs_f64(1.0 / spec.qps))
    } else {
        None
    };

    let depth = spec.pipeline.max(1);
    let batch = spec.batch.max(1);
    if depth > 1 && batch > 1 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "pipeline and batch are mutually exclusive",
        ));
    }
    std::thread::scope(|s| {
        for c in 0..spec.clients.max(1) {
            let (next, retries_made, tally, lines, pool) =
                (&next, &retries_made, &tally, &lines, &pool);
            let salt = spec.seed ^ (c as u64 + 1);
            if batch > 1 {
                s.spawn(move || {
                    run_batched_client(
                        remote,
                        batch,
                        salt,
                        spec,
                        pool,
                        next,
                        retries_made,
                        tally,
                        start,
                        interval,
                    );
                });
                continue;
            }
            if depth > 1 {
                s.spawn(move || {
                    run_pipelined_client(
                        remote,
                        depth,
                        salt,
                        spec,
                        lines,
                        next,
                        retries_made,
                        tally,
                        start,
                        interval,
                    );
                });
                continue;
            }
            let mut client = WireClient::new(&remote.addr, remote.retries, salt);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= spec.requests {
                    break;
                }
                if let Some(step) = interval {
                    let slot = start + step * i as u32;
                    let now = Instant::now();
                    if slot > now {
                        std::thread::sleep(slot - now);
                    }
                }
                let first_send = Instant::now();
                let reply = client.roundtrip(&lines[i % lines.len()], retries_made);
                let received = Instant::now();
                let (last_send, response) = match reply {
                    Ok((sent, r)) => (sent, serde_json::from_str::<WireResponse>(r.trim()).ok()),
                    Err(_) => (first_send, None),
                };
                let us = received
                    .duration_since(first_send)
                    .as_micros()
                    .min(u128::from(u64::MAX)) as u64;
                let us_last = received
                    .duration_since(last_send)
                    .as_micros()
                    .min(u128::from(u64::MAX)) as u64;
                tally_response(&mut lock_recover(tally), response, us, us_last);
            });
        }
    });

    let wall = start.elapsed();
    let t = tally.into_inner().unwrap_or_else(|e| e.into_inner());
    let metrics_line =
        serde_json::to_string(&WireRequest::Metrics).unwrap_or_else(|_| "\"Metrics\"".to_string());
    let service_metrics = WireClient::new(&remote.addr, remote.retries, spec.seed)
        .roundtrip(&metrics_line, &retries_made)
        .ok()
        .and_then(|(_, r)| serde_json::from_str::<WireResponse>(r.trim()).ok())
        .and_then(|r| match r {
            WireResponse::Metrics(m) => Some(m),
            _ => None,
        })
        .unwrap_or_default();
    Ok(build_report(
        spec.requests as u64,
        wall,
        t,
        retries_made.load(Ordering::Relaxed),
        depth as u64,
        batch as u64,
        service_metrics,
    ))
}

/// Shape of a rolling-update replay: windows of repeat traffic separated
/// by epoch advances that ramp a few edge costs, exercising the
/// epoch-aware cache (retention + warm starts) instead of the cold path a
/// plain replay with mutated weights would take.
#[derive(Clone, Debug)]
pub struct RollingSpec {
    /// Replay windows. The first runs against the freshly registered
    /// lineages at epoch 0; each later window runs after one epoch
    /// advance per lineage.
    pub windows: usize,
    /// Edges whose cost is ramped in each advance (per lineage).
    pub ramp_edges: usize,
    /// Cost scale numerator: each picked edge's cost becomes
    /// `ceil(cost · num / den)`. `num ≥ den` keeps the delta
    /// non-decreasing, which is what lets untouched entries survive.
    pub ramp_num: i64,
    /// Cost scale denominator.
    pub ramp_den: i64,
}

impl Default for RollingSpec {
    fn default() -> Self {
        RollingSpec {
            windows: 3,
            ramp_edges: 1,
            ramp_num: 11,
            ramp_den: 10,
        }
    }
}

/// One window of a rolling replay: its traffic outcome plus what the
/// epoch advance that *preceded* it did to the cache (zeros for the
/// first window — nothing precedes it).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WindowReport {
    /// Window index (0-based).
    pub window: u64,
    /// Requests issued in this window.
    pub issued: u64,
    /// Requests answered with a solution.
    pub completed: u64,
    /// Answers served from the cache (memory or disk tier).
    pub cache_hits: u64,
    /// Structured error replies and exhausted-retry transport failures.
    pub wire_errors: u64,
    /// Warm-started fresh solves during this window (server-side counter
    /// delta across the window).
    pub warm_starts: u64,
    /// Disk-tier hits during this window (server-side counter delta).
    pub disk_hits: u64,
    /// Cached entries the preceding advance rekeyed into the new epoch.
    pub advance_retained: u64,
    /// Cached entries the preceding advance evicted.
    pub advance_evicted: u64,
    /// Warm-start seeds the preceding advance left waiting.
    pub advance_seeds: u64,
    /// Latency over all answered requests in this window.
    pub latency: LatencySummary,
    /// Latency over this window's cache hits only.
    pub latency_cache_hit: LatencySummary,
    /// Latency over this window's cache misses only.
    pub latency_cache_miss: LatencySummary,
}

/// The outcome of a rolling-update replay, serializable for `results/`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RollingReport {
    /// Topology lineages registered (one per distinct instance).
    pub lineages: u64,
    /// Replay windows in order.
    pub windows: Vec<WindowReport>,
    /// Reconnect-and-reissue attempts across the whole replay.
    pub transport_retries: u64,
    /// The server's counters after the final window.
    pub service_metrics: MetricsSnapshot,
}

/// Fetches the server's metrics snapshot over `client`; a server that
/// cannot answer yields the default (all-zero) snapshot, mirroring
/// [`run_remote`]'s final fetch.
fn fetch_metrics(client: &mut WireClient, retries_made: &AtomicU64) -> MetricsSnapshot {
    let line =
        serde_json::to_string(&WireRequest::Metrics).unwrap_or_else(|_| "\"Metrics\"".to_string());
    client
        .roundtrip(&line, retries_made)
        .ok()
        .and_then(|(_, r)| serde_json::from_str::<WireResponse>(r.trim()).ok())
        .and_then(|r| match r {
            WireResponse::Metrics(m) => Some(m),
            _ => None,
        })
        .unwrap_or_default()
}

/// Replays a rolling-update scenario over the wire: registers every pool
/// instance's topology as a lineage, then alternates traffic windows with
/// epoch advances whose cost ramps are mirrored onto the client-side
/// instances (so each window's requests match the lineage's *current*
/// weights and land in the epoch-scoped cache lane rather than missing
/// into canonical keys).
///
/// Each window's report carries both client-side outcomes (completion,
/// hits, exact latency order statistics) and server-side counter deltas
/// (`warm_starts`, `disk_hits`) captured from metrics snapshots bracketing
/// the window, plus what the preceding advance retained/evicted/seeded.
///
/// # Errors
/// Returns an error when registration fails (transport or a non-
/// `Registered` reply), when a request line cannot be serialized, or when
/// a ramped instance no longer validates — transport failures *during* a
/// window are absorbed into that window's `wire_errors` instead.
///
/// # Panics
/// Panics when no feasible instance can be generated from the spec.
pub fn run_rolling(
    spec: &LoadSpec,
    rolling: &RollingSpec,
    remote: &RemoteSpec,
) -> std::io::Result<RollingReport> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut pool = build_pool(spec);
    assert!(
        !pool.is_empty(),
        "load spec generated no feasible instances"
    );

    let retries_made = AtomicU64::new(0);
    let mut client = WireClient::new(&remote.addr, remote.retries, spec.seed);

    // Register every instance's topology; the handle (a hex structural
    // digest) names the lineage in later Epoch advances.
    let mut topos: Vec<String> = Vec::with_capacity(pool.len());
    for inst in &pool {
        let line = serde_json::to_string(&WireRequest::Register(proto::RegisterRequest {
            graph: inst.graph.clone(),
        }))
        .map_err(|e| invalid(e.to_string()))?;
        let (_, reply) = client.roundtrip(&line, &retries_made)?;
        match serde_json::from_str::<WireResponse>(reply.trim()) {
            Ok(WireResponse::Registered(r)) => topos.push(r.topo),
            other => {
                return Err(invalid(format!(
                    "registration got a non-Registered reply: {other:?}"
                )))
            }
        }
    }

    let mut windows = Vec::with_capacity(rolling.windows.max(1));
    let mut last_metrics = MetricsSnapshot::default();
    for w in 0..rolling.windows.max(1) {
        // Between windows: one epoch advance per lineage, mirrored onto
        // the client-side instance so its weights keep matching.
        let (mut retained, mut evicted, mut seeds) = (0u64, 0u64, 0u64);
        if w > 0 {
            for (i, inst) in pool.iter_mut().enumerate() {
                let changes = krsp_gen::cost_ramp(
                    &inst.graph,
                    rolling.ramp_edges,
                    rolling.ramp_num,
                    rolling.ramp_den,
                    spec.seed
                        .wrapping_add(7919 * w as u64)
                        .wrapping_add(i as u64),
                );
                let wire: Vec<proto::WireChange> = changes
                    .iter()
                    .map(|c| proto::WireChange {
                        edge: c.edge.0,
                        cost: c.cost,
                        delay: c.delay,
                    })
                    .collect();
                let line = serde_json::to_string(&WireRequest::Epoch(proto::EpochRequest {
                    topo: topos[i].clone(),
                    changes: wire,
                }))
                .map_err(|e| invalid(e.to_string()))?;
                let (_, reply) = client.roundtrip(&line, &retries_made)?;
                match serde_json::from_str::<WireResponse>(reply.trim()) {
                    Ok(WireResponse::Epoch(r)) => {
                        retained += r.retained;
                        evicted += r.evicted;
                        seeds += r.seeds;
                    }
                    other => {
                        return Err(invalid(format!(
                            "epoch advance got a non-Epoch reply: {other:?}"
                        )))
                    }
                }
                let graph = krsp_gen::apply_changes(&inst.graph, &changes);
                *inst = krsp::Instance::new(graph, inst.s, inst.t, inst.k, inst.delay_bound)
                    .map_err(|e| invalid(format!("ramped instance no longer validates: {e}")))?;
            }
        }

        let lines: Vec<String> = pool
            .iter()
            .map(|inst| {
                serde_json::to_string(&WireRequest::Solve(SolveRequest {
                    instance: inst.clone(),
                    deadline_ms: spec.deadline_ms,
                    kernel: spec.kernel,
                }))
                .map_err(|e| invalid(e.to_string()))
            })
            .collect::<std::io::Result<_>>()?;

        let before = fetch_metrics(&mut client, &retries_made);
        let mut t = Tally::default();
        for i in 0..spec.requests {
            let first_send = Instant::now();
            let reply = client.roundtrip(&lines[i % lines.len()], &retries_made);
            let received = Instant::now();
            let (last_send, response) = match reply {
                Ok((sent, r)) => (sent, serde_json::from_str::<WireResponse>(r.trim()).ok()),
                Err(_) => (first_send, None),
            };
            let us = received
                .duration_since(first_send)
                .as_micros()
                .min(u128::from(u64::MAX)) as u64;
            let us_last = received
                .duration_since(last_send)
                .as_micros()
                .min(u128::from(u64::MAX)) as u64;
            tally_response(&mut t, response, us, us_last);
        }
        let after = fetch_metrics(&mut client, &retries_made);

        let all: Vec<u64> = t
            .hit_latencies
            .iter()
            .chain(t.miss_latencies.iter())
            .copied()
            .collect();
        windows.push(WindowReport {
            window: w as u64,
            issued: spec.requests as u64,
            completed: t.completed,
            cache_hits: t.cache_hits,
            wire_errors: t.wire_errors,
            warm_starts: after.warm_starts.saturating_sub(before.warm_starts),
            disk_hits: after.disk_hits.saturating_sub(before.disk_hits),
            advance_retained: retained,
            advance_evicted: evicted,
            advance_seeds: seeds,
            latency: LatencySummary::from_samples(all),
            latency_cache_hit: LatencySummary::from_samples(t.hit_latencies),
            latency_cache_miss: LatencySummary::from_samples(t.miss_latencies),
        });
        last_metrics = after;
    }

    Ok(RollingReport {
        lineages: pool.len() as u64,
        windows,
        transport_retries: retries_made.load(Ordering::Relaxed),
        service_metrics: last_metrics,
    })
}

/// Formats a human-readable one-screen summary of a rolling replay: one
/// line per window.
#[must_use]
pub fn render_rolling(report: &RollingReport) -> String {
    let mut out = format!("lineages {}  windows:", report.lineages);
    for w in &report.windows {
        out.push_str(&format!(
            "\n  w{}: completed {}/{}  hits {}  warm {}  disk {}  \
             advance(retained/evicted/seeds) {}/{}/{}  p50 {} µs (hit {} | miss {})",
            w.window,
            w.completed,
            w.issued,
            w.cache_hits,
            w.warm_starts,
            w.disk_hits,
            w.advance_retained,
            w.advance_evicted,
            w.advance_seeds,
            w.latency.p50_us,
            w.latency_cache_hit.p50_us,
            w.latency_cache_miss.p50_us,
        ));
    }
    out
}

/// Formats a human-readable one-screen summary of a report.
#[must_use]
pub fn render(report: &LoadReport) -> String {
    let r = report;
    let rung_line = Rung::LADDER
        .iter()
        .map(|rg| format!("{rg}={}{}", r.per_rung[rg.index()], rg.guarantee()))
        .collect::<Vec<_>>()
        .join(" ");
    let pipeline_line = if r.pipeline_depth > 1 {
        format!(
            "\npipeline: depth {}  out-of-order {}  (max reorder depth {})",
            r.pipeline_depth, r.out_of_order_replies, r.reorder_depth_max
        )
    } else if r.batch_size > 1 {
        format!(
            "\nbatch: size {}  out-of-order {}  (max reorder depth {})",
            r.batch_size, r.out_of_order_replies, r.reorder_depth_max
        )
    } else {
        String::new()
    };
    let retry_line = if r.transport_retries > 0 {
        format!(
            "\nlast-send µs: p50 {}  p99 {}  max {}  (excludes reconnect backoff)",
            r.latency_last_send.p50_us, r.latency_last_send.p99_us, r.latency_last_send.max_us
        )
    } else {
        String::new()
    };
    format!(
        "issued {}  completed {}  rejected(queue/deadline) {}/{}  infeasible {}  errors {}  retries {}\n\
         wall {:.3}s  throughput {:.1} req/s  deadline-missed {}\n\
         latency µs: p50 {}  p95 {}  p99 {}  mean {:.0}  max {}{retry_line}\n\
         cache: hits {}  coalesced {}  (hit p50 {} µs | miss p50 {} µs)\n\
         rungs: {rung_line}{pipeline_line}",
        r.issued,
        r.completed,
        r.rejected_queue_full,
        r.rejected_expired,
        r.infeasible,
        r.wire_errors,
        r.transport_retries,
        r.wall_s,
        r.achieved_qps,
        r.deadline_missed,
        r.latency.p50_us,
        r.latency.p95_us,
        r.latency.p99_us,
        r.latency.mean_us,
        r.latency.max_us,
        r.cache_hits,
        r.coalesced,
        r.latency_cache_hit.p50_us,
        r.latency_cache_miss.p50_us,
    )
}

#[cfg(test)]
// Tests may unwrap: a panic is exactly the failure report we want there.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    #[test]
    fn replay_reaches_the_cache() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let spec = LoadSpec {
            requests: 24,
            unique: 3,
            clients: 2,
            n: 24,
            ..LoadSpec::default()
        };
        let report = run(&svc, &spec);
        assert_eq!(report.issued, 24);
        assert_eq!(
            report.completed + report.infeasible + report.rejected_queue_full,
            24
        );
        assert!(report.cache_hits > 0, "no cache hits in cycled replay");
        assert!(report.latency.count >= report.cache_hits);
        let text = serde_json::to_string(&report).unwrap();
        let back: LoadReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.completed, report.completed);
        assert!(!render(&report).is_empty());
    }

    #[test]
    fn spliced_id_matches_the_canonical_encoder() {
        let spec = LoadSpec {
            unique: 1,
            n: 24,
            ..LoadSpec::default()
        };
        let inst = build_pool(&spec).remove(0);
        let req = WireRequest::Solve(SolveRequest {
            instance: inst,
            deadline_ms: Some(250),
            kernel: None,
        });
        let plain = serde_json::to_string(&req).unwrap();
        assert_eq!(
            line_with_id(&plain, 7),
            proto::encode_request_with_id(7, &req)
        );
    }

    #[test]
    fn latency_summary_is_exact() {
        let s = LatencySummary::from_samples((1..=100).collect());
        assert_eq!(s.p50_us, 50);
        assert_eq!(s.p95_us, 95);
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.max_us, 100);
        assert_eq!(s.count, 100);
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
    }

    #[test]
    fn empty_samples_summarize_to_zeros_not_nan() {
        let s = LatencySummary::from_samples(Vec::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.max_us, 0);
        assert!(
            s.mean_us == 0.0 && s.mean_us.is_finite(),
            "empty replay must report a zero mean, not 0/0 = NaN"
        );
        // NaN would serialize as `null` and fail to deserialize back into
        // an f64 — the report must survive a JSON round trip.
        let text = serde_json::to_string(&s).unwrap();
        assert!(!text.contains("null"), "NaN leaked into the JSON: {text}");
        let back: LatencySummary = serde_json::from_str(&text).unwrap();
        assert_eq!(back.count, 0);
    }

    #[test]
    fn batched_replay_round_trips_over_the_wire() {
        use crate::proto::serve_on;
        use std::net::TcpListener;

        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let _ = serve_on(&svc, listener);
            });
        }
        let spec = LoadSpec {
            requests: 24,
            unique: 2,
            clients: 2,
            batch: 4,
            n: 24,
            ..LoadSpec::default()
        };
        let remote = RemoteSpec {
            addr: addr.to_string(),
            retries: 2,
        };
        let report = run_remote(&spec, &remote).unwrap();
        assert_eq!(report.issued, 24);
        assert_eq!(report.batch_size, 4);
        assert_eq!(report.wire_errors, 0, "batched replay hit wire errors");
        assert_eq!(
            report.completed + report.infeasible + report.rejected_queue_full,
            24,
            "every batched query must be answered exactly once"
        );
        assert!(report.latency.count > 0);
        assert!(render(&report).contains("batch: size 4"));

        // pipeline and batch together is an input error, not a replay.
        let bad = LoadSpec {
            pipeline: 2,
            batch: 2,
            ..spec
        };
        assert!(run_remote(&bad, &remote).is_err());
    }

    #[test]
    fn remote_spec_splits_and_never_yields_an_empty_list() {
        let spec = RemoteSpec {
            addr: "a:1, b:2 ,,c:3".to_string(),
            retries: 0,
        };
        assert_eq!(spec.addrs(), vec!["a:1", "b:2", "c:3"]);
        let empty = RemoteSpec {
            addr: String::new(),
            retries: 0,
        };
        assert_eq!(empty.addrs(), vec![""]);
    }

    #[test]
    fn retried_requests_rotate_targets_and_report_both_latency_views() {
        use crate::proto::serve_on;
        use std::net::TcpListener;

        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        // A dead target (bound then dropped, so connects are refused) in
        // front of a live one: the client must start on the dead target,
        // burn one retry with backoff, rotate, and complete everything.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let live = listener.local_addr().unwrap();
        {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let _ = serve_on(&svc, listener);
            });
        }
        // One client: salt = seed ^ 1 must be even so the initial target
        // (salt % 2) is the dead address.
        let spec = LoadSpec {
            requests: 8,
            unique: 2,
            clients: 1,
            seed: 43, // 43 ^ 1 == 42
            n: 24,
            ..LoadSpec::default()
        };
        let remote = RemoteSpec {
            addr: format!("{dead},{live}"),
            retries: 2,
        };
        let report = run_remote(&spec, &remote).unwrap();
        assert_eq!(
            report.wire_errors, 0,
            "rotation did not reach the live target"
        );
        assert_eq!(report.completed + report.infeasible, 8);
        assert!(
            report.transport_retries >= 1,
            "the dead target must have cost at least one retry"
        );
        // Both distributions cover every answered request; the first-send
        // view additionally carries the reconnect backoff (≥ 5 ms for the
        // first attempt), the last-send view must not.
        assert_eq!(report.latency_last_send.count, report.latency.count);
        assert!(
            report.latency.max_us >= 5_000,
            "first-send latency should include the backoff: {:?}",
            report.latency
        );
        assert!(
            report.latency.max_us >= report.latency_last_send.max_us,
            "last-send latency exceeded first-send: {:?} vs {:?}",
            report.latency_last_send,
            report.latency
        );
        assert!(render(&report).contains("last-send"));
    }

    #[test]
    fn rolling_replay_advances_epochs_between_windows() {
        use crate::proto::serve_on;
        use std::net::TcpListener;

        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let _ = serve_on(&svc, listener);
            });
        }
        let spec = LoadSpec {
            requests: 8,
            unique: 2,
            clients: 1,
            n: 24,
            ..LoadSpec::default()
        };
        let rolling = RollingSpec {
            windows: 3,
            ramp_edges: 1,
            ramp_num: 11,
            ramp_den: 10,
        };
        let remote = RemoteSpec {
            addr: addr.to_string(),
            retries: 2,
        };
        let report = run_rolling(&spec, &rolling, &remote).unwrap();
        assert_eq!(report.lineages, 2);
        assert_eq!(report.windows.len(), 3);
        for w in &report.windows {
            assert_eq!(w.issued, 8);
            assert_eq!(w.wire_errors, 0, "window {} hit wire errors", w.window);
            assert_eq!(w.completed, 8, "window {} lost answers", w.window);
        }
        // Cycling 2 instances through 8 requests repeats each 4× — the
        // repeats must hit the (epoch-scoped) cache in every window.
        assert!(
            report.windows.iter().all(|w| w.cache_hits >= 4),
            "epoch-scoped keys missed the cache: {report:?}"
        );
        // The first window has no preceding advance; every later one
        // swept each lineage's cache and accounted every entry.
        assert_eq!(report.windows[0].advance_retained, 0);
        assert_eq!(report.windows[0].advance_evicted, 0);
        for w in &report.windows[1..] {
            assert!(
                w.advance_retained + w.advance_evicted > 0,
                "advance before window {} touched no entries: {report:?}",
                w.window
            );
        }
        assert!(report.service_metrics.epoch_advances >= 4);
        let text = serde_json::to_string(&report).unwrap();
        let back: RollingReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.windows.len(), 3);
        assert!(render_rolling(&report).contains("w2:"));
    }
}
