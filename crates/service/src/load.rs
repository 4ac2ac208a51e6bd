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
//! [`run_remote`] and every [`run_rolling`] window replay the same workload
//! over the NDJSON wire protocol against a running `krsp-cli serve` (or
//! `krsp-cli route`). Each client thread owns one connection and one
//! window of id-carrying requests, and follows one set of rules for
//! framing, reply matching and reissue (see [`run_remote`]), so a
//! restarting or briefly absent server does not fail the replay.

use crate::degrade::Rung;
use crate::metrics::{quantile_rank, MetricsSnapshot};
use crate::proto::{self, write_line, ErrorKind, SolveRequest, WireRequest, WireResponse};
use crate::service::{Request, Service};
use crate::sync_util::lock_recover;
use krsp_gen::{Family, Regime, Workload};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::ops::Range;
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
    /// Requests kept in flight per connection in wire replays, each on its
    /// own id-carrying line and matched by id in whatever order the
    /// replies return. `0`/`1` is one at a time. Ignored by in-process
    /// replays (clients are the concurrency there).
    pub pipeline: usize,
    /// Queries grouped into each `SolveBatch` wire line in wire replays.
    /// `0`/`1` sends one-query `Solve` lines; `N > 1` sends each window of
    /// `N` claimed requests as one batch line and matches the per-query
    /// replies by id. Mutually exclusive with `pipeline > 1`; ignored by
    /// in-process replays.
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
    /// Requests kept in flight per connection (1 = one at a time).
    /// Latencies are measured **per id** — send of a request to receipt of
    /// the response carrying its id — so pipelined numbers are true
    /// per-request latencies, not window times.
    pub pipeline_depth: u64,
    /// Queries per `SolveBatch` wire request (1 = plain `Solve` lines).
    /// Latencies are per query — send of the batch line to receipt of the
    /// response carrying that query's id.
    pub batch_size: u64,
    /// Responses that arrived before an earlier-submitted request's
    /// response on the same connection (wire replays only).
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
    /// Classifies one outcome, in the wire's terms.
    fn record(&mut self, a: Answer) {
        if a.overtook > 0 {
            self.out_of_order += 1;
            self.reorder_depth_max = self.reorder_depth_max.max(a.overtook);
        }
        match a.response {
            Some(WireResponse::Solved(r)) => {
                self.completed += 1;
                self.per_rung[r.rung.index()] += u64::from(!r.cache_hit && !r.coalesced);
                self.deadline_missed += u64::from(r.deadline_missed);
                self.cache_hits += u64::from(r.cache_hit);
                self.coalesced += u64::from(r.coalesced);
                if r.cache_hit {
                    self.hit_latencies.push(a.first_us);
                } else {
                    self.miss_latencies.push(a.first_us);
                }
                self.last_send_latencies.push(a.last_us);
            }
            Some(WireResponse::Rejected(_)) => self.infeasible += 1,
            Some(WireResponse::Error(e)) => match e.kind {
                ErrorKind::Shed => self.rejected_queue_full += 1,
                ErrorKind::Timeout => self.rejected_expired += 1,
                _ => self.wire_errors += 1,
            },
            // Transport failure past the retry budget, or a reply that did
            // not parse (including an unexpected `Metrics` payload).
            _ => self.wire_errors += 1,
        }
    }
}

/// The requests one replay issues. Every client claims from one shared
/// counter, and a request's index doubles as its wire id.
struct Work {
    requests: usize,
    next: AtomicUsize,
    /// The fixed-rate arrival clock: request `i` leaves no earlier than
    /// `start + i · step`; no step is an open throttle.
    start: Instant,
    step: Option<Duration>,
}

impl Work {
    fn new(requests: usize, qps: f64) -> Self {
        Work {
            requests,
            next: AtomicUsize::new(0),
            start: Instant::now(),
            step: (qps > 0.0).then(|| Duration::from_secs_f64(1.0 / qps)),
        }
    }

    /// Claims the next `count` requests (fewer at the end of the replay)
    /// once the first one's arrival slot has come.
    fn claim(&self, count: usize) -> Option<Range<u64>> {
        let base = self.next.fetch_add(count, Ordering::Relaxed);
        if base >= self.requests {
            return None;
        }
        if let Some(step) = self.step {
            let slot = self.start + step * base as u32;
            let now = Instant::now();
            if slot > now {
                std::thread::sleep(slot - now);
            }
        }
        Some(base as u64..(base + count).min(self.requests) as u64)
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

    let work = Work::new(spec.requests, spec.qps);
    let tally = Mutex::new(Tally::default());
    std::thread::scope(|s| {
        for _ in 0..spec.clients.max(1) {
            s.spawn(|| {
                while let Some(ids) = work.claim(1) {
                    let out = service.provision(Request {
                        instance: pool[ids.start as usize % pool.len()].clone(),
                        deadline: spec.deadline_ms.map(Duration::from_millis),
                        kernel: spec.kernel,
                    });
                    // In-process there is no transport: the service's own
                    // latency is both the first- and the last-send view.
                    let us = out.as_ref().map_or(0, |r| micros(r.latency));
                    lock_recover(&tally).record(Answer {
                        response: Some(proto::solve_response(out)),
                        first_us: us,
                        last_us: us,
                        overtook: 0,
                    });
                }
            });
        }
    });

    let wall = work.start.elapsed();
    let t = tally.into_inner().unwrap_or_else(|e| e.into_inner());
    build_report(spec.requests as u64, wall, t, 0, 1, 1, service.metrics())
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Latency over every answer, over the cache hits, and over the misses.
fn summaries(hits: Vec<u64>, misses: Vec<u64>) -> [LatencySummary; 3] {
    let all = hits.iter().chain(&misses).copied().collect();
    [all, hits, misses].map(LatencySummary::from_samples)
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
    let [latency, latency_cache_hit, latency_cache_miss] =
        summaries(t.hit_latencies, t.miss_latencies);
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
        latency,
        latency_cache_hit,
        latency_cache_miss,
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
    /// Reconnect-and-reissue attempts after a transport error, with
    /// jittered exponential backoff between attempts. The count resets on
    /// every reply; once it is spent, every request still outstanding on
    /// the connection is tallied under `wire_errors`.
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

/// How a windowed client frames its requests: at most `lines` lines on
/// the wire, each carrying `per_line` requests. With more than one per
/// line, each line is one `SolveBatch` and the window refills only once
/// it has drained.
#[derive(Clone, Copy)]
struct Shape {
    lines: usize,
    per_line: usize,
}

impl Shape {
    const ONE: Shape = Shape {
        lines: 1,
        per_line: 1,
    };

    /// The window `spec` asks for, `max(pipeline, batch, 1)` deep:
    /// `pipeline` lines of one request, or one line of `batch`.
    fn of(spec: &LoadSpec) -> std::io::Result<Shape> {
        if spec.pipeline > 1 && spec.batch > 1 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "pipeline and batch are mutually exclusive",
            ));
        }
        Ok(Shape {
            lines: spec.pipeline.max(1),
            per_line: spec.batch.max(1),
        })
    }

    fn batch(self) -> bool {
        self.per_line > 1
    }
}

/// What a windowed client sends.
enum Requests<'a> {
    /// Solves cycled by request index from pre-serialized id-less `Solve`
    /// lines.
    Solves(&'a [String]),
    /// One control request (`Register`, `Epoch`, `Metrics`).
    Control(&'a WireRequest),
}

impl Requests<'_> {
    /// Renders the requests `ids` as one wire line: a `SolveBatch` line in
    /// batch framing, otherwise the one request carrying its id.
    fn render(&self, ids: &[u64], batch: bool) -> String {
        match *self {
            Requests::Control(request) => proto::encode_request_with_id(ids[0], request),
            Requests::Solves(lines) if batch => batch_with_ids(lines, ids),
            Requests::Solves(lines) => line_with_id(&lines[ids[0] as usize % lines.len()], ids[0]),
        }
    }
}

/// Splices a numeric id into an already-serialized map-shaped request
/// line: `{"Solve":...}` → `{"id":7,"Solve":...}`. Equivalent to
/// [`proto::encode_request_with_id`] without re-serializing the instance.
fn line_with_id(line: &str, id: u64) -> String {
    debug_assert!(line.starts_with('{'), "request line must be a JSON map");
    format!("{{\"id\":{id},{}", &line[1..])
}

/// Splices the `Solve` payloads of `ids` (cycled from `lines`) into one
/// `SolveBatch` line whose queries carry those ids. Equivalent to
/// serializing a [`WireRequest::SolveBatch`] without re-serializing the
/// instances.
fn batch_with_ids(lines: &[String], ids: &[u64]) -> String {
    let mut out = String::from("{\"SolveBatch\":{\"queries\":[");
    for (n, &id) in ids.iter().enumerate() {
        let solve = &lines[id as usize % lines.len()];
        let payload = solve
            .strip_prefix("{\"Solve\":{")
            .and_then(|rest| rest.strip_suffix('}'))
            .expect("a serialized Solve line");
        let sep = if n == 0 { "" } else { "," };
        let _ = write!(out, "{sep}{{\"id\":{id},{payload}");
    }
    out.push_str("]}}");
    out
}

/// One request that a client has sent and not yet seen answered.
struct Pending {
    id: u64,
    /// First send: first-send latency spans every reconnect and backoff.
    first_send: Instant,
    /// Latest (re)issue: last-send latency covers only the answered
    /// attempt.
    last_send: Instant,
}

impl Pending {
    fn answer(&self, response: Option<WireResponse>, received: Instant, overtook: u64) -> Answer {
        Answer {
            response,
            first_us: micros(received - self.first_send),
            last_us: micros(received - self.last_send),
            overtook,
        }
    }
}

/// One request's outcome as its windowed client saw it.
struct Answer {
    /// The reply; `None` when the retry budget ran out or the reply did not
    /// parse.
    response: Option<WireResponse>,
    first_us: u64,
    last_us: u64,
    /// Earlier-sent requests still unanswered when the reply arrived.
    overtook: u64,
}

/// The lines a client has on the wire, oldest first, each holding its
/// unanswered requests in send order.
type Window = VecDeque<Vec<Pending>>;

/// Removes request `id` from the window, with how many earlier-sent
/// requests are still unanswered.
fn take(window: &mut Window, id: u64) -> Option<(Pending, u64)> {
    let mut earlier = 0;
    for l in 0..window.len() {
        if let Some(q) = window[l].iter().position(|p| p.id == id) {
            let pending = window[l].remove(q);
            if window[l].is_empty() {
                window.remove(l);
            }
            return Some((pending, earlier + q as u64));
        }
        earlier += window[l].len() as u64;
    }
    None
}

/// One client's connection, lazily (re)established. With a
/// comma-separated address list the client starts on a salt-determined
/// target (spreading concurrent clients across replicas) and rotates to
/// the next target on every reconnect.
struct WireClient<'a> {
    addrs: Vec<&'a str>,
    target: usize,
    retries: u32,
    salt: u64,
    conn: Option<BufReader<TcpStream>>,
}

impl<'a> WireClient<'a> {
    fn new(remote: &'a RemoteSpec, salt: u64) -> Self {
        let addrs = remote.addrs();
        WireClient {
            target: salt as usize % addrs.len(),
            addrs,
            retries: remote.retries,
            salt,
            conn: None,
        }
    }

    /// Sends `work` over this client's connection and hands every
    /// request's outcome to `answer`, exactly once each; returns when the
    /// work is claimed and answered.
    ///
    /// * Window: up to `shape.lines` lines stay on the wire, refilled
    ///   whenever one has been answered in full.
    /// * Matching: a reply with an outstanding id answers that request. A
    ///   reply with no id or an unknown id (a shed at accept, an oversize
    ///   batch line) answers the oldest line: every request it still
    ///   carries.
    /// * Reissue: a dead connection rotates to the next target, backs off,
    ///   and re-sends only the unanswered requests, each line re-rendered
    ///   from the requests it still carries. The attempt count resets on
    ///   any reply; once `retries` is spent, every outstanding request is
    ///   answered with `None`.
    fn drive(
        &mut self,
        requests: &Requests,
        work: &Work,
        shape: Shape,
        retries_made: &AtomicU64,
        answer: &mut dyn FnMut(Answer),
    ) {
        let mut window = Window::new();
        let mut attempt = 0u32;
        loop {
            if self.conn.is_none() && !window.is_empty() {
                if self
                    .reconnect(&mut window, requests, shape.batch())
                    .is_err()
                {
                    self.fail(&mut window, &mut attempt, retries_made, answer);
                }
                continue;
            }
            let claimed = if window.len() < shape.lines {
                work.claim(shape.per_line)
            } else {
                None
            };
            if let Some(ids) = claimed {
                let ids: Vec<u64> = ids.collect();
                let now = Instant::now();
                window.push_back(
                    ids.iter()
                        .map(|&id| Pending {
                            id,
                            first_send: now,
                            last_send: now,
                        })
                        .collect(),
                );
                let sent = match self.conn.as_mut() {
                    Some(conn) => write_line(conn.get_mut(), &requests.render(&ids, shape.batch())),
                    None => self.reconnect(&mut window, requests, shape.batch()),
                };
                if sent.is_err() {
                    self.fail(&mut window, &mut attempt, retries_made, answer);
                }
                continue;
            }
            if window.is_empty() {
                return; // nothing outstanding and nothing left to claim
            }
            let conn = self.conn.as_mut().expect("a sent window has a connection");
            let mut reply = String::new();
            match conn.read_line(&mut reply) {
                Ok(n) if n > 0 => {
                    attempt = 0;
                    let received = Instant::now();
                    let decoded = proto::decode_response_line(reply.trim());
                    let matched = match decoded {
                        Ok((Some(id), _)) => take(&mut window, id),
                        _ => None,
                    };
                    let response = decoded.ok().map(|(_, r)| r);
                    match matched {
                        Some((pending, overtook)) => {
                            answer(pending.answer(response, received, overtook));
                        }
                        None => {
                            for pending in window.pop_front().unwrap_or_default() {
                                answer(pending.answer(response.clone(), received, 0));
                            }
                        }
                    }
                }
                _ => self.fail(&mut window, &mut attempt, retries_made, answer),
            }
        }
    }

    /// Connects to the current target and (re)sends every line in the
    /// window, restamping each request's last send.
    fn reconnect(
        &mut self,
        window: &mut Window,
        requests: &Requests,
        batch: bool,
    ) -> std::io::Result<()> {
        let mut conn = BufReader::new(TcpStream::connect(self.addrs[self.target])?);
        for line in window.iter_mut() {
            let ids: Vec<u64> = line.iter().map(|p| p.id).collect();
            let text = requests.render(&ids, batch);
            let now = Instant::now();
            for pending in line.iter_mut() {
                pending.last_send = now;
            }
            write_line(conn.get_mut(), &text)?;
        }
        self.conn = Some(conn);
        Ok(())
    }

    /// A transport error: drop the connection and rotate to the next
    /// target, then back off for a reissue — or, with the budget spent,
    /// answer everything outstanding with `None`.
    fn fail(
        &mut self,
        window: &mut Window,
        attempt: &mut u32,
        retries_made: &AtomicU64,
        answer: &mut dyn FnMut(Answer),
    ) {
        self.conn = None;
        self.target = (self.target + 1) % self.addrs.len();
        if *attempt >= self.retries {
            *attempt = 0;
            let now = Instant::now();
            for pending in window.drain(..).flatten() {
                answer(pending.answer(None, now, 0));
            }
            return;
        }
        retries_made.fetch_add(1, Ordering::Relaxed);
        self.salt = self.salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
        std::thread::sleep(backoff_delay(*attempt, self.salt));
        *attempt += 1;
    }

    /// Sends one control request and returns its reply.
    fn call(
        &mut self,
        request: &WireRequest,
        retries_made: &AtomicU64,
    ) -> std::io::Result<WireResponse> {
        let mut reply = None;
        self.drive(
            &Requests::Control(request),
            &Work::new(1, 0.0),
            Shape::ONE,
            retries_made,
            &mut |a| reply = a.response,
        );
        reply.ok_or_else(|| {
            std::io::Error::other("no parseable reply to a control request within the retry budget")
        })
    }
}

/// Fetches the server's metrics snapshot over `client`; a server that
/// cannot answer yields the default (all-zero) snapshot.
fn fetch_metrics(client: &mut WireClient, retries_made: &AtomicU64) -> MetricsSnapshot {
    match client.call(&WireRequest::Metrics, retries_made) {
        Ok(WireResponse::Metrics(m)) => m,
        _ => MetricsSnapshot::default(),
    }
}

/// Serializes one id-less `Solve` line per pool instance.
fn solve_lines(pool: &[krsp::Instance], spec: &LoadSpec) -> std::io::Result<Vec<String>> {
    pool.iter()
        .map(|inst| {
            serde_json::to_string(&WireRequest::Solve(SolveRequest {
                instance: inst.clone(),
                deadline_ms: spec.deadline_ms,
                kernel: spec.kernel,
            }))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
        })
        .collect()
}

/// Replays `spec.requests` solves cycled from `lines` over `spec.clients`
/// windowed clients, one connection each, at `spec.qps`.
fn replay(
    spec: &LoadSpec,
    remote: &RemoteSpec,
    lines: &[String],
    retries_made: &AtomicU64,
) -> std::io::Result<Tally> {
    let shape = Shape::of(spec)?;
    let work = Work::new(spec.requests, spec.qps);
    let tally = Mutex::new(Tally::default());
    std::thread::scope(|s| {
        for c in 0..spec.clients.max(1) {
            let (work, tally) = (&work, &tally);
            s.spawn(move || {
                WireClient::new(remote, spec.seed ^ (c as u64 + 1)).drive(
                    &Requests::Solves(lines),
                    work,
                    shape,
                    retries_made,
                    &mut |a| lock_recover(tally).record(a),
                );
            });
        }
    });
    Ok(tally.into_inner().unwrap_or_else(|e| e.into_inner()))
}

/// Replays `spec` over the NDJSON wire protocol against the server (or
/// comma-separated servers) at `remote.addr`, one TCP connection per
/// client thread. With multiple targets, clients spread their initial
/// connections across the list and rotate to the next target on each
/// reconnect.
///
/// Every client keeps a window of `max(pipeline, batch, 1)` requests in
/// flight, each carrying its id. With [`LoadSpec::batch`] > 1 a window
/// leaves as one `SolveBatch` line and the next is claimed once it has
/// drained; otherwise each request is its own line and the window refills
/// as replies arrive. Replies are matched by id, in completion order (the
/// report carries the observed reordering, `out_of_order_replies` and
/// `reorder_depth_max`); a reply without a known id answers the oldest
/// line on the connection, every query it still carries.
///
/// Transport errors reconnect and re-send only the unanswered requests,
/// with backoff; requests still outstanding once the retry budget is
/// spent are tallied under `wire_errors` rather than failing the replay.
/// Answered requests contribute to two latency distributions:
/// [`LoadReport::latency`] from the first send (spans retries and
/// backoff) and [`LoadReport::latency_last_send`] from the answered
/// attempt's send; in batch framing both run to the receipt of that
/// query's own reply. The final metrics snapshot is fetched over a fresh
/// connection (left at its default if the server is already gone).
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
    let lines = solve_lines(&pool, spec)?;
    let retries_made = AtomicU64::new(0);
    let start = Instant::now();
    let t = replay(spec, remote, &lines, &retries_made)?;
    let wall = start.elapsed();
    let service_metrics = fetch_metrics(&mut WireClient::new(remote, spec.seed), &retries_made);
    Ok(build_report(
        spec.requests as u64,
        wall,
        t,
        retries_made.load(Ordering::Relaxed),
        spec.pipeline.max(1) as u64,
        spec.batch.max(1) as u64,
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

/// Replays a rolling-update scenario over the wire: registers every pool
/// instance's topology as a lineage, then alternates traffic windows with
/// epoch advances whose cost ramps are mirrored onto the client-side
/// instances (so each window's requests match the lineage's *current*
/// weights and land in the epoch-scoped cache lane rather than missing
/// into canonical keys). Each window is a [`run_remote`]-shaped replay of
/// `spec` — its clients, window shape and arrival rate — while
/// registration, advances and metrics go over one control connection.
///
/// Each window's report carries both client-side outcomes (completion,
/// hits, exact latency order statistics) and server-side counter deltas
/// (`warm_starts`, `disk_hits`) captured from metrics snapshots bracketing
/// the window, plus what the preceding advance retained/evicted/seeded.
///
/// # Errors
/// Returns an error when registration fails (transport or a non-
/// `Registered` reply), when a request line cannot be serialized, when
/// `pipeline` and `batch` are both above 1, or when a ramped instance no
/// longer validates — transport failures *during* a window are absorbed
/// into that window's `wire_errors` instead.
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
    let mut control = WireClient::new(remote, spec.seed);

    // Register every instance's topology; the handle (a hex structural
    // digest) names the lineage in later Epoch advances.
    let mut topos: Vec<String> = Vec::with_capacity(pool.len());
    for inst in &pool {
        let register = WireRequest::Register(proto::RegisterRequest {
            graph: inst.graph.clone(),
        });
        match control.call(&register, &retries_made)? {
            WireResponse::Registered(r) => topos.push(r.topo),
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
                let advance = WireRequest::Epoch(proto::EpochRequest {
                    topo: topos[i].clone(),
                    changes: changes
                        .iter()
                        .map(|c| proto::WireChange {
                            edge: c.edge.0,
                            cost: c.cost,
                            delay: c.delay,
                        })
                        .collect(),
                });
                match control.call(&advance, &retries_made)? {
                    WireResponse::Epoch(r) => {
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

        let lines = solve_lines(&pool, spec)?;
        let before = fetch_metrics(&mut control, &retries_made);
        let t = replay(spec, remote, &lines, &retries_made)?;
        let after = fetch_metrics(&mut control, &retries_made);

        let [latency, latency_cache_hit, latency_cache_miss] =
            summaries(t.hit_latencies, t.miss_latencies);
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
            latency,
            latency_cache_hit,
            latency_cache_miss,
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
    use crate::proto::{BatchQuery, SolveBatchRequest};
    use crate::service::ServiceConfig;
    use serde::Content;
    use std::io::Write;
    use std::net::SocketAddr;
    use std::sync::mpsc::{self, Receiver};

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
    fn spliced_lines_match_the_canonical_encoders() {
        let spec = LoadSpec {
            unique: 2,
            n: 24,
            deadline_ms: Some(250),
            kernel: Some(krsp::KernelKind::Interval),
            ..LoadSpec::default()
        };
        let pool = build_pool(&spec);
        let lines = solve_lines(&pool, &spec).unwrap();
        let req = WireRequest::Solve(SolveRequest {
            instance: pool[0].clone(),
            deadline_ms: Some(250),
            kernel: Some(krsp::KernelKind::Interval),
        });
        assert_eq!(
            line_with_id(&lines[0], 7),
            proto::encode_request_with_id(7, &req)
        );
        let batch = WireRequest::SolveBatch(SolveBatchRequest {
            queries: [5u64, 2, 9]
                .iter()
                .map(|&id| BatchQuery {
                    id,
                    instance: pool[id as usize % pool.len()].clone(),
                    deadline_ms: Some(250),
                    kernel: Some(krsp::KernelKind::Interval),
                })
                .collect(),
        });
        assert_eq!(
            batch_with_ids(&lines, &[5, 2, 9]),
            serde_json::to_string(&batch).unwrap()
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

    #[test]
    fn an_oversize_batch_line_is_answered_instead_of_awaited() {
        use crate::proto::serve_on;
        use std::net::TcpListener;

        let svc = Service::new(ServiceConfig {
            workers: 1,
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
        // One window of 64 queries at n = 1200 (~200 KB each) leaves as
        // one `SolveBatch` line past the server's line cap. The server
        // answers it with one id-less `oversize_line` error and keeps the
        // connection open, so that error must answer every query of the
        // line: a client that waits for 64 replies waits forever.
        let spec = LoadSpec {
            requests: 64,
            unique: 1,
            clients: 1,
            batch: 64,
            n: 1200,
            ..LoadSpec::default()
        };
        let lines = solve_lines(&build_pool(&spec), &spec).unwrap();
        let ids: Vec<u64> = (0..64).collect();
        assert!(batch_with_ids(&lines, &ids).len() > proto::MAX_LINE_BYTES);
        let remote = RemoteSpec {
            addr: addr.to_string(),
            retries: 2,
        };
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(run_remote(&spec, &remote));
        });
        let report = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("the replay is still waiting for replies to an oversize line")
            .unwrap();
        assert_eq!(report.issued, 64);
        assert_eq!(report.wire_errors, 64, "report: {report:?}");
        assert_eq!(report.completed, 0);
        assert_eq!(report.transport_retries, 0);
    }

    /// The `(id, request)` pairs one request line carries: one for a
    /// plain line, one per query for a `SolveBatch` line.
    fn queries(line: &str) -> Vec<(u64, WireRequest)> {
        let decoded = proto::decode_request_line(line);
        match decoded.request.unwrap() {
            WireRequest::SolveBatch(batch) => batch
                .queries
                .into_iter()
                .map(|q| {
                    let solve = SolveRequest {
                        instance: q.instance,
                        deadline_ms: q.deadline_ms,
                        kernel: q.kernel,
                    };
                    (q.id, WireRequest::Solve(solve))
                })
                .collect(),
            request => match decoded.id {
                Some(Content::Int(id)) => vec![(u64::try_from(id).unwrap(), request)],
                other => panic!("request line without a numeric id: {other:?}"),
            },
        }
    }

    /// What one connection received: per line, whether it was a
    /// `SolveBatch` line and the ids it carried.
    type Received = Vec<(bool, Vec<u64>)>;

    /// A stub server for reissue. On its first connection it reads
    /// `first_lines` request lines, answers the queries listed in
    /// `answered` through [`proto::dispatch`], and drops the connection.
    /// It serves every later connection in full, and reports what the
    /// second one received.
    fn reissue_stub(
        svc: Service,
        first_lines: usize,
        answered: &'static [u64],
    ) -> (SocketAddr, Receiver<Received>) {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for (n, stream) in listener.incoming().enumerate() {
                let mut stream = stream.unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut received = Vec::new();
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap() > 0 {
                    let pairs = queries(line.trim());
                    received.push((
                        line.contains("\"SolveBatch\""),
                        pairs.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
                    ));
                    line.clear();
                    for (id, request) in pairs {
                        if n == 0 && !answered.contains(&id) {
                            continue;
                        }
                        let id = Content::Int(i128::from(id));
                        let reply = proto::dispatch(&svc, request);
                        write_line(&mut stream, &proto::encode_response_line(Some(&id), &reply))
                            .unwrap();
                    }
                    if n == 0 && received.len() == first_lines {
                        break; // drop the connection with the rest unanswered
                    }
                }
                stream.flush().unwrap();
                if n == 1 {
                    let _ = tx.send(received);
                }
            }
        });
        (addr, rx)
    }

    #[test]
    fn a_dead_connection_reissues_only_the_unanswered_ids() {
        // (pipeline, batch, lines in the first window, expected reissue)
        let shapes: [(usize, usize, usize, Received); 2] = [
            (4, 1, 4, vec![(false, vec![0]), (false, vec![3])]),
            (1, 4, 1, vec![(true, vec![0, 3])]),
        ];
        for (pipeline, batch, first_lines, expected) in shapes {
            let svc = Service::new(ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            });
            let (addr, resent) = reissue_stub(svc, first_lines, &[1, 2]);
            let spec = LoadSpec {
                requests: 4,
                unique: 2,
                clients: 1,
                pipeline,
                batch,
                n: 24,
                ..LoadSpec::default()
            };
            let remote = RemoteSpec {
                addr: addr.to_string(),
                retries: 2,
            };
            let report = run_remote(&spec, &remote).unwrap();
            let resent = resent.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(
                resent, expected,
                "pipeline {pipeline} batch {batch}: the second connection got the wrong lines"
            );
            assert_eq!(
                report.completed
                    + report.infeasible
                    + report.rejected_queue_full
                    + report.rejected_expired
                    + report.wire_errors,
                4,
                "pipeline {pipeline} batch {batch}: {report:?}"
            );
            assert_eq!(report.latency.count, report.completed);
            assert_eq!(report.wire_errors, 0, "report: {report:?}");
            assert!(report.transport_retries >= 1, "report: {report:?}");
        }
    }
}
