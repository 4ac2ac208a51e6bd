//! The traced run: one client walks the workload's pool in order and sends
//! each request's input through every layer's public entry in turn —
//! kernel, phase 1, Algorithm 1 (k ≥ 2), the degrade ladder, the canonical
//! hash, `Service::provision` cold and hot, wire decode, `dispatch_line`, a
//! loopback round trip through the frontend and one through a one-replica
//! router — with a span around each call. Spans stay in memory and are
//! written out at the end. A layer's self time is its span minus the span
//! of the next layer down on the same request.
//!
//! Each solver call gets the cancel token the service would give it: a
//! fresh deadline of the request's budget. Beside each traced request runs
//! the same outer call untraced — a provision on a service of its own, or
//! on the wire workload a round trip on a second connection — to measure
//! what tracing costs it.

use crate::drive::{reply_of, reply_of_line, request, with_id, Conn, Frontend, Reply};
use crate::workload::{Case, Spec};
use crate::{audit, stats, Metric, Report};
use krsp::phase1;
use krsp::{CancelToken, DpScratch, SearchScratch};
use krsp_service::proto::dispatch_line;
use krsp_service::{
    canonical_key, serve_ring_with_shutdown, solve_degraded_with, Router, RouterOptions, Rung,
    Service, ServiceConfig, WireRequest,
};
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Routed round trips per run: each costs tens of milliseconds (see the
/// README), so only the first requests take the router hop.
const ROUTED_REQUESTS: usize = 24;

/// One recorded call.
#[derive(Clone, Debug)]
struct Span {
    id: usize,
    parent: Option<usize>,
    request: usize,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// Spans of the whole run, kept in memory.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Runs `f` inside a span `name` on `request`, child of `parent`.
    fn span<T>(
        &mut self,
        request: usize,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            id: self.spans.len(),
            parent,
            request,
            name,
            start,
            end,
        });
        out
    }

    /// Duration of each request's `name` span, by request.
    fn durations(&self, name: &str) -> HashMap<usize, Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.request, s.end.saturating_sub(s.start)))
            .collect()
    }

    /// Every `name` span's duration in seconds.
    fn seconds(&self, name: &str) -> Vec<f64> {
        self.durations(name)
            .into_values()
            .map(|d| d.as_secs_f64())
            .collect()
    }

    /// `upper − lower` in seconds on every request that has both spans: the
    /// upper layer's self time. Signed: where the upper layer adds next to
    /// nothing, its self time is as often below zero as above.
    fn self_seconds(&self, upper: &str, lower: &str) -> Vec<f64> {
        let lower = self.durations(lower);
        self.durations(upper)
            .into_iter()
            .filter_map(|(r, d)| lower.get(&r).map(|l| d.as_secs_f64() - l.as_secs_f64()))
            .collect()
    }

    /// Writes every span as one JSON object a line.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":{:?},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// A one-replica router in front of `replica`, stopped on drop.
struct Ring {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Ring {
    fn start(replica: std::net::SocketAddr) -> std::io::Result<Ring> {
        let router = Router::new(RouterOptions {
            replicas: vec![replica.to_string()],
            ..RouterOptions::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::spawn(move || serve_ring_with_shutdown(&router, listener, flag));
        Ok(Ring {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            if let Ok(Err(e)) = thread.join() {
                eprintln!("perfbench: router stopped with {e}");
            }
        }
    }
}

/// Per-request figures that are not durations.
#[derive(Default)]
struct Counts {
    solved: usize,
    probes: usize,
    iterations: usize,
    degraded: usize,
    full: usize,
    min_delay: usize,
    overshoot_ms: Vec<f64>,
    provisions: usize,
    cache_hits: usize,
}

fn token(budget: Duration) -> CancelToken {
    CancelToken::cancellable().child_with_deadline(Instant::now().checked_add(budget))
}

/// Traced requests every run makes, however short its time box.
const MIN_TRACED: usize = 3;

/// Instances generated at a time for a cold traced run.
const BATCH: usize = 32;

/// Everything one traced request touches.
struct Ctx<'a> {
    spec: &'a Spec,
    cfg: &'a ServiceConfig,
    budget: Duration,
    full_kernel: &'static dyn krsp::RspKernel,
    traced_svc: Service,
    untraced_svc: Service,
    direct: Conn,
    untraced_conn: Conn,
    routed: Conn,
    hot: bool,
    tracer: Tracer,
    counts: Counts,
    untraced_outer: Vec<Duration>,
    attempted: usize,
    failed: usize,
}

impl Ctx<'_> {
    /// Counts and audits one reply.
    fn check(&mut self, reply: Reply, case: &Case, what: &str) {
        self.attempted += 1;
        let verdict = match reply {
            Reply::Answer { answer, .. } => audit::audit(case, &answer),
            Reply::Failed(why) => Err(why),
        };
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("{}: FAILED traced {what}: {why}", self.spec.name);
        }
    }

    /// Sends request `i`, on `case`, through every layer.
    fn request(&mut self, i: usize, case: &Case) -> Result<(), String> {
        let (spec, cfg, budget) = (self.spec, self.cfg, self.budget);
        let inst = &case.inst;
        let line = case.request_line(spec.deadline);
        let id = i as u64;
        let framed = with_id(&line, id);
        // The request's root span; its end is set once every layer ran.
        let root = self.tracer.spans.len();
        let request_start = self.tracer.origin.elapsed();
        self.tracer.spans.push(Span {
            id: root,
            parent: None,
            request: i,
            name: "request",
            start: request_start,
            end: request_start,
        });

        // Untraced outer call on the same input, for the overhead share.
        let sent = Instant::now();
        let reply = if self.hot {
            let reply = self.untraced_conn.round_trip(&framed).unwrap_or_default();
            self.untraced_outer.push(sent.elapsed());
            reply_of_line(&reply, id)
        } else {
            let reply = self.untraced_svc.provision(request(case, spec));
            self.untraced_outer.push(sent.elapsed());
            reply_of(reply)
        };
        self.check(reply, case, "untraced call");

        let parent = Some(root);
        let full_kernel = self.full_kernel;
        let path = self.tracer.span(i, parent, "kernel", || {
            let mut dp = DpScratch::new();
            dp.set_cancel(token(budget));
            full_kernel.solve_with(&inst.graph, inst.s, inst.t, inst.delay_bound, 1, 1, &mut dp)
        });
        std::hint::black_box(path.map_err(|e| format!("kernel: {e:?}"))?);
        let p1 = self.tracer.span(i, parent, "phase1", || {
            phase1::run(inst, cfg.solver.phase1_backend)
        });
        std::hint::black_box(p1.map_err(|e| format!("phase1: {e}"))?);
        // A k = 1 request never reaches Algorithm 1 (the ladder answers it
        // through the kernel), and on these instances Algorithm 1 runs for
        // seconds past its token, so it is traced for k ≥ 2 only.
        if inst.k > 1 {
            let solved = self.tracer.span(i, parent, "solve", || {
                let mut scratch = SearchScratch::new();
                scratch.set_cancel(token(budget));
                krsp::solve_with(inst, &cfg.solver, &mut scratch)
            });
            if let Ok(s) = &solved {
                self.counts.solved += 1;
                self.counts.probes += s.stats.probes;
                self.counts.iterations += s.stats.iterations.len();
            }
        }
        let due = Instant::now() + budget;
        let degraded = self.tracer.span(i, parent, "degrade", || {
            solve_degraded_with(
                inst,
                &cfg.solver,
                budget,
                &cfg.ladder,
                &cfg.kernels,
                &token(budget),
            )
        });
        let returned = Instant::now();
        if returned > due {
            self.counts
                .overshoot_ms
                .push((returned - due).as_secs_f64() * 1e3);
        }
        let degraded = degraded.map_err(|e| format!("degrade: {e}"))?;
        self.counts.degraded += 1;
        match degraded.rung {
            Rung::Full => self.counts.full += 1,
            Rung::MinDelay => self.counts.min_delay += 1,
            _ => {}
        }
        std::hint::black_box(self.tracer.span(i, parent, "hash", || canonical_key(inst)));

        let svc = &self.traced_svc;
        let req = request(case, spec);
        let first = self
            .tracer
            .span(i, parent, "provision", || svc.provision(req));
        self.counts.provisions += 1;
        self.counts.cache_hits += usize::from(first.as_ref().is_ok_and(|r| r.cache_hit));
        let req = request(case, spec);
        let again = self
            .tracer
            .span(i, parent, "provision_hot", || svc.provision(req));
        let decoded = self.tracer.span(i, parent, "decode", || {
            serde_json::from_str::<WireRequest>(&line)
        });
        std::hint::black_box(decoded.map_err(|e| format!("decode: {e}"))?);
        let dispatched = self
            .tracer
            .span(i, parent, "dispatch", || dispatch_line(svc, &line));
        let direct = &mut self.direct;
        let looped = self
            .tracer
            .span(i, parent, "loopback", || direct.round_trip(&framed));
        let routed = if i < ROUTED_REQUESTS {
            let conn = &mut self.routed;
            Some(
                self.tracer
                    .span(i, parent, "routed", || conn.round_trip(&framed)),
            )
        } else {
            None
        };
        self.tracer.spans[root].end = self.tracer.origin.elapsed();

        self.check(reply_of(first), case, "provision");
        self.check(reply_of(again), case, "hot provision");
        let dispatched = format!("{{\"id\":{id},{}", &dispatched[1..]);
        self.check(reply_of_line(&dispatched, id), case, "dispatch_line");
        self.check(
            reply_of_line(&looped.unwrap_or_default(), id),
            case,
            "loopback round trip",
        );
        if let Some(reply) = routed {
            self.check(
                reply_of_line(&reply.unwrap_or_default(), id),
                case,
                "routed round trip",
            );
        }
        Ok(())
    }
}

/// Runs the traced pass and reports every per-layer metric.
///
/// # Errors
/// When the generator emits no instance, a socket cannot be opened, or a
/// layer call errs.
pub fn run(
    spec: &Spec,
    cfg: &ServiceConfig,
    seed: u64,
    seconds: Duration,
    out_dir: Option<&Path>,
) -> Result<Report, String> {
    let threads = crate::host::nproc();
    let io = |e: std::io::Error| format!("trace: {e}");
    let traced_svc = Service::new(cfg.clone());
    let frontend = Frontend::start(&traced_svc).map_err(io)?;
    let ring = Ring::start(frontend.addr).map_err(io)?;
    let hot_pool = spec
        .working_set
        .map(|_| spec.cases(seed, spec.pass_slots(0), threads));
    if let Some(pool) = &hot_pool {
        // The hot workload's set-up: its working set solved once.
        for case in pool {
            let _ = traced_svc.provision(request(case, spec));
        }
    }
    let mut ctx = Ctx {
        spec,
        cfg,
        budget: spec.deadline.unwrap_or(cfg.default_deadline),
        full_kernel: krsp::rsp_kernel(cfg.kernels.for_rung(Rung::Full)),
        untraced_svc: Service::new(cfg.clone()),
        direct: Conn::open(frontend.addr).map_err(io)?,
        untraced_conn: Conn::open(frontend.addr).map_err(io)?,
        routed: Conn::open(ring.addr).map_err(io)?,
        traced_svc,
        hot: hot_pool.is_some(),
        tracer: Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        },
        counts: Counts::default(),
        untraced_outer: Vec::new(),
        attempted: 0,
        failed: 0,
    };

    let started = Instant::now();
    let mut traced = 0;
    let mut next_slot = 0;
    'run: loop {
        let batch = match &hot_pool {
            Some(pool) => pool.clone(),
            None => {
                next_slot += BATCH;
                spec.cases(seed, next_slot - BATCH..next_slot, threads)
            }
        };
        if batch.is_empty() {
            return Err(format!("{}: the generator emitted no instance", spec.name));
        }
        for case in &batch {
            if traced >= MIN_TRACED && started.elapsed() >= seconds {
                break 'run;
            }
            ctx.request(traced, case)?;
            traced += 1;
        }
    }
    let Ctx {
        tracer,
        counts,
        untraced_outer,
        attempted,
        failed,
        hot,
        direct,
        untraced_conn,
        routed,
        ..
    } = ctx;
    drop((direct, untraced_conn, routed));
    drop(ring);
    drop(frontend);
    eprintln!(
        "{}: traced {traced} requests in {:.2}s ({} spans)",
        spec.name,
        started.elapsed().as_secs_f64(),
        tracer.spans.len()
    );
    if let Some(dir) = out_dir {
        let path = dir.join(format!("trace-{}-seed{seed}.jsonl", spec.name));
        std::fs::create_dir_all(dir)
            .and_then(|()| tracer.write(&path))
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
        eprintln!("{}: spans written to {}", spec.name, path.display());
    }

    let metrics = layer_metrics(spec, &tracer, &counts, &untraced_outer, hot);
    eprintln!(
        "{}: per-layer metrics ({traced} traced requests):",
        spec.name
    );
    for m in &metrics {
        eprintln!(
            "  {:<30} {:>12.4} {}",
            m.name,
            m.value.unwrap_or(f64::NAN),
            m.unit
        );
    }
    print_unlisted(&tracer, &counts);
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

/// Percentile `q` of `seconds`, scaled by `scale`.
fn pct(seconds: &[f64], q: f64, scale: f64) -> Option<f64> {
    let v = stats::sorted(seconds);
    (!v.is_empty()).then(|| stats::percentile(&v, q) * scale)
}

const MS: f64 = 1e3;
const US: f64 = 1e6;

/// The per-layer metrics of the JSON line.
fn layer_metrics(
    spec: &Spec,
    tracer: &Tracer,
    counts: &Counts,
    untraced_outer: &[Duration],
    hot: bool,
) -> Vec<Metric> {
    let per_req = |count: usize, of: usize| count as f64 / of.max(1) as f64;
    // The layer under the ladder: the kernel answers k = 1, Algorithm 1
    // the rest.
    let under_degrade = if spec.k == 1 { "kernel" } else { "solve" };
    // A hot request never reaches the ladder; the cache probe sits right
    // under the hash.
    let under_service = if hot { "hash" } else { "degrade" };
    let outer = if hot { "loopback" } else { "provision" };
    let untraced: Vec<f64> = untraced_outer.iter().map(Duration::as_secs_f64).collect();
    let overhead = pct(&tracer.seconds(outer), 0.5, 1.0)
        .zip(pct(&untraced, 0.5, 1.0))
        .map(|(t, u)| t / u - 1.0);
    let m =
        |name: &'static str, unit: &'static str, value: Option<f64>| Metric { name, unit, value };
    vec![
        m(
            "kernel.p50_ms",
            "ms",
            pct(&tracer.seconds("kernel"), 0.5, MS),
        ),
        m(
            "kernel.p99_ms",
            "ms",
            pct(&tracer.seconds("kernel"), 0.99, MS),
        ),
        m(
            "phase1.p50_ms",
            "ms",
            pct(&tracer.seconds("phase1"), 0.5, MS),
        ),
        m(
            "algorithm1.probes_per_req",
            "count",
            Some(per_req(counts.probes, counts.solved)),
        ),
        m(
            "algorithm1.iterations_per_req",
            "count",
            Some(per_req(counts.iterations, counts.solved)),
        ),
        m(
            "degrade.self_p50_ms",
            "ms",
            pct(&tracer.self_seconds("degrade", under_degrade), 0.5, MS),
        ),
        m(
            "degrade.full_share",
            "ratio",
            Some(per_req(counts.full, counts.degraded)),
        ),
        m(
            "degrade.min_delay_share",
            "ratio",
            Some(per_req(counts.min_delay, counts.degraded)),
        ),
        m("hash.p50_us", "us", pct(&tracer.seconds("hash"), 0.5, US)),
        m(
            "service.self_p50_us",
            "us",
            pct(&tracer.self_seconds("provision", under_service), 0.5, US),
        ),
        m(
            "service.hot_p50_us",
            "us",
            pct(&tracer.seconds("provision_hot"), 0.5, US),
        ),
        m(
            "cache.hit_share",
            "ratio",
            Some(per_req(counts.cache_hits, counts.provisions)),
        ),
        m(
            "proto.decode_p50_us",
            "us",
            pct(&tracer.seconds("decode"), 0.5, US),
        ),
        m(
            "proto.self_p50_us",
            "us",
            pct(&tracer.self_seconds("dispatch", "provision_hot"), 0.5, US),
        ),
        m(
            "frontend.self_p50_us",
            "us",
            pct(&tracer.self_seconds("loopback", "dispatch"), 0.5, US),
        ),
        m(
            "frontend.self_p99_us",
            "us",
            pct(&tracer.self_seconds("loopback", "dispatch"), 0.99, US),
        ),
        m(
            "router.self_p50_us",
            "us",
            pct(&tracer.self_seconds("routed", "loopback"), 0.5, US),
        ),
        m("trace.overhead_share", "ratio", overhead),
    ]
}

/// Prints the layer figures that stay off the JSON line: Algorithm 1's
/// self time, which a k = 1 workload never measures, and the degrade
/// overshoot, which only a binding deadline produces.
fn print_unlisted(tracer: &Tracer, counts: &Counts) {
    let self_times = tracer.self_seconds("solve", "phase1");
    for (name, q) in [
        ("algorithm1.self_p50_ms", 0.5),
        ("algorithm1.self_p99_ms", 0.99),
    ] {
        match pct(&self_times, q, MS) {
            Some(v) => eprintln!("  {name:<30} {v:>12.4} ms ({} requests)", self_times.len()),
            None => eprintln!(
                "  {name:<30} {:>12} ms (Algorithm 1 is not on a k = 1 request's path)",
                "-"
            ),
        }
    }
    let late = &counts.overshoot_ms;
    match pct(late, 0.5, 1.0) {
        Some(v) => eprintln!(
            "  {:<30} {v:>12.4} ms ({} degrade calls returned past their deadline)",
            "degrade.overshoot_p50_ms",
            late.len()
        ),
        None => eprintln!(
            "  {:<30} {:>12} ms (no degrade call returned past its deadline)",
            "degrade.overshoot_p50_ms", "-"
        ),
    }
}
