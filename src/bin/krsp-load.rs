//! `krsp-load` — replay generated workloads against the provisioning
//! service at a target rate.
//!
//! Usage:
//!   krsp-load [--requests N] [--qps Q] [--unique U] [--clients C]
//!             [--family gnm|grid|layered|geometric] [--n N] [--k K]
//!             [--tightness T] [--seed S] [--deadline-ms MS]
//!             [--workers W] [--queue Q] [--cache CAP] [--shards S]
//!             [--no-coalesce] [--out report.json]
//!             [--connect ADDR] [--retries N] [--pipeline N] [--batch N]
//!             [--kernel classic|interval]
//!             [--rolling W] [--ramp-edges N] [--ramp-num X] [--ramp-den Y]
//!
//! The human-readable summary goes to stderr; the full JSON
//! [`LoadReport`](krsp_service::LoadReport) goes to stdout (or `--out`).
//! `--qps 0` (the default) runs with an open throttle; `--cache 0`
//! disables the solution cache; `--deadline-ms 0` forces every request
//! onto the lowest degradation rung. `--shards 1 --no-coalesce` recovers
//! the single-lock, no-coalescing baseline for A/B comparisons.
//!
//! `--connect ADDR` replays over the wire against a running
//! `krsp-cli serve` (or `krsp-cli route`) instead of an in-process service
//! (the `--workers` etc. service flags are then ignored). `ADDR` may be a
//! comma-separated list — clients spread across the targets and rotate to
//! the next one on each reconnect, so the replay keeps going while any
//! listed replica answers. Each client keeps a window of id-carrying
//! requests on its connection: `--pipeline N` keeps N in flight, one line
//! each, matched by id in whatever order the replies return (the report
//! then carries the observed reordering); `--batch N` sends each window of
//! N as one `SolveBatch` line instead (per-query latency spans from the
//! batch line's send to that id's response). `--pipeline` and `--batch`
//! are mutually exclusive — they prescribe conflicting framings for the
//! same connection. A connection that dies reconnects with jittered
//! exponential backoff and re-sends only the unanswered requests, up to
//! `--retries N` attempts in a row (default 5; any reply resets the
//! count); the report then carries both latency views — `latency` from
//! each request's first send (spans retries and backoff) and
//! `latency_last_send` from the answered attempt's send. `--kernel` stamps
//! an RSP-kernel override (DESIGN.md §4.16) on every issued request, both
//! in-process and over the wire; omitted, the server's configured kernel
//! ladder decides.
//!
//! `--rolling W` switches to the rolling-update replay (requires
//! `--connect`): every pool topology is registered as a lineage, then `W`
//! traffic windows of `--requests` each run back to back, separated by
//! one epoch advance per lineage that ramps `--ramp-edges` edge costs by
//! `--ramp-num/--ramp-den` (defaults 1 edge, ×11/10). Each window replays
//! with the same `--clients`, `--pipeline`, `--batch` and `--qps` as a
//! plain `--connect` replay. The client mirrors
//! each ramp onto its own instances so every window's requests match the
//! lineage's current weights and exercise the epoch-scoped cache lane
//! (retention, warm starts) instead of cold canonical keys. The JSON
//! output is then a [`RollingReport`](krsp_service::RollingReport) with
//! per-window latencies and server counter deltas.

use krsp_service::load::{self, LoadSpec, RemoteSpec, RollingSpec};
use krsp_service::{Service, ServiceConfig};
use krsp_suite::krsp_gen::Family;
use std::time::Duration;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
    value
        .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        .parse()
        .unwrap_or_else(|_| fail(&format!("bad value for {flag}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec = LoadSpec::default();
    let mut svc_cfg = ServiceConfig::default();
    let mut out: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut retries: u32 = 5;
    let mut rolling: usize = 0;
    let mut roll = RollingSpec::default();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--requests" => spec.requests = parse(a, it.next()),
            "--qps" => spec.qps = parse(a, it.next()),
            "--unique" => spec.unique = parse(a, it.next()),
            "--clients" => spec.clients = parse(a, it.next()),
            "--n" => spec.n = parse(a, it.next()),
            "--k" => spec.k = parse(a, it.next()),
            "--tightness" => spec.tightness = parse(a, it.next()),
            "--seed" => spec.seed = parse(a, it.next()),
            "--deadline-ms" => spec.deadline_ms = Some(parse(a, it.next())),
            "--workers" => svc_cfg.workers = parse(a, it.next()),
            "--queue" => svc_cfg.queue_capacity = parse(a, it.next()),
            "--cache" => svc_cfg.cache_capacity = parse(a, it.next()),
            "--shards" => svc_cfg.cache_shards = parse(a, it.next()),
            "--no-coalesce" => svc_cfg.coalesce = false,
            "--out" => out = Some(parse::<String>(a, it.next())),
            "--connect" => connect = Some(parse::<String>(a, it.next())),
            "--retries" => retries = parse(a, it.next()),
            "--pipeline" => spec.pipeline = parse(a, it.next()),
            "--batch" => spec.batch = parse(a, it.next()),
            "--kernel" => spec.kernel = Some(parse(a, it.next())),
            "--rolling" => rolling = parse(a, it.next()),
            "--ramp-edges" => roll.ramp_edges = parse(a, it.next()),
            "--ramp-num" => roll.ramp_num = parse(a, it.next()),
            "--ramp-den" => roll.ramp_den = parse(a, it.next()),
            "--family" => {
                spec.family = match parse::<String>(a, it.next()).as_str() {
                    "gnm" => Family::Gnm,
                    "grid" => Family::Grid,
                    "layered" => Family::Layered,
                    "geometric" => Family::Geometric,
                    other => fail(&format!("unknown family {other}")),
                }
            }
            other => fail(&format!("unknown flag {other} (see source header)")),
        }
    }
    if spec.pipeline > 1 && connect.is_none() {
        fail("--pipeline requires --connect (in-process replays scale with --clients)");
    }
    if spec.batch > 1 && connect.is_none() {
        fail("--batch requires --connect (in-process replays scale with --clients)");
    }
    // A forced deadline only bites if it is also the default for requests
    // the spec leaves bare.
    if let Some(ms) = spec.deadline_ms {
        svc_cfg.default_deadline = Duration::from_millis(ms);
    }

    if rolling > 0 {
        let addr = connect
            .unwrap_or_else(|| fail("--rolling requires --connect (lineages live server-side)"));
        roll.windows = rolling;
        let report = load::run_rolling(&spec, &roll, &RemoteSpec { addr, retries })
            .unwrap_or_else(|e| fail(&format!("rolling replay failed: {e}")));
        eprintln!("{}", load::render_rolling(&report));
        let json = serde_json::to_string_pretty(&report)
            .unwrap_or_else(|e| fail(&format!("cannot serialize report: {e}")));
        match out {
            Some(path) => std::fs::write(&path, json + "\n")
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}"))),
            None => println!("{json}"),
        }
        return;
    }

    let report = match connect {
        Some(addr) => load::run_remote(&spec, &RemoteSpec { addr, retries })
            .unwrap_or_else(|e| fail(&format!("remote replay failed: {e}"))),
        None => {
            let service = Service::new(svc_cfg);
            load::run(&service, &spec)
        }
    };
    eprintln!("{}", load::render(&report));

    let json = serde_json::to_string_pretty(&report)
        .unwrap_or_else(|e| fail(&format!("cannot serialize report: {e}")));
    match out {
        Some(path) => std::fs::write(&path, json + "\n")
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}"))),
        None => println!("{json}"),
    }
}
