//! `krsp-cli` — solve kRSP instances from JSON files.
//!
//! Usage:
//!
//! ```text
//! krsp-cli solve <instance.json> [--single-probe] [--lp-engine] [--eps N/D]
//!                [--threads T]
//! krsp-cli gen <family> <n> <k> <tightness> <seed> <out.json>
//! krsp-cli info <instance.json>
//! krsp-cli serve <addr> [--workers W] [--queue Q] [--cache CAP]
//!                [--shards S] [--no-coalesce] [--threads T]
//!                [--deadline-ms MS] [--strict-deadlines]
//!                [--grace-ms MS] [--max-conns N] [--per-client-conns N]
//!                [--rate R] [--rate-burst B]
//!                [--kernel classic|interval]
//!                [--cache-dir DIR] [--cache-disk-cap BYTES]
//! krsp-cli load [krsp-load flags...]
//! krsp-cli route <addr> --replicas A,B,C [--vnodes N] [--seed S]
//!                [--probe-ms MS] [--probe-timeout-ms MS]
//!                [--dial-timeout-ms MS] [--deadline-ms MS]
//!                [--degrade-after N] [--down-after N] [--revive-after N]
//!                [--backoff-ms MS] [--backoff-cap-ms MS]
//!                [--hedge] [--hedge-quantile Q] [--hedge-min-ms MS]
//!                [--hedge-warmup N] [--pool N] [--max-conns N]
//!                [--grace-ms MS]
//! ```
//!
//! `--threads T` (or the `KRSP_THREADS` env var) sets the solver's
//! data-parallel width — the rayon pool behind the bicameral seed scan and
//! batch solving. Output is bit-identical at any width.
//!
//! Families: gnm | grid | layered | geometric.
//!
//! `serve` runs the NDJSON provisioning service on `addr` (e.g.
//! `127.0.0.1:7447`; port 0 picks a free port and prints it). One JSON
//! request per line: `{"Solve": {"instance": {...}, "deadline_ms": 250}}`,
//! `{"SolveBatch": {"queries": [{"id": 1, "instance": {...},
//! "deadline_ms": 250}, ...]}}` (one line in, one id-matched response
//! line per query out), `"Metrics"`, or `"Health"`. The server is
//! event-driven (one reactor thread multiplexing every connection;
//! requests may carry ids and pipeline). `--max-conns` / `--per-client-conns` cap
//! open connections (excess accepts are answered with a `"shed"` error
//! and closed) and `--rate R` token-buckets each client address to R
//! solves/s (burst `--rate-burst`, default 2R; excess gets
//! `"rate_limited"` errors). `--kernel` assigns the named RSP kernel
//! (`classic` or `interval`, DESIGN.md §4.16) uniformly across the
//! degrade ladder; individual requests may still override it with a
//! `"kernel"` member. `--cache-dir DIR` adds a crash-safe disk tier
//! under the in-memory LRU: every solved answer also appends to a
//! checksummed segment file in DIR (fsync'd before it counts), a
//! SIGKILL'd daemon restarted over the same DIR recovers the intact
//! records and answers them warm, and `--cache-disk-cap BYTES` bounds
//! the tier by pruning the oldest segments (0 = uncapped).
//! SIGTERM/ctrl-c triggers a graceful drain:
//! the listener stops accepting, in-flight requests finish within
//! `--grace-ms` (default 5000), and a final metrics snapshot is flushed
//! to stderr. `load` forwards to the `krsp-load` replay tool (same flags;
//! see its source header).
//!
//! `route` runs the replica-ring router (DESIGN.md §4.18) on `addr`,
//! fronting the `krsp-cli serve` replicas listed in `--replicas` with the
//! same NDJSON protocol the replicas speak. Each `Solve` is routed by its
//! instance's canonical digest on a consistent-hash ring (`--vnodes`
//! points per replica), retried on the next live replica after transport
//! failures with deterministic jittered backoff (`--seed`, or the
//! `KRSP_SEED` env var, keys the jitter so replays reproduce), and never
//! retried past the client's deadline budget. Replica health is tracked
//! by active `Health` probes every `--probe-ms` plus passive traffic
//! signals; a draining replica (one that answered SIGTERM) stops getting
//! new sends while its in-flight work hands off via retry. `--hedge`
//! arms tail-latency hedging: when a solve outlives the observed
//! `--hedge-quantile` latency, a second copy goes to the next ring
//! replica and the first answer wins. A `"Health"` request to the router
//! answers with per-replica ring states and router counters. The router
//! runs the same connection loop as `serve`; `--max-conns` caps both its
//! client connections and its routed requests in flight (past it a
//! request is answered `"shed"`).
//!
//! `serve` and `route` need a unix host: the connection loop runs on
//! epoll or poll(2).

use krsp_suite::krsp::{self, solve, solve_scaled, Config, Engine, Eps};
use krsp_suite::krsp_gen::{self, Family, Regime, Workload};
#[cfg(unix)]
use std::sync::atomic::{AtomicBool, Ordering};
#[cfg(unix)]
use std::sync::Arc;
#[cfg(unix)]
use std::time::Duration;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("solve") => cmd_solve(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        #[cfg(unix)]
        Some("serve") => cmd_serve(&args[1..]),
        #[cfg(unix)]
        Some("route") => cmd_route(&args[1..]),
        Some("load") => cmd_load(&args[1..]),
        _ => {
            eprintln!("usage: krsp-cli solve|gen|info|serve|route|load ... (see source header)");
            std::process::exit(2);
        }
    }
}

fn cmd_solve(args: &[String]) {
    let Some(path) = args.first() else {
        fail("solve needs an instance path")
    };
    let inst = krsp_gen::read_instance(std::path::Path::new(path))
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let mut cfg = Config::default();
    let mut eps: Option<Eps> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--single-probe" => cfg.single_probe = true,
            "--lp-engine" => cfg.engine = Engine::LpRounding,
            "--eps" => {
                let spec = it.next().unwrap_or_else(|| fail("--eps needs N/D"));
                let (n, d) = spec
                    .split_once('/')
                    .unwrap_or_else(|| fail("--eps format is N/D"));
                eps = Some(Eps::new(
                    n.parse().unwrap_or_else(|_| fail("bad eps numerator")),
                    d.parse().unwrap_or_else(|_| fail("bad eps denominator")),
                ));
            }
            "--threads" => {
                let t = it.next().unwrap_or_else(|| fail("--threads needs a value"));
                krsp::set_solver_width(t.parse().unwrap_or_else(|_| fail("bad --threads")));
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }

    let (solution, iters) = match eps {
        Some(e) => match solve_scaled(&inst, e, e, &cfg) {
            Ok(s) => (s.solution, s.stats.iterations.len()),
            Err(e) => fail(&format!("unsolvable: {e}")),
        },
        None => match solve(&inst, &cfg) {
            Ok(s) => (s.solution, s.stats.iterations.len()),
            Err(e) => fail(&format!("unsolvable: {e}")),
        },
    };
    println!(
        "cost {}  delay {} / {}  (cycle cancellations: {iters})",
        solution.cost, solution.delay, inst.delay_bound
    );
    if let Some(lb) = solution.lower_bound {
        println!(
            "LP lower bound {lb} → certified cost factor ≤ {:.4}",
            solution.cost as f64 / lb.to_f64().max(1e-12)
        );
    }
    for (i, p) in solution.paths(&inst).iter().enumerate() {
        let nodes: Vec<String> = p.nodes(&inst.graph).iter().map(|n| n.to_string()).collect();
        println!(
            "  path {}: cost {:>6} delay {:>6}  {}",
            i + 1,
            p.cost(),
            p.delay(),
            nodes.join("→")
        );
    }
}

fn cmd_gen(args: &[String]) {
    if args.len() != 6 {
        fail("gen <family> <n> <k> <tightness> <seed> <out.json>");
    }
    let family = match args[0].as_str() {
        "gnm" => Family::Gnm,
        "grid" => Family::Grid,
        "layered" => Family::Layered,
        "geometric" => Family::Geometric,
        other => fail(&format!("unknown family {other}")),
    };
    let n: usize = args[1].parse().unwrap_or_else(|_| fail("bad n"));
    let k: usize = args[2].parse().unwrap_or_else(|_| fail("bad k"));
    let tightness: f64 = args[3].parse().unwrap_or_else(|_| fail("bad tightness"));
    let seed: u64 = args[4].parse().unwrap_or_else(|_| fail("bad seed"));
    let w = Workload {
        family,
        n,
        m: n * 4,
        regime: Regime::Anticorrelated,
        k,
        tightness,
        seed,
    };
    let inst = krsp_gen::instantiate_with_retries(w, 50)
        .unwrap_or_else(|| fail("could not sample a feasible instance"));
    krsp_gen::write_instance(std::path::Path::new(&args[5]), &inst)
        .unwrap_or_else(|e| fail(&format!("cannot write: {e}")));
    println!(
        "wrote {}: n={} m={} k={} D={}",
        args[5],
        inst.n(),
        inst.m(),
        inst.k,
        inst.delay_bound
    );
}

#[cfg(unix)]
fn cmd_serve(args: &[String]) {
    use krsp_service::{serve_with_shutdown, ServeOptions, Service, ServiceConfig};

    let Some(addr) = args.first() else {
        fail("serve needs a bind address, e.g. 127.0.0.1:7447")
    };
    // Apply --threads before building the config: the default ladder
    // policy calibrates its admission estimates to the solver width.
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let t = args
            .get(i + 1)
            .unwrap_or_else(|| fail("--threads needs a value"));
        krsp::set_solver_width(t.parse().unwrap_or_else(|_| fail("bad --threads")));
    }
    let mut cfg = ServiceConfig::default();
    let mut opts = ServeOptions::default();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        fn arg<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
            value
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
                .parse()
                .unwrap_or_else(|_| fail(&format!("bad value for {flag}")))
        }
        match a.as_str() {
            "--workers" => cfg.workers = arg(a, it.next()),
            "--queue" => cfg.queue_capacity = arg(a, it.next()),
            "--cache" => cfg.cache_capacity = arg(a, it.next()),
            "--shards" => cfg.cache_shards = arg(a, it.next()),
            "--threads" => {
                it.next(); // consumed in the pre-scan above
            }
            "--no-coalesce" => cfg.coalesce = false,
            "--deadline-ms" => {
                cfg.default_deadline = Duration::from_millis(arg(a, it.next()));
            }
            "--strict-deadlines" => cfg.reject_expired = true,
            "--kernel" => {
                let kind: krsp::KernelKind = arg(a, it.next());
                cfg.kernels = krsp_service::KernelLadder::uniform(kind);
            }
            "--cache-dir" => {
                let dir: String = arg(a, it.next());
                cfg.cache_dir = Some(std::path::PathBuf::from(dir));
            }
            "--cache-disk-cap" => cfg.cache_disk_cap = arg(a, it.next()),
            "--grace-ms" => opts.grace = Duration::from_millis(arg(a, it.next())),
            "--max-conns" => opts.max_conns = arg(a, it.next()),
            "--per-client-conns" => opts.per_client_conns = arg(a, it.next()),
            "--rate" => opts.rate_per_sec = arg(a, it.next()),
            "--rate-burst" => opts.rate_burst = arg(a, it.next()),
            other => fail(&format!("unknown flag {other}")),
        }
    }
    let listener = std::net::TcpListener::bind(addr)
        .unwrap_or_else(|e| fail(&format!("cannot bind {addr}: {e}")));
    let local = listener
        .local_addr()
        .expect("bound listener has an address");
    let service = Service::new(cfg);
    // The kernel map: one word when uniform, rung=kernel pairs otherwise.
    let kernels = service.config().kernels;
    let uniform = krsp_service::Rung::LADDER
        .iter()
        .all(|&r| kernels.for_rung(r) == kernels.for_rung(krsp_service::Rung::Full));
    let kernel_map = if uniform {
        kernels.for_rung(krsp_service::Rung::Full).to_string()
    } else {
        krsp_service::Rung::LADDER
            .iter()
            .map(|&r| format!("{r}={}", kernels.for_rung(r)))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!(
        "krsp-service listening on {local} ({} workers, queue {}, cache {}x{} shards, coalesce {}, solver threads {}, kernel {kernel_map})",
        service.config().workers,
        service.config().queue_capacity,
        service.config().cache_capacity,
        service.config().cache_shards,
        if service.config().coalesce {
            "on"
        } else {
            "off"
        },
        krsp::solver_width()
    );
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    if let Err(e) = ctrlc::set_handler(move || {
        // Store before printing: a ctrl-c delivered to the whole process
        // group kills a piped log consumer first, so this write can hit a
        // readerless pipe and fail with EPIPE. `eprintln!` would panic and
        // kill the watcher thread — with the store after it, the flag
        // would never be set and the daemon would be undrainable.
        flag.store(true, Ordering::Release);
        use std::io::Write;
        let _ = writeln!(
            std::io::stderr(),
            "krsp-service: shutdown signal received, draining"
        );
    }) {
        fail(&format!("cannot install signal handler: {e}"));
    }
    if let Err(e) = serve_with_shutdown(&service, listener, Arc::clone(&shutdown), opts) {
        fail(&format!("listener failed: {e}"));
    }
    // Flush the final counters so an orchestrator tearing the pod down
    // still gets the run's telemetry. Best-effort writes: stdout/stderr
    // may be dead pipes by now (same group-wide signal as above) and a
    // drained daemon must still exit 0, not die in a panic it cannot
    // even report.
    use std::io::Write;
    match serde_json::to_string(&service.metrics()) {
        Ok(json) => {
            let _ = writeln!(std::io::stderr(), "krsp-service: final metrics {json}");
        }
        Err(e) => {
            let _ = writeln!(
                std::io::stderr(),
                "krsp-service: metrics serialize failed: {e}"
            );
        }
    }
    let _ = writeln!(std::io::stdout(), "krsp-service: drained and stopped");
}

#[cfg(unix)]
fn cmd_route(args: &[String]) {
    use krsp_service::{resolve_seed, serve_ring_with_shutdown, Router, RouterOptions};

    let Some(addr) = args.first() else {
        fail("route needs a bind address, e.g. 127.0.0.1:7440")
    };
    let mut opts = RouterOptions::default();
    let mut seed_flag: Option<u64> = None;
    let mut grace: Option<Duration> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        fn arg<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
            value
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
                .parse()
                .unwrap_or_else(|_| fail(&format!("bad value for {flag}")))
        }
        let ms = |flag: &str, value: Option<&String>| Duration::from_millis(arg(flag, value));
        match a.as_str() {
            "--replicas" => {
                opts.replicas = arg::<String>(a, it.next())
                    .split(',')
                    .map(str::trim)
                    .filter(|r| !r.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--vnodes" => opts.vnodes = arg(a, it.next()),
            "--seed" => seed_flag = Some(arg(a, it.next())),
            "--probe-ms" => opts.probe_interval = ms(a, it.next()),
            "--probe-timeout-ms" => opts.probe_timeout = ms(a, it.next()),
            "--dial-timeout-ms" => opts.dial_timeout = ms(a, it.next()),
            "--deadline-ms" => opts.default_deadline = ms(a, it.next()),
            "--degrade-after" => opts.degrade_after = arg(a, it.next()),
            "--down-after" => opts.down_after = arg(a, it.next()),
            "--revive-after" => opts.revive_after = arg(a, it.next()),
            "--backoff-ms" => opts.backoff_base = ms(a, it.next()),
            "--backoff-cap-ms" => opts.backoff_cap = ms(a, it.next()),
            "--hedge" => opts.hedge = true,
            "--hedge-quantile" => opts.hedge_quantile = arg(a, it.next()),
            "--hedge-min-ms" => opts.hedge_min = ms(a, it.next()),
            "--hedge-warmup" => opts.hedge_warmup = arg(a, it.next()),
            "--pool" => opts.pool_cap = arg(a, it.next()),
            "--max-conns" => opts.max_conns = arg(a, it.next()),
            "--grace-ms" => grace = Some(ms(a, it.next())),
            other => fail(&format!("unknown flag {other}")),
        }
    }
    if opts.replicas.is_empty() {
        fail("route needs --replicas A,B,... (at least one krsp-cli serve address)");
    }
    opts.seed = resolve_seed(seed_flag);
    if let Some(g) = grace {
        opts.grace = g;
    }

    let listener = std::net::TcpListener::bind(addr)
        .unwrap_or_else(|e| fail(&format!("cannot bind {addr}: {e}")));
    let local = listener
        .local_addr()
        .expect("bound listener has an address");
    let router = Router::new(opts);
    let ropts = router.options();
    println!(
        "krsp-router listening on {local} ({} replicas × {} vnodes, probe every {:?}, hedge {}, seed {:#x})",
        ropts.replicas.len(),
        ropts.vnodes,
        ropts.probe_interval,
        if ropts.hedge { "on" } else { "off" },
        ropts.seed
    );
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    if let Err(e) = ctrlc::set_handler(move || {
        // Same EPIPE-safe ordering as `serve`: set the flag before any
        // write that might panic on a dead pipe.
        flag.store(true, Ordering::Release);
        use std::io::Write;
        let _ = writeln!(
            std::io::stderr(),
            "krsp-router: shutdown signal received, draining"
        );
    }) {
        fail(&format!("cannot install signal handler: {e}"));
    }
    if let Err(e) = serve_ring_with_shutdown(&router, listener, Arc::clone(&shutdown)) {
        fail(&format!("router listener failed: {e}"));
    }
    // Best-effort final counters, mirroring `serve`'s drain telemetry.
    use std::io::Write;
    match serde_json::to_string(&router.ring_reply()) {
        Ok(json) => {
            let _ = writeln!(std::io::stderr(), "krsp-router: final ring state {json}");
        }
        Err(e) => {
            let _ = writeln!(std::io::stderr(), "krsp-router: ring serialize failed: {e}");
        }
    }
    let _ = writeln!(std::io::stdout(), "krsp-router: drained and stopped");
}

fn cmd_load(args: &[String]) {
    // Same binary family; delegate so the flags stay in one place.
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("no current exe: {e}")));
    let sibling = exe.with_file_name(if cfg!(windows) {
        "krsp-load.exe"
    } else {
        "krsp-load"
    });
    let status = std::process::Command::new(&sibling)
        .args(args)
        .status()
        .unwrap_or_else(|e| fail(&format!("cannot run {}: {e}", sibling.display())));
    std::process::exit(status.code().unwrap_or(1));
}

fn cmd_info(args: &[String]) {
    let Some(path) = args.first() else {
        fail("info needs an instance path")
    };
    let inst = krsp_gen::read_instance(std::path::Path::new(path))
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    println!(
        "n={} m={} s={} t={} k={} D={}",
        inst.n(),
        inst.m(),
        inst.s,
        inst.t,
        inst.k,
        inst.delay_bound
    );
    println!(
        "structurally feasible (≥k disjoint paths): {}",
        inst.is_structurally_feasible()
    );
    if let Some(fast) = krsp::baselines::min_delay(&inst) {
        println!("min achievable total delay: {}", fast.delay);
    }
    if let Some(cheap) = krsp::baselines::min_sum(&inst) {
        println!(
            "min-cost (delay-oblivious): cost {} delay {}",
            cheap.cost, cheap.delay
        );
    }
}
