//! Chaos suite: deterministic fault injection against the provisioning
//! service via `krsp-failpoint` sites.
//!
//! Every test serializes on [`fp_lock`] — the failpoint registry is
//! process-global, so concurrent tests would otherwise arm each other's
//! sites — and the guard clears all sites on drop, pass or fail. Injected
//! panics are expected output here; a process-wide panic hook silences
//! them so real failures stay visible in the log.
//!
//! The scenarios mirror the service's fault model (DESIGN.md §4.13):
//! a panicking solve is contained at the provisioning boundary, repeated
//! panics quarantine the offending key, an expired deadline degrades to a
//! completed lower rung (never a partial answer), and shutdown drains
//! in-flight work within its grace period.

use krsp_service::proto::{self, WireRequest, WireResponse};
use krsp_service::{
    load, ErrorKind, Rejection, RemoteSpec, Request, ServeOptions, Service, ServiceConfig,
    SolveRequest,
};
use krsp_suite::krsp::{self, Config, Instance};
use krsp_suite::krsp_graph::{DiGraph, NodeId};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A 6-node instance with a real cost/delay tradeoff: a cheap slow route
/// (2, 20), a fast pricey one (16, 2), and two middling spares. The delay
/// bound picks the solver path: `d = 24` exercises the full bicameral
/// cycle search (`bicameral.seed` fires once, `bicameral.search` five
/// times: once in the floor probe, which stalls, then four times in the
/// bisection), `d = 22` concludes on the floor probe alone, and `d = 14`
/// is answered before the cycle search starts and never reaches either
/// site.
fn tradeoff(d_bound: i64) -> Instance {
    let g = DiGraph::from_edges(
        6,
        &[
            (0, 1, 1, 10),
            (1, 5, 1, 10), // cheap slow: (2, 20)
            (0, 2, 8, 1),
            (2, 5, 8, 1), // fast pricey: (16, 2)
            (0, 3, 2, 6),
            (3, 5, 2, 6), // middle: (4, 12)
            (0, 4, 9, 2),
            (4, 5, 9, 2), // spare fast: (18, 4)
        ],
    );
    Instance::new(g, NodeId(0), NodeId(5), 2, d_bound).expect("tradeoff instance is well-formed")
}

static FP_LOCK: Mutex<()> = Mutex::new(());

/// Serializes failpoint use across tests and guarantees a clean registry
/// on both entry and exit (including panicking exits).
struct FpGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FpGuard {
    fn drop(&mut self) {
        krsp_failpoint::clear();
    }
}

fn fp_lock() -> FpGuard {
    quiet_injected_panics();
    let guard = FP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    krsp_failpoint::clear();
    FpGuard(guard)
}

/// Suppresses backtrace spam from panics this suite injects on purpose;
/// any other panic still reports through the previous hook.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("failpoint") {
                prev(info);
            }
        }));
    });
}

fn chaos_service(quarantine_threshold: u32) -> Service {
    Service::new(ServiceConfig {
        workers: 2,
        quarantine_threshold,
        quarantine_ttl: Duration::from_secs(60),
        ..ServiceConfig::default()
    })
}

#[test]
fn leader_panic_is_contained_and_followers_recover() {
    let _fp = fp_lock();
    // Exactly one panic: the first leader dies, its followers re-drive the
    // solve and must succeed on the (now disarmed) retry.
    krsp_failpoint::cfg("service.solve", "1*panic").expect("arm service.solve");
    let svc = chaos_service(0); // quarantine off: retries must reach the solver
    let inst = tradeoff(24);

    const K: usize = 6;
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                let (svc, inst) = (&svc, inst.clone());
                s.spawn(move || {
                    svc.provision(Request {
                        instance: inst,
                        deadline: Some(Duration::from_secs(5)),
                        kernel: None,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("request threads never panic"))
            .collect()
    });

    let panics = outcomes
        .iter()
        .filter(|o| matches!(o, Err(Rejection::SolverPanic(_))))
        .count();
    let solved = outcomes.iter().filter(|o| o.is_ok()).count();
    assert_eq!(panics, 1, "exactly the leader sees the contained panic");
    assert_eq!(solved, K - 1, "every follower recovers: {outcomes:?}");
    let m = svc.metrics();
    assert_eq!(m.solver_panics, 1);
    assert_eq!(m.quarantined, 0, "threshold 0 disables quarantine");
    // The worker pool survived: the same key now solves normally.
    assert!(svc
        .provision(Request {
            instance: tradeoff(24),
            deadline: None,
            kernel: None,
        })
        .is_ok());
}

/// The ISSUE acceptance scenario: with `bicameral.seed=panic` armed the
/// server must answer *every* request on the affected key with a
/// structured error — no worker death, no hung follower — and the
/// quarantine counter must rise. An instance that never reaches the seed
/// scan keeps solving while the site stays armed.
#[test]
fn seed_panic_yields_structured_errors_and_quarantine() {
    let _fp = fp_lock();
    krsp_failpoint::cfg("bicameral.seed", "panic").expect("arm bicameral.seed");
    let svc = chaos_service(2);

    for i in 0..8 {
        let reply = proto::dispatch(
            &svc,
            WireRequest::Solve(SolveRequest {
                instance: tradeoff(24),
                deadline_ms: Some(5000),
                kernel: None,
            }),
        );
        match reply {
            WireResponse::Error(e) => {
                assert_eq!(e.kind, ErrorKind::SolverPanic, "request {i}: {e:?}");
            }
            other => panic!("request {i}: expected a structured error, got {other:?}"),
        }
    }
    let m = svc.metrics();
    assert!(m.solver_panics >= 2, "panics = {}", m.solver_panics);
    assert!(m.quarantined > 0, "key never entered quarantine");

    // The wire string is machine-readable, not a Debug dump.
    let line = serde_json::to_string(&proto::dispatch(
        &svc,
        WireRequest::Solve(SolveRequest {
            instance: tradeoff(24),
            deadline_ms: Some(5000),
            kernel: None,
        }),
    ))
    .expect("serialize error reply");
    assert!(line.contains("\"solver_panic\""), "line = {line}");

    // d = 14 is answered before the seed scan: unaffected while armed.
    match proto::dispatch(
        &svc,
        WireRequest::Solve(SolveRequest {
            instance: tradeoff(14),
            deadline_ms: Some(5000),
            kernel: None,
        }),
    ) {
        WireResponse::Solved(r) => assert!(r.delay <= 14),
        other => panic!("unaffected key must still solve, got {other:?}"),
    }
}

#[test]
fn expired_deadline_degrades_to_a_completed_rung() {
    let _fp = fp_lock();
    // Each cycle-search round stalls 60 ms; a full solve needs four. A
    // 50 ms deadline therefore trips the cancellation token mid-search,
    // and the ladder must fall through to min-delay — a rung that runs to
    // completion — rather than returning a partial path system.
    krsp_failpoint::cfg("bicameral.search", "delay(60)").expect("arm bicameral.search");
    let svc = chaos_service(0);
    let inst = tradeoff(24);
    let r = svc
        .provision(Request {
            instance: inst.clone(),
            deadline: Some(Duration::from_millis(50)),
            kernel: None,
        })
        .expect("cancellation degrades, it does not reject");
    assert_ne!(
        r.rung,
        krsp_service::Rung::Full,
        "the stalled full rung cannot have finished"
    );
    assert_eq!(r.guarantee, r.rung.guarantee(), "advertised guarantee");
    // Completed answer: k disjoint paths inside the delay bound.
    assert_eq!(r.solution.paths(&inst).len(), inst.k);
    assert!(
        r.solution.delay <= inst.delay_bound,
        "delay {} exceeds bound {}",
        r.solution.delay,
        inst.delay_bound
    );
}

/// A probe that the cancellation token stops proves nothing about its
/// `Ĉ`. The bisection's last probe once counted such a stop as a genuine
/// failure: it left the loop with `lo = hi` and returned the `hi` probe as
/// a Full answer, whose `2·C_OPT` bound needs a real failure at `hi − 1`.
/// Here the token trips while the solve's last cycle search sleeps in its
/// fail point, so that search's Bellman–Ford stops at its first per-round
/// poll, and the solve must report `Cancelled`.
#[test]
fn cancelled_last_bisection_probe_is_not_shipped_as_full() {
    let _fp = fp_lock();
    let inst = tradeoff(24);
    let cfg = Config::default();
    // A clean run counts the searches. It must bisect, so that its last
    // search belongs to a bisection step.
    krsp_failpoint::cfg("bicameral.search", "delay(0)").expect("arm bicameral.search");
    let clean = krsp::solve(&inst, &cfg).expect("clean solve");
    let searches = krsp_failpoint::hits("bicameral.search");
    assert!(clean.stats.probes >= 2, "probes = {}", clean.stats.probes);

    krsp_failpoint::cfg("bicameral.search", "delay(250)").expect("arm bicameral.search");
    let token = krsp::CancelToken::cancellable();
    let mut scratch = krsp::SearchScratch::new();
    scratch.set_cancel(token.clone());
    let outcome = std::thread::scope(|s| {
        let solve = s.spawn(|| krsp::solve_with(&inst, &cfg, &mut scratch));
        // A search counts its hit before it sleeps.
        while krsp_failpoint::hits("bicameral.search") < 2 * searches {
            std::thread::sleep(Duration::from_millis(1));
        }
        token.cancel();
        solve.join().expect("solve thread never panics")
    });
    match outcome {
        Err(krsp::SolveError::Cancelled) => {}
        Ok(solved) => panic!(
            "a cancelled last probe shipped cost {} after {} probes",
            solved.solution.cost, solved.stats.probes
        ),
        Err(other) => panic!("expected Cancelled, got {other:?}"),
    }
}

/// The floor-probe twin of the test above: at `d = 22` the probe at
/// `Ĉ = ⌈C_LP⌉` concludes on its own, so every search of the solve is
/// that probe's, and a token that trips during its last one must not ship
/// the probe's partial flow or fall back to anything else.
#[test]
fn cancelled_floor_probe_is_not_shipped_as_full() {
    let _fp = fp_lock();
    let inst = tradeoff(22);
    let cfg = Config::default();
    krsp_failpoint::cfg("bicameral.search", "delay(0)").expect("arm bicameral.search");
    let clean = krsp::solve(&inst, &cfg).expect("clean solve");
    let searches = krsp_failpoint::hits("bicameral.search");
    assert_eq!(clean.stats.probes, 1, "the floor probe must conclude");
    assert!(searches >= 1);

    krsp_failpoint::cfg("bicameral.search", "delay(250)").expect("arm bicameral.search");
    let token = krsp::CancelToken::cancellable();
    let mut scratch = krsp::SearchScratch::new();
    scratch.set_cancel(token.clone());
    let outcome = std::thread::scope(|s| {
        let solve = s.spawn(|| krsp::solve_with(&inst, &cfg, &mut scratch));
        while krsp_failpoint::hits("bicameral.search") < 2 * searches {
            std::thread::sleep(Duration::from_millis(1));
        }
        token.cancel();
        solve.join().expect("solve thread never panics")
    });
    match outcome {
        Err(krsp::SolveError::Cancelled) => {}
        Ok(solved) => panic!(
            "a cancelled floor probe shipped cost {} after {} probes",
            solved.solution.cost, solved.stats.probes
        ),
        Err(other) => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn injected_delays_never_change_answers() {
    let _fp = fp_lock();
    let inst = tradeoff(24);
    let clean = krsp::solve(&inst, &Config::default()).expect("clean solve");
    // Jitter every solver-side site; results must stay bit-identical —
    // fault injection may reorder timing, never outcomes.
    for (site, action) in [
        ("bicameral.seed", "delay(2)"),
        ("bicameral.search", "delay(2)"),
        ("csp.dp", "delay(1)"),
        ("lp.simplex", "delay(1)"),
    ] {
        krsp_failpoint::cfg(site, action).expect("arm jitter site");
    }
    let jittered = krsp::solve(&inst, &Config::default()).expect("jittered solve");
    assert_eq!(clean.solution.cost, jittered.solution.cost);
    assert_eq!(clean.solution.delay, jittered.solution.delay);
    assert_eq!(clean.solution.edges, jittered.solution.edges);
}

#[test]
fn shutdown_drains_in_flight_wire_requests() {
    let _fp = fp_lock();
    // Every solve stalls 200 ms so the shutdown flag demonstrably flips
    // while the request is still in flight.
    krsp_failpoint::cfg("service.solve", "delay(200)").expect("arm service.solve");
    let svc = Arc::new(chaos_service(0));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind chaos listener");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let shutdown = Arc::new(AtomicBool::new(false));

    let server = {
        let (svc, shutdown) = (Arc::clone(&svc), Arc::clone(&shutdown));
        std::thread::spawn(move || {
            proto::serve_with_shutdown(
                &svc,
                listener,
                shutdown,
                ServeOptions {
                    grace: Duration::from_secs(5),
                    poll: Duration::from_millis(10),
                    ..ServeOptions::default()
                },
            )
        })
    };

    use std::io::{BufRead, BufReader, Write};
    let mut conn = BufReader::new(TcpStream::connect(addr).expect("connect"));
    let line = serde_json::to_string(&WireRequest::Solve(SolveRequest {
        instance: tradeoff(24),
        deadline_ms: Some(5000),
        kernel: None,
    }))
    .expect("serialize request");
    conn.get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .expect("send request");

    // Flip shutdown while the solve is inside its 200 ms stall.
    std::thread::sleep(Duration::from_millis(50));
    shutdown.store(true, Ordering::Release);

    let mut reply = String::new();
    conn.read_line(&mut reply).expect("read reply");
    match serde_json::from_str::<WireResponse>(reply.trim()).expect("parse reply") {
        WireResponse::Solved(r) => assert!(r.delay <= 24),
        other => panic!("in-flight request must complete through drain, got {other:?}"),
    }

    server
        .join()
        .expect("server thread exits")
        .expect("serve_with_shutdown returns cleanly");
    assert!(svc.is_shutting_down());
    // Post-drain the service sheds instead of solving.
    assert!(matches!(
        svc.provision(Request {
            instance: tradeoff(14),
            deadline: None,
            kernel: None,
        }),
        Err(Rejection::ShuttingDown)
    ));
}

#[test]
fn remote_replay_retries_until_the_server_appears() {
    let _fp = fp_lock();
    // Reserve a port, then free it so the replay's first connects fail.
    let addr = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr")
    };
    let spec = load::LoadSpec {
        requests: 6,
        unique: 2,
        clients: 2,
        n: 24,
        ..load::LoadSpec::default()
    };
    let remote = RemoteSpec {
        addr: addr.to_string(),
        retries: 12,
    };

    let svc = Arc::new(chaos_service(0));
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let (svc, shutdown) = (Arc::clone(&svc), Arc::clone(&shutdown));
        std::thread::spawn(move || {
            // Bind late: the clients must survive the gap via backoff.
            std::thread::sleep(Duration::from_millis(120));
            let listener = TcpListener::bind(addr).expect("late bind");
            proto::serve_with_shutdown(
                &svc,
                listener,
                shutdown,
                ServeOptions {
                    poll: Duration::from_millis(10),
                    ..ServeOptions::default()
                },
            )
        })
    };

    let report = load::run_remote(&spec, &remote).expect("remote replay");
    shutdown.store(true, Ordering::Release);
    server
        .join()
        .expect("server thread exits")
        .expect("server drains cleanly");

    assert!(
        report.transport_retries > 0,
        "clients connected before the listener existed?"
    );
    assert_eq!(report.wire_errors, 0, "report: {report:?}");
    assert_eq!(
        report.completed + report.infeasible,
        spec.requests as u64,
        "every request answered: {report:?}"
    );
    assert_eq!(report.service_metrics.admitted, report.completed);
}

/// T10 (EXPERIMENTS.md): a 120-request wire replay with solver stalls and
/// a shutdown once a quarter of the replay has completed. Every request
/// must resolve — solved, rejected, or a structured shed/transport error —
/// some must meet the shutdown, and the drain must finish inside its grace
/// period. Writes `results/t10_chaos.json`.
#[test]
#[ignore = "chaos storm: multi-second wall clock; run via scripts/ci.sh"]
fn t10_chaos_storm_report() {
    let _fp = fp_lock();
    krsp_failpoint::cfg("service.solve", "delay(5)").expect("arm service.solve");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let svc = Arc::new(chaos_service(2));
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let (svc, shutdown) = (Arc::clone(&svc), Arc::clone(&shutdown));
        std::thread::spawn(move || {
            proto::serve_with_shutdown(
                &svc,
                listener,
                shutdown,
                ServeOptions {
                    grace: Duration::from_secs(10),
                    // The sweep that notices the flag runs every `poll`; a short
                    // one lands the drain close to the flip.
                    poll: Duration::from_millis(1),
                    ..ServeOptions::default()
                },
            )
        })
    };

    let spec = load::LoadSpec {
        requests: 120,
        unique: 12,
        clients: 4,
        n: 24,
        deadline_ms: Some(2000),
        kernel: None,
        ..load::LoadSpec::default()
    };
    let remote = RemoteSpec {
        addr: addr.to_string(),
        retries: 3,
    };
    // SIGTERM stand-in: flip the flag once a quarter of the replay has
    // completed, so the shutdown lands mid-replay however fast the host
    // runs it (or once the replay has ended, should it never get there).
    let replay_done = Arc::new(AtomicBool::new(false));
    let trigger = {
        let (svc, shutdown, done) = (
            Arc::clone(&svc),
            Arc::clone(&shutdown),
            Arc::clone(&replay_done),
        );
        let share = spec.requests as u64 / 4;
        std::thread::spawn(move || {
            while svc.metrics().completed < share && !done.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(200));
            }
            shutdown.store(true, Ordering::Release);
        })
    };
    let report = load::run_remote(&spec, &remote).expect("storm replay");
    replay_done.store(true, Ordering::Release);
    trigger.join().expect("trigger thread");
    let drained = Instant::now();
    server
        .join()
        .expect("server thread exits")
        .expect("server drains cleanly");
    assert!(
        drained.elapsed() < Duration::from_secs(10),
        "drain blew through its grace period"
    );

    let accounted = report.completed
        + report.infeasible
        + report.rejected_queue_full
        + report.rejected_expired
        + report.wire_errors;
    assert_eq!(
        accounted, spec.requests as u64,
        "unaccounted requests: {report:?}"
    );
    assert!(report.completed > 0, "the storm answered nothing");
    assert!(
        report.rejected_queue_full + report.rejected_expired + report.wire_errors > 0,
        "no request met the shutdown: {report:?}"
    );

    std::fs::create_dir_all("results").expect("mkdir results");
    let doc = format!(
        "{{\"schema\": \"krsp-chaos-t10/v1\", \"report\": {}}}\n",
        serde_json::to_string_pretty(&report).expect("serialize report")
    );
    std::fs::write("results/t10_chaos.json", doc).expect("write t10 report");
}

/// A link-flap storm against a registered lineage: the spike half of the
/// storm is non-decreasing (costs and delays only go up), so the epoch
/// sweep accounts every tracked entry as retained or evicted; the
/// restore half *decreases* weights, which must evict conservatively —
/// a cached answer's optimality certificate does not survive a weight
/// drop. Throughout, the service keeps answering, and once the weights
/// are back the answers match the pre-storm solve exactly.
#[test]
fn link_flap_storm_sweeps_the_cache_and_keeps_answering() {
    let _fp = fp_lock();
    let svc = chaos_service(2);
    let inst0 = tradeoff(22);
    let (topo, epoch0) = svc.register_topology(&inst0.graph);
    assert_eq!(epoch0, 0);
    let first = svc
        .provision(Request {
            instance: inst0.clone(),
            deadline: None,
            kernel: None,
        })
        .expect("pre-storm solve");

    // Factor-2 spikes on three links keep the instance feasible (the two
    // fastest disjoint legs total delay 12 even fully spiked, under the
    // bound of 22) while forcing a real sweep decision per entry.
    let (spikes, restores) = krsp_suite::krsp_gen::flap_storm(&inst0.graph, 3, 2, 99);
    let spiked = svc.advance_epoch(topo, &spikes).expect("spike advance");
    assert_eq!(spiked.epoch, 1);
    assert_eq!(
        spiked.retained + spiked.evicted,
        1,
        "the sweep must account the one cached entry: {spiked:?}"
    );

    // Traffic during the storm: the spiked-weights instance answers
    // within its bound.
    let g1 = krsp_suite::krsp_gen::apply_changes(&inst0.graph, &spikes);
    let inst1 = Instance::new(g1, inst0.s, inst0.t, inst0.k, inst0.delay_bound)
        .expect("spiked instance is well-formed");
    let mid = svc
        .provision(Request {
            instance: inst1.clone(),
            deadline: None,
            kernel: None,
        })
        .expect("mid-storm solve");
    assert!(mid.solution.delay <= inst1.delay_bound);

    // The restore decreases weights: every tracked entry must go.
    let restored = svc.advance_epoch(topo, &restores).expect("restore advance");
    assert_eq!(restored.epoch, 2);
    assert_eq!(
        restored.retained, 0,
        "a weight decrease must evict conservatively: {restored:?}"
    );

    // Weights are back to the original values: the lineage answers the
    // original instance again within the same guarantee. (Not
    // necessarily bit-identically — the restore's eviction leaves a
    // warm-start seed, and a warm solve may legitimately certify a
    // different, even cheaper, answer than the cold 2-approximation.)
    let back = svc
        .provision(Request {
            instance: inst0.clone(),
            deadline: None,
            kernel: None,
        })
        .expect("post-storm solve");
    assert!(back.solution.delay <= inst0.delay_bound);
    assert!(
        i128::from(back.solution.cost) <= 2 * i128::from(first.solution.cost),
        "post-storm cost {} blew the guarantee vs pre-storm {}",
        back.solution.cost,
        first.solution.cost
    );

    let m = svc.metrics();
    assert_eq!(m.epoch, 2);
    assert!(m.epoch_advances >= 2, "metrics missed the storm: {m:?}");
}

/// A rolling-update replay under ambient solver jitter: three traffic
/// windows separated by per-lineage cost ramps, with every solve delayed
/// by an injected stall. Every window must fully answer, every epoch
/// advance must account each lineage's cached entry, and the repeats
/// inside each window must keep hitting the (epoch-scoped) cache.
#[test]
fn rolling_replay_rides_through_solver_jitter() {
    let _fp = fp_lock();
    krsp_failpoint::cfg("service.solve", "delay(2)").expect("arm service.solve");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let svc = Arc::new(chaos_service(2));
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let (svc, shutdown) = (Arc::clone(&svc), Arc::clone(&shutdown));
        std::thread::spawn(move || {
            proto::serve_with_shutdown(
                &svc,
                listener,
                shutdown,
                ServeOptions {
                    poll: Duration::from_millis(10),
                    ..ServeOptions::default()
                },
            )
        })
    };

    let spec = load::LoadSpec {
        requests: 12,
        unique: 3,
        clients: 1,
        n: 24,
        ..load::LoadSpec::default()
    };
    let rolling = load::RollingSpec {
        windows: 3,
        ramp_edges: 1,
        ramp_num: 11,
        ramp_den: 10,
    };
    let remote = RemoteSpec {
        addr: addr.to_string(),
        retries: 3,
    };
    let report = load::run_rolling(&spec, &rolling, &remote).expect("rolling replay");
    shutdown.store(true, Ordering::Release);
    server
        .join()
        .expect("server thread exits")
        .expect("server drains cleanly");

    assert_eq!(report.lineages, 3);
    assert_eq!(report.windows.len(), 3);
    for w in &report.windows {
        assert_eq!(w.wire_errors, 0, "window {} hit wire errors", w.window);
        assert_eq!(
            w.completed, 12,
            "window {} lost answers: {report:?}",
            w.window
        );
        assert!(
            w.cache_hits > 0,
            "window {} repeats missed the cache: {report:?}",
            w.window
        );
    }
    for w in &report.windows[1..] {
        assert_eq!(
            w.advance_retained + w.advance_evicted,
            3,
            "the advance before window {} must account one entry per lineage: {report:?}",
            w.window
        );
    }
    assert_eq!(report.service_metrics.epoch_advances, 6);
}

/// Restart-under-load: a served daemon with the disk tier enabled is
/// SIGKILLed — no drain, no graceful flush — and a fresh daemon pointed
/// at the same cache directory must answer the same replay with a
/// nonzero hit rate, recovered from disk. The restart binds a fresh
/// port (the dead process's connections may pin the old one in
/// TIME_WAIT); only the cache directory carries state across.
#[test]
fn sigkill_restart_reheats_from_the_disk_tier() {
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("krsp-chaos-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir cache dir");
    let reserve = || {
        TcpListener::bind("127.0.0.1:0")
            .expect("probe bind")
            .local_addr()
            .expect("probe addr")
    };
    let spawn = |addr: std::net::SocketAddr| {
        Command::new(env!("CARGO_BIN_EXE_krsp-cli"))
            .args([
                "serve",
                &addr.to_string(),
                "--workers",
                "2",
                "--cache-dir",
                dir.to_str().expect("utf-8 tmpdir"),
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn krsp-cli serve")
    };
    let spec = load::LoadSpec {
        requests: 12,
        unique: 3,
        clients: 2,
        n: 24,
        ..load::LoadSpec::default()
    };

    let addr = reserve();
    let mut child = spawn(addr);
    let warmup = load::run_remote(
        &spec,
        &RemoteSpec {
            addr: addr.to_string(),
            retries: 12,
        },
    )
    .expect("warmup replay");
    child.kill().expect("SIGKILL the daemon");
    child.wait().expect("reap the daemon");

    let addr = reserve();
    let mut child = spawn(addr);
    let replay = load::run_remote(
        &spec,
        &RemoteSpec {
            addr: addr.to_string(),
            retries: 12,
        },
    )
    .expect("replay after restart");
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(warmup.completed, 12, "warmup lost answers: {warmup:?}");
    assert_eq!(replay.completed, 12, "replay lost answers: {replay:?}");
    assert!(
        replay.cache_hits > 0,
        "the disk tier answered nothing after a SIGKILL restart: {replay:?}"
    );
    assert!(
        replay.service_metrics.disk_recovered > 0,
        "restart recovered no records: {:?}",
        replay.service_metrics
    );
    assert!(
        replay.service_metrics.disk_hits > 0,
        "no replay answer came off disk: {:?}",
        replay.service_metrics
    );
}

/// The `krsp-load` binary end to end against a spawned `krsp-cli serve`,
/// once per client shape: one at a time, pipelined, batched, and a
/// pipelined rolling replay. Each run must exit 0 with a report that
/// accounts for every request, and conflicting framings must exit 2.
#[test]
fn krsp_load_replays_every_shape_against_a_served_daemon() {
    use std::process::{Command, Output, Stdio};

    let addr = TcpListener::bind("127.0.0.1:0")
        .expect("probe bind")
        .local_addr()
        .expect("probe addr")
        .to_string();
    let mut server = Command::new(env!("CARGO_BIN_EXE_krsp-cli"))
        .args(["serve", &addr, "--workers", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn krsp-cli serve");
    let load = |shape: &[&str]| -> Output {
        Command::new(env!("CARGO_BIN_EXE_krsp-load"))
            .args(["--connect", &addr, "--retries", "12", "--requests", "12"])
            .args(["--unique", "3", "--clients", "2", "--n", "24"])
            .args(shape)
            .stderr(Stdio::null())
            .output()
            .expect("run krsp-load")
    };
    let stdout = |shape: &[&str]| {
        let out = load(shape);
        assert!(out.status.success(), "{shape:?} exited {}", out.status);
        String::from_utf8(out.stdout).expect("utf-8 report")
    };

    for shape in [&[][..], &["--pipeline", "4"], &["--batch", "4"]] {
        let r: load::LoadReport = serde_json::from_str(&stdout(shape)).expect("LoadReport JSON");
        let outcomes =
            r.completed + r.infeasible + r.rejected_queue_full + r.rejected_expired + r.wire_errors;
        assert_eq!(
            (r.issued, outcomes, r.wire_errors),
            (12, 12, 0),
            "{shape:?}: {r:?}"
        );
    }
    let rolling: load::RollingReport =
        serde_json::from_str(&stdout(&["--rolling", "2", "--pipeline", "2"]))
            .expect("RollingReport JSON");
    assert_eq!(rolling.windows.len(), 2);
    for w in &rolling.windows {
        assert_eq!((w.issued, w.completed, w.wire_errors), (12, 12, 0), "{w:?}");
    }
    let conflicting = load(&["--pipeline", "2", "--batch", "2"]);
    let _ = server.kill();
    let _ = server.wait();
    assert_eq!(conflicting.status.code(), Some(2));
}

/// T14 (EXPERIMENTS.md): topology epochs, warm starts, and the disk
/// tier, measured end to end. Three halves:
///
/// * **Rolling replay** (`krsp-load --rolling` shape over the wire):
///   single-edge cost ramps between windows must retain > 80% of the
///   epoch-scoped cache and register warm starts on the evicted rest.
/// * **Warm vs cold**: on tight-budget generated instances, a seeded
///   re-solve after a small delta must beat the cold re-solve's median
///   latency (the certificate accept skips the probe bisection).
/// * **Restart-under-load**: a SIGKILLed daemon restarted over the same
///   `--cache-dir` must answer the first replay window with a nonzero
///   hit rate, recovered from disk.
///
/// Writes `results/t14_epochs.json`.
#[test]
#[ignore = "epoch report: multi-second wall clock; run via scripts/ci.sh"]
fn t14_epoch_warm_disk_report() {
    use krsp_service::{solve_degraded_seeded, solve_degraded_with, KernelLadder, LadderPolicy};
    use krsp_suite::krsp::CancelToken;
    use krsp_suite::krsp_gen::{self, Regime, Workload};
    use std::process::{Command, Stdio};

    let _fp = fp_lock();

    // -- Half 1: rolling replay over the wire, single-edge ramps. -----
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let svc = Arc::new(chaos_service(2));
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let (svc, shutdown) = (Arc::clone(&svc), Arc::clone(&shutdown));
        std::thread::spawn(move || {
            proto::serve_with_shutdown(
                &svc,
                listener,
                shutdown,
                ServeOptions {
                    poll: Duration::from_millis(10),
                    ..ServeOptions::default()
                },
            )
        })
    };
    let spec = load::LoadSpec {
        requests: 60,
        unique: 12,
        clients: 1,
        n: 60,
        ..load::LoadSpec::default()
    };
    let rolling = load::RollingSpec {
        windows: 4,
        ramp_edges: 1,
        ramp_num: 11,
        ramp_den: 10,
    };
    let remote = RemoteSpec {
        addr: addr.to_string(),
        retries: 3,
    };
    let report = load::run_rolling(&spec, &rolling, &remote).expect("rolling replay");
    shutdown.store(true, Ordering::Release);
    server
        .join()
        .expect("server thread exits")
        .expect("server drains cleanly");

    let (retained, swept): (u64, u64) = report.windows[1..].iter().fold((0, 0), |(r, s), w| {
        (
            r + w.advance_retained,
            s + w.advance_retained + w.advance_evicted,
        )
    });
    let retention = retained as f64 / swept.max(1) as f64;
    assert!(
        retention > 0.8,
        "single-edge ramps must retain > 80% of the cache, got {retention:.2}: {report:?}"
    );
    for w in &report.windows {
        assert_eq!(w.completed, w.issued, "window {} lost answers", w.window);
    }

    // -- Half 2: warm vs cold medians on tight-budget instances. ------
    let cfg = Config::default();
    let policy = LadderPolicy::default();
    let kernels = KernelLadder::default();
    let budget = Duration::from_secs(30);
    let never = CancelToken::never();
    // (cold µs, warm µs, did the seed participate) per instance.
    let mut pairs: Vec<(u64, u64, bool)> = Vec::new();
    for u in 0..24u64 {
        let w = Workload {
            family: krsp_suite::krsp_gen::Family::Gnm,
            n: 48,
            m: 192,
            regime: Regime::Anticorrelated,
            k: 2,
            tightness: 0.2,
            seed: 9000 + 1000 * u,
        };
        let Some(inst0) = krsp_gen::instantiate_with_retries(w, 50) else {
            continue;
        };
        let seed_solve = solve_degraded_with(&inst0, &cfg, budget, &policy, &kernels, &never)
            .expect("generator certified feasibility");
        let changes = krsp_gen::cost_ramp(&inst0.graph, 1, 11, 10, u);
        let g1 = krsp_gen::apply_changes(&inst0.graph, &changes);
        let inst1 = Instance::new(g1, inst0.s, inst0.t, inst0.k, inst0.delay_bound)
            .expect("cost ramp preserves validity");

        let t0 = Instant::now();
        let cold = solve_degraded_with(&inst1, &cfg, budget, &policy, &kernels, &never)
            .expect("ramped instance stays feasible");
        let cold_us = t0.elapsed().as_micros() as u64;
        let t0 = Instant::now();
        let warm = solve_degraded_seeded(
            &inst1,
            &cfg,
            budget,
            &policy,
            &kernels,
            &never,
            Some(&seed_solve.solution.edges),
        )
        .expect("seeded re-solve stays feasible");
        pairs.push((cold_us, t0.elapsed().as_micros() as u64, warm.warm));
        assert!(warm.solution.delay <= inst1.delay_bound);
        assert!(
            i128::from(warm.solution.cost) <= 2 * i128::from(cold.solution.cost),
            "warm answer blew the guarantee"
        );
    }
    let p50 = |mut v: Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    // The claim is about solves where the seed *participates* (on the
    // rest the warm path reduces to the cold one by construction —
    // pinned bit-identical by tests/warm_diff.rs — so including them
    // only dilutes both medians equally with tied samples).
    let participating: Vec<&(u64, u64, bool)> = pairs.iter().filter(|p| p.2).collect();
    let warm_solves = participating.len() as u64;
    assert!(warm_solves > 0, "no seed ever participated — vacuous A/B");
    let warm_p50 = p50(participating.iter().map(|p| p.1).collect());
    let cold_p50 = p50(participating.iter().map(|p| p.0).collect());
    assert!(
        warm_p50 < cold_p50,
        "warm median {warm_p50} µs must beat cold {cold_p50} µs ({warm_solves} warm solves)"
    );

    // -- Half 3: SIGKILL restart over the disk tier. ------------------
    let dir = std::env::temp_dir().join(format!("krsp-t14-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir cache dir");
    let reserve = || {
        TcpListener::bind("127.0.0.1:0")
            .expect("probe bind")
            .local_addr()
            .expect("probe addr")
    };
    let spawn = |addr: std::net::SocketAddr| {
        Command::new(env!("CARGO_BIN_EXE_krsp-cli"))
            .args([
                "serve",
                &addr.to_string(),
                "--workers",
                "2",
                "--cache-dir",
                dir.to_str().expect("utf-8 tmpdir"),
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn krsp-cli serve")
    };
    let restart_spec = load::LoadSpec {
        requests: 24,
        unique: 6,
        clients: 2,
        n: 24,
        ..load::LoadSpec::default()
    };
    let addr = reserve();
    let mut child = spawn(addr);
    let warmup = load::run_remote(
        &restart_spec,
        &RemoteSpec {
            addr: addr.to_string(),
            retries: 12,
        },
    )
    .expect("warmup replay");
    child.kill().expect("SIGKILL the daemon");
    child.wait().expect("reap the daemon");
    let addr = reserve();
    let mut child = spawn(addr);
    let replay = load::run_remote(
        &restart_spec,
        &RemoteSpec {
            addr: addr.to_string(),
            retries: 12,
        },
    )
    .expect("replay after restart");
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
    let hit_rate = replay.cache_hits as f64 / replay.completed.max(1) as f64;
    assert!(
        hit_rate > 0.0,
        "the restarted daemon answered its first window entirely cold: {replay:?}"
    );
    assert!(replay.service_metrics.disk_recovered > 0);

    std::fs::create_dir_all("results").expect("mkdir results");
    let doc = format!(
        "{{\"schema\": \"krsp-epochs-t14/v1\",\n \"retention_rate\": {retention:.4},\n \
         \"warm_vs_cold\": {{\"instances\": {}, \"warm_solves\": {warm_solves}, \
         \"warm_p50_us\": {warm_p50}, \"cold_p50_us\": {cold_p50}, \
         \"medians_over\": \"seed-participating solves\"}},\n \
         \"restart_hit_rate\": {hit_rate:.4},\n \"rolling\": {},\n \
         \"restart_warmup\": {},\n \"restart_replay\": {}}}\n",
        pairs.len(),
        serde_json::to_string_pretty(&report).expect("serialize rolling report"),
        serde_json::to_string_pretty(&warmup).expect("serialize warmup report"),
        serde_json::to_string_pretty(&replay).expect("serialize replay report"),
    );
    std::fs::write("results/t14_epochs.json", doc).expect("write t14 report");
}
