//! Replica-ring chaos suite: deterministic fault injection against the
//! consistent-hash router (DESIGN.md §4.18).
//!
//! Every test takes [`fp_lock`] — the failpoint registry is
//! process-global, so even the tests that arm nothing must serialize
//! against the ones that do — and the guard clears all sites on drop.
//!
//! The scenarios mirror the router's fault model: a replica killed with
//! traffic in flight loses zero requests (failover within the deadline
//! budget), a draining replica hands its keys off without a dropped id,
//! a hedged send's loser is cancelled and counted, and two identical
//! chaos replays emit identical retry traces (the jitter is a pure
//! function of the seed).
//!
//! The router's own listener is driven over TCP too: pipelined requests
//! are answered out of order by id, a slow-loris client is reaped while a
//! neighbour is served, an oversize line gets an id-matched error, and a
//! routed request past the in-flight cap is shed.

use krsp_service::proto::{self, ServeOptions, SolveRequest, WireRequest, WireResponse};
use krsp_service::{
    serve_ring_with_shutdown, ErrorKind, RingState, Router, RouterOptions, Service, ServiceConfig,
};
use krsp_suite::krsp::Instance;
use krsp_suite::krsp_graph::{DiGraph, NodeId};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

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
    let guard = FP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    krsp_failpoint::clear();
    FpGuard(guard)
}

/// A 6-node instance with a real cost/delay tradeoff; varying the delay
/// bound varies the canonical digest, so a `d` sweep spreads keys across
/// the ring. Feasible for every `d ≥ 6` (fast pricey + spare fast).
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

/// One running replica: its service handle (for direct drain control),
/// its address, and the shutdown flag + thread that stop it.
struct Replica {
    service: Service,
    addr: String,
    shutdown: Arc<AtomicBool>,
    server: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Replica {
    fn start() -> Replica {
        let service = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind replica");
        let addr = listener.local_addr().expect("replica addr").to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = {
            let (service, shutdown) = (service.clone(), Arc::clone(&shutdown));
            std::thread::spawn(move || {
                proto::serve_with_shutdown(
                    &service,
                    listener,
                    shutdown,
                    ServeOptions {
                        poll: Duration::from_millis(5),
                        grace: Duration::from_secs(2),
                        ..ServeOptions::default()
                    },
                )
            })
        };
        Replica {
            service,
            addr,
            shutdown,
            server: Some(server),
        }
    }

    /// Stops the replica hard: the listener closes, idle connections
    /// (including the router's pooled ones) die on their next tick.
    fn kill(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(server) = self.server.take() {
            server
                .join()
                .expect("replica thread exits")
                .expect("replica drains cleanly");
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.kill();
    }
}

fn router_over(replicas: &[&Replica], tweak: impl FnOnce(&mut RouterOptions)) -> Router {
    let mut opts = RouterOptions {
        replicas: replicas.iter().map(|r| r.addr.clone()).collect(),
        seed: 0x5eed,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        ..RouterOptions::default()
    };
    tweak(&mut opts);
    Router::new(opts)
}

fn solve_req(d: i64) -> SolveRequest {
    SolveRequest {
        instance: tradeoff(d),
        deadline_ms: Some(2_000),
        kernel: None,
    }
}

/// Routes a `d`-sweep of solves and asserts every one is answered with a
/// solution (not a router-side error), returning the responses.
fn sweep(router: &Router, bounds: impl Iterator<Item = i64>) -> Vec<WireResponse> {
    bounds
        .map(|d| {
            let response = router.route_solve(&solve_req(d));
            match &response {
                WireResponse::Solved(_) => {}
                WireResponse::Error(e) => {
                    panic!("d={d} was dropped with {:?}: {}", e.kind, e.message)
                }
                other => panic!("d={d} got an unexpected reply: {other:?}"),
            }
            response
        })
        .collect()
}

#[test]
fn killed_replica_fails_over_within_the_deadline() {
    let _fp = fp_lock();
    let mut a = Replica::start();
    let b = Replica::start();
    let router = router_over(&[&a, &b], |_| {});

    // Warm pass: both replicas answer, connections get pooled.
    sweep(&router, 14..26);
    let warm = router.ring_reply();
    assert_eq!(warm.requests, 12);
    assert_eq!(warm.retries, 0, "warm pass must not retry: {warm:?}");
    assert!(router.take_trace().iter().all(|t| t.contains("event=ok")));

    // Kill replica 0. Keys whose primary it was must fail over to
    // replica 1 — pooled connections die mid-stream (`conn_died`), fresh
    // dials are refused (`dial_fail`) — and nothing may be dropped.
    a.kill();
    sweep(&router, 14..26);
    let after = router.ring_reply();
    assert!(
        after.retries > 0,
        "no key had the dead replica as primary — the sweep is vacuous: {after:?}"
    );
    let trace = router.take_trace();
    assert!(
        trace
            .iter()
            .any(|t| t.contains("event=dial_fail") || t.contains("event=conn_died")),
        "failover left no failure events: {trace:?}"
    );
    // Every request still ends in an ok event, and the dead replica's
    // passive failures must have demoted it.
    assert_eq!(
        trace.iter().filter(|t| t.contains("event=ok")).count(),
        12,
        "some request never reached an answer: {trace:?}"
    );
    assert_ne!(
        router.replica_states()[0],
        RingState::Up,
        "repeated failures left the dead replica Up"
    );
    assert_eq!(router.replica_states()[1], RingState::Up);
}

#[test]
fn draining_replica_hands_off_every_key_without_new_sends() {
    let _fp = fp_lock();
    let a = Replica::start();
    let b = Replica::start();
    let router = router_over(&[&a, &b], |_| {});

    // Both up: the probe sweep sees two ready replicas.
    router.probe_all_once();
    assert_eq!(router.replica_states(), vec![RingState::Up, RingState::Up]);
    sweep(&router, 14..26);
    let _ = router.take_trace();

    // Replica 0 starts draining (the SIGTERM path sets the same flag);
    // the router must observe it via the Health probe, not by burning
    // failed requests.
    a.service.begin_shutdown();
    router.probe_all_once();
    assert_eq!(
        router.replica_states()[0],
        RingState::Draining,
        "the probe missed the drain advertisement"
    );

    // Every key — including those replica 0 owned — must be answered by
    // replica 1, with zero dropped ids and zero sends to the drainer.
    sweep(&router, 14..26);
    let trace = router.take_trace();
    assert_eq!(
        trace.iter().filter(|t| t.contains("event=ok")).count(),
        12,
        "the drain dropped ids: {trace:?}"
    );
    assert!(
        trace.iter().all(|t| t.contains("replica=1")),
        "a request was sent to the draining replica: {trace:?}"
    );
    // Passive successes on the survivor must not revive the drainer —
    // only a ready probe clears Draining.
    assert_eq!(router.replica_states()[0], RingState::Draining);
}

#[test]
fn hedged_solve_wins_on_the_secondary_and_counts_the_race() {
    let _fp = fp_lock();
    let a = Replica::start();
    let b = Replica::start();
    let router = router_over(&[&a, &b], |opts| {
        opts.hedge = true;
        opts.hedge_warmup = 0; // cold histogram may hedge immediately
        opts.hedge_min = Duration::from_millis(5);
    });

    // Stall the first forward (the primary leg) long past the hedge
    // trigger; the secondary leg's forward is unimpeded and must win.
    krsp_failpoint::cfg("router.forward", "1*delay(300)").expect("arm router.forward");
    let response = router.route_solve(&solve_req(24));
    assert!(
        matches!(response, WireResponse::Solved(_)),
        "hedged solve failed: {response:?}"
    );
    let stats = router.ring_reply();
    assert!(
        stats.hedges_fired >= 1,
        "the stalled primary never armed the hedge: {stats:?}"
    );
    assert_eq!(
        stats.hedges_won, stats.hedges_fired,
        "the unimpeded secondary lost the race: {stats:?}"
    );
    assert_eq!(stats.retries, 0, "a hedge is not a retry: {stats:?}");
    let trace = router.take_trace();
    assert!(
        trace.iter().any(|t| t.contains("event=hedge_fire")),
        "hedge left no trace: {trace:?}"
    );
    // The cancelled loser is not a failure signal: both replicas stay Up.
    assert_eq!(router.replica_states(), vec![RingState::Up, RingState::Up]);
}

#[test]
fn identical_chaos_replays_emit_identical_retry_traces() {
    let _fp = fp_lock();
    let a = Replica::start();
    let b = Replica::start();

    let replay = |seed: u64| {
        krsp_failpoint::clear();
        krsp_failpoint::cfg("router.dial", "2*err(chaos dial)").expect("arm router.dial");
        let router = router_over(&[&a, &b], |opts| opts.seed = seed);
        // Sequential requests: the first burns both candidates on the
        // armed dial failures, the rest route cleanly.
        let responses: Vec<WireResponse> = (14..22)
            .map(|d| router.route_solve(&solve_req(d)))
            .collect();
        (router.take_trace(), responses)
    };

    let (trace_one, responses) = replay(0xfeed);
    let (trace_two, _) = replay(0xfeed);
    assert_eq!(
        trace_one, trace_two,
        "same seed + same failure script must replay identically"
    );
    assert!(
        trace_one.iter().any(|t| t.contains("event=dial_fail")),
        "the chaos script never fired: {trace_one:?}"
    );
    // The injected failures exhausted the first request's candidates —
    // it must surface as a structured timeout, not hang or vanish.
    match &responses[0] {
        WireResponse::Error(e) => assert_eq!(e.kind, ErrorKind::Timeout),
        other => panic!("the doomed request got {other:?}"),
    }
    assert!(
        responses[1..]
            .iter()
            .all(|r| matches!(r, WireResponse::Solved(_))),
        "requests after the script was spent must all solve"
    );

    // A different seed shifts the jittered backoffs but not the events.
    let (trace_three, _) = replay(0xbeef);
    assert_ne!(
        trace_one, trace_three,
        "the seed is not reaching the jitter"
    );
    let strip = |trace: &[String]| -> Vec<String> {
        trace
            .iter()
            .map(|t| {
                t.split(" backoff_us=")
                    .next()
                    .expect("trace shape")
                    .to_string()
            })
            .collect()
    };
    assert_eq!(
        strip(&trace_one),
        strip(&trace_three),
        "the seed must only perturb backoff, never routing"
    );
}

/// A router serving on loopback through `serve_ring_with_shutdown`; it
/// stops and joins on drop.
struct RingServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    server: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl RingServer {
    fn start(router: Router) -> RingServer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
        let addr = listener.local_addr().expect("router addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let server = std::thread::spawn(move || serve_ring_with_shutdown(&router, listener, flag));
        RingServer {
            addr,
            shutdown,
            server: Some(server),
        }
    }

    fn connect(&self) -> BufReader<TcpStream> {
        BufReader::new(TcpStream::connect(self.addr).expect("dial router"))
    }
}

impl Drop for RingServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(server) = self.server.take() {
            server
                .join()
                .expect("router thread exits")
                .expect("router drains cleanly");
        }
    }
}

/// A router over `replica` with a quick housekeeping tick.
fn ring_over(replica: &Replica, tweak: impl FnOnce(&mut RouterOptions)) -> RingServer {
    RingServer::start(router_over(&[replica], |opts| {
        opts.poll = Duration::from_millis(5);
        tweak(opts);
    }))
}

fn send(conn: &mut BufReader<TcpStream>, lines: &[String]) {
    let text: String = lines.iter().map(|line| format!("{line}\n")).collect();
    conn.get_mut()
        .write_all(text.as_bytes())
        .expect("write request lines");
}

fn read_reply(conn: &mut BufReader<TcpStream>) -> (Option<u64>, WireResponse) {
    let mut line = String::new();
    let n = conn.read_line(&mut line).expect("read reply");
    assert!(n > 0, "the router closed the connection");
    proto::decode_response_line(line.trim()).expect("reply parses")
}

fn id_solve(id: u64, d: i64) -> String {
    proto::encode_request_with_id(id, &WireRequest::Solve(solve_req(d)))
}

#[test]
fn pipelined_health_overtakes_a_held_routed_solve() {
    let _fp = fp_lock();
    let replica = Replica::start();
    let ring = ring_over(&replica, |_| {});
    let mut conn = ring.connect();

    // The replica holds every fresh solve; the router must keep reading
    // the connection and answer the Health behind the solve first.
    krsp_failpoint::cfg("service.solve", "delay(200)").expect("arm service.solve");
    send(
        &mut conn,
        &[
            id_solve(1, 20),
            proto::encode_request_with_id(2, &WireRequest::Health),
        ],
    );
    let (id, first) = read_reply(&mut conn);
    assert_eq!(id, Some(2), "the Health waited behind the solve: {first:?}");
    assert!(
        matches!(first, WireResponse::Ring(_)),
        "the router answers Health with its ring view: {first:?}"
    );
    let (id, second) = read_reply(&mut conn);
    assert_eq!(id, Some(1));
    assert!(
        matches!(second, WireResponse::Solved(_)),
        "the held solve still completes: {second:?}"
    );
}

#[test]
fn slow_loris_is_reaped_while_a_neighbour_is_answered() {
    let _fp = fp_lock();
    let replica = Replica::start();
    let ring = ring_over(&replica, |opts| {
        opts.read_timeout = Duration::from_millis(250);
    });

    // The loris: half a request line, then silence.
    let mut loris = ring.connect();
    loris
        .get_mut()
        .write_all(b"{\"Solve\": {\"inst")
        .expect("write partial line");

    let mut good = ring.connect();
    send(&mut good, &[id_solve(1, 20)]);
    let (id, reply) = read_reply(&mut good);
    assert_eq!(id, Some(1));
    assert!(
        matches!(reply, WireResponse::Solved(_)),
        "the neighbour must be served during the loris stall: {reply:?}"
    );

    loris
        .get_mut()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set client read timeout");
    let mut buf = [0u8; 16];
    let n = loris.get_mut().read(&mut buf).expect("loris read");
    assert_eq!(n, 0, "the router must close the stalled connection");

    send(&mut good, &[id_solve(2, 21)]);
    let (id, reply) = read_reply(&mut good);
    assert_eq!(id, Some(2));
    assert!(matches!(reply, WireResponse::Solved(_)), "{reply:?}");
}

#[test]
fn oversize_line_gets_an_id_matched_error_and_the_connection_keeps_serving() {
    let _fp = fp_lock();
    let replica = Replica::start();
    let ring = ring_over(&replica, |_| {});
    let mut conn = ring.connect();

    let mut oversize = String::from("{\"id\":7,\"Solve\":\"");
    oversize.push_str(&"x".repeat(proto::MAX_LINE_BYTES + 1024));
    send(&mut conn, &[oversize, id_solve(8, 20)]);
    let (id, reply) = read_reply(&mut conn);
    assert_eq!(id, Some(7), "the oversize error must carry its id");
    match reply {
        WireResponse::Error(e) => assert_eq!(e.kind, ErrorKind::OversizeLine),
        other => panic!("expected an oversize error, got {other:?}"),
    }
    let (id, reply) = read_reply(&mut conn);
    assert_eq!(id, Some(8));
    assert!(
        matches!(reply, WireResponse::Solved(_)),
        "the connection must keep serving: {reply:?}"
    );
}

#[test]
fn a_routed_request_past_max_conns_in_flight_is_shed() {
    let _fp = fp_lock();
    let replica = Replica::start();
    let ring = ring_over(&replica, |opts| opts.max_conns = 2);
    let mut conn = ring.connect();

    // Two held solves fill the in-flight cap; the third is shed at once.
    krsp_failpoint::cfg("service.solve", "delay(200)").expect("arm service.solve");
    send(
        &mut conn,
        &[id_solve(1, 20), id_solve(2, 21), id_solve(3, 22)],
    );
    let (id, first) = read_reply(&mut conn);
    assert_eq!(
        id,
        Some(3),
        "the third solve must be answered first: {first:?}"
    );
    match first {
        WireResponse::Error(e) => assert_eq!(e.kind, ErrorKind::Shed),
        other => panic!("expected a shed error, got {other:?}"),
    }
    let mut rest = [read_reply(&mut conn), read_reply(&mut conn)];
    rest.sort_by_key(|(id, _)| *id);
    for ((id, reply), want) in rest.into_iter().zip([1, 2]) {
        assert_eq!(id, Some(want));
        assert!(
            matches!(reply, WireResponse::Solved(_)),
            "id {want} must still solve: {reply:?}"
        );
    }
    // The router counts the shed as one of its own rejections.
    send(
        &mut conn,
        &[proto::encode_request_with_id(4, &WireRequest::Health)],
    );
    match read_reply(&mut conn) {
        (Some(4), WireResponse::Ring(ring)) => {
            assert_eq!(ring.rejected, 1, "{ring:?}");
            assert_eq!(
                ring.requests, 2,
                "the shed solve was never routed: {ring:?}"
            );
        }
        other => panic!("expected the router's Health, got {other:?}"),
    }
}

/// T15 (EXPERIMENTS.md): the replica ring measured end to end over real
/// processes. Three phases, all through `krsp-cli route`:
///
/// * **1 vs 3 replicas**: the same replay against a one-replica ring and
///   a three-replica ring (A/B on ring width).
/// * **Replica kill**: against the three-replica ring, a replay per
///   failover phase — before (all up), during (one replica SIGKILLed
///   mid-replay), after (probes have marked it Down) — asserting 100%
///   availability throughout and recording the p99 cost of failover.
///
/// Writes `results/t15_ring.json`.
#[test]
#[ignore = "ring storm: multi-second wall clock; run via scripts/ci.sh"]
fn t15_ring_storm_report() {
    use krsp_service::{load, RemoteSpec};
    use std::process::{Command, Stdio};

    let _fp = fp_lock();
    let reserve = || {
        TcpListener::bind("127.0.0.1:0")
            .expect("probe bind")
            .local_addr()
            .expect("probe addr")
    };
    let spawn_replica = |addr: std::net::SocketAddr| {
        Command::new(env!("CARGO_BIN_EXE_krsp-cli"))
            .args(["serve", &addr.to_string(), "--workers", "2"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn krsp-cli serve")
    };
    let spawn_router = |addr: std::net::SocketAddr, replicas: &[std::net::SocketAddr]| {
        let list = replicas
            .iter()
            .map(std::net::SocketAddr::to_string)
            .collect::<Vec<_>>()
            .join(",");
        Command::new(env!("CARGO_BIN_EXE_krsp-cli"))
            .args([
                "route",
                &addr.to_string(),
                "--replicas",
                &list,
                "--probe-ms",
                "100",
                "--seed",
                "4242",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn krsp-cli route")
    };
    let spec = |qps: f64| load::LoadSpec {
        requests: 60,
        unique: 12,
        clients: 3,
        n: 36,
        qps,
        ..load::LoadSpec::default()
    };
    let replay = |router: std::net::SocketAddr, qps: f64| {
        load::run_remote(
            &spec(qps),
            &RemoteSpec {
                addr: router.to_string(),
                retries: 12,
            },
        )
        .expect("replay through the router")
    };
    let availability =
        |r: &load::LoadReport| (r.completed + r.infeasible) as f64 / r.issued.max(1) as f64;

    // -- Phase A: one replica behind the ring. ------------------------
    let solo = reserve();
    let mut solo_child = spawn_replica(solo);
    let router_one = reserve();
    let mut router_one_child = spawn_router(router_one, &[solo]);
    let one = replay(router_one, 0.0);
    let _ = router_one_child.kill();
    let _ = router_one_child.wait();
    let _ = solo_child.kill();
    let _ = solo_child.wait();
    assert_eq!(
        availability(&one),
        1.0,
        "the one-replica ring dropped requests: {one:?}"
    );

    // -- Phase B: three replicas, then a SIGKILL mid-replay. ----------
    let addrs = [reserve(), reserve(), reserve()];
    let mut replicas: Vec<_> = addrs.iter().map(|&a| spawn_replica(a)).collect();
    let router_addr = reserve();
    let mut router_child = spawn_router(router_addr, &addrs);

    let before = replay(router_addr, 0.0);
    assert_eq!(
        availability(&before),
        1.0,
        "the healthy ring dropped requests: {before:?}"
    );

    // Pace the kill-phase replay (~0.5 s) and SIGKILL a replica 150 ms
    // in, so the loss lands with requests in flight.
    let during = std::thread::scope(|s| {
        let handle = s.spawn(|| replay(router_addr, 120.0));
        std::thread::sleep(Duration::from_millis(150));
        replicas[2].kill().expect("SIGKILL replica");
        replicas[2].wait().expect("reap replica");
        handle.join().expect("kill-phase replay")
    });
    assert_eq!(
        availability(&during),
        1.0,
        "the SIGKILL lost requests: {during:?}"
    );

    // Let the probes (every 100 ms) mark the corpse Down, then measure
    // the settled ring.
    std::thread::sleep(Duration::from_millis(600));
    let after = replay(router_addr, 0.0);
    assert_eq!(
        availability(&after),
        1.0,
        "the settled two-replica ring dropped requests: {after:?}"
    );

    // The router's own view, fetched over the wire like any client.
    let ring_json = {
        use std::io::{BufRead, BufReader, Write};
        let mut conn = std::net::TcpStream::connect(router_addr).expect("dial router");
        conn.write_all(b"\"Health\"\n").expect("send Health");
        let mut line = String::new();
        BufReader::new(&conn)
            .read_line(&mut line)
            .expect("ring reply");
        line.trim().to_string()
    };
    assert!(
        ring_json.contains("\"down\""),
        "the killed replica never went Down: {ring_json}"
    );

    let _ = router_child.kill();
    let _ = router_child.wait();
    for mut r in replicas {
        let _ = r.kill();
        let _ = r.wait();
    }

    let phase = |name: &str, r: &load::LoadReport| {
        format!(
            "    \"{name}\": {{\"issued\": {}, \"completed\": {}, \"availability\": {:.4}, \
             \"p50_us\": {}, \"p99_us\": {}, \"p99_last_send_us\": {}, \"transport_retries\": {}}}",
            r.issued,
            r.completed,
            availability(r),
            r.latency.p50_us,
            r.latency.p99_us,
            r.latency_last_send.p99_us,
            r.transport_retries,
        )
    };
    std::fs::create_dir_all("results").expect("mkdir results");
    let doc = format!(
        "{{\n  \"experiment\": \"t15_ring\",\n  \"ring_width_ab\": {{\n{},\n{}\n  }},\n  \
         \"replica_kill\": {{\n{},\n{},\n{}\n  }},\n  \"router_ring_state\": {ring_json}\n}}\n",
        phase("one_replica", &one),
        phase("three_replicas", &before),
        phase("before", &before),
        phase("during", &during),
        phase("after", &after),
    );
    std::fs::write("results/t15_ring.json", &doc).expect("write results/t15_ring.json");
    assert!(
        serde_json::from_str::<serde_json::Value>(&doc).is_ok(),
        "t15 report is not valid JSON: {doc}"
    );
}
