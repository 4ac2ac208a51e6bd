//! Closed-loop passes. A pass sets up a fresh service (and, for the wire
//! workload, a fresh frontend and connections), then `clients` threads
//! each keep one request in flight until the pass's fixed request sequence
//! is used up. Only the request loop is timed; replies are decoded and
//! audited afterwards.

use crate::audit::Answer;
use crate::host;
use crate::workload::{Case, Spec};
use krsp_service::{
    decode_response_line, serve_with_shutdown, Request, Response, Rung, ServeOptions, Service,
    ServiceConfig, WireResponse,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one request got back.
#[derive(Clone, Debug)]
pub enum Reply {
    /// A solved answer.
    Answer {
        /// The answer's claims, for the audit.
        answer: Answer,
        /// The rung that produced it.
        rung: Rung,
        /// Whether the service answered from its cache.
        cache_hit: bool,
        /// The service's own verdict on its deadline.
        deadline_missed: bool,
    },
    /// A rejection, error reply, missing reply or undecodable reply.
    Failed(String),
}

/// One timed request.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index into the pool.
    pub case: usize,
    /// Client-side latency, send to reply.
    pub latency: Duration,
    /// The reply.
    pub reply: Reply,
}

/// One pass: its set-up, its timed loop, and every reply.
#[derive(Debug)]
pub struct Pass {
    /// Service (and frontend) construction plus warm-up.
    pub setup: Duration,
    /// Wall time of the timed loop.
    pub wall: Duration,
    /// Process CPU time (user + system, all threads) of the timed loop.
    pub cpu: Duration,
    /// Every timed request, in sequence order.
    pub samples: Vec<Sample>,
    /// The set-up answers of a hot working set, by pool index.
    pub fill: Vec<Reply>,
    /// Whether the client sockets had `TCP_NODELAY` set (wire passes).
    pub nodelay: Option<bool>,
}

/// Runs `f(state, i)` for every `i < total`, one thread per state, each
/// thread taking the next index when its previous call returns. Results
/// come back in index order.
fn closed_loop<S: Send, T: Send>(
    states: &mut [S],
    total: usize,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                let (next, f) = (&next, &f);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            return mine;
                        }
                        mine.push((i, f(state, i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, t)| t).collect()
}

/// The in-process request for `case` under `spec`'s deadline; no kernel
/// override, so the server's default ladder decides.
#[must_use]
pub fn request(case: &Case, spec: &Spec) -> Request {
    Request {
        instance: case.inst.clone(),
        deadline: spec.deadline,
        kernel: None,
    }
}

/// Maps an in-process outcome onto a [`Reply`].
#[must_use]
pub fn reply_of(out: Result<Response, krsp_service::Rejection>) -> Reply {
    match out {
        Ok(r) => Reply::Answer {
            answer: Answer {
                edges: r.solution.edges.iter().map(|e| e.0).collect(),
                cost: r.solution.cost,
                delay: r.solution.delay,
                guarantee: r.guarantee,
            },
            rung: r.rung,
            cache_hit: r.cache_hit,
            deadline_missed: r.deadline_missed,
        },
        Err(rejection) => Reply::Failed(format!("rejected: {rejection}")),
    }
}

/// Decodes a reply line that must carry `id`.
#[must_use]
pub fn reply_of_line(line: &str, id: u64) -> Reply {
    match decode_response_line(line.trim_end()) {
        Ok((Some(got), WireResponse::Solved(r))) if got == id => Reply::Answer {
            answer: Answer {
                edges: r.edges,
                cost: r.cost,
                delay: r.delay,
                guarantee: r.guarantee,
            },
            rung: r.rung,
            cache_hit: r.cache_hit,
            deadline_missed: r.deadline_missed,
        },
        Ok((got, WireResponse::Solved(_))) => {
            Reply::Failed(format!("reply id {got:?} for request {id}"))
        }
        Ok((_, other)) => Reply::Failed(format!("non-answer reply: {other:?}")),
        Err(e) => Reply::Failed(e),
    }
}

/// One in-process pass: fresh service, warm-up on `warm`, then `requests`
/// requests cycling through `pool` in order.
#[must_use]
pub fn inproc_pass(
    cfg: &ServiceConfig,
    spec: &Spec,
    pool: &[Case],
    requests: usize,
    warm: &[Case],
    clients: usize,
) -> Pass {
    let mut states = vec![(); clients];
    let start = Instant::now();
    let svc = Service::new(cfg.clone());
    closed_loop(&mut states, warm.len(), |(), i| {
        let _ = svc.provision(request(&warm[i], spec));
    });
    let setup = start.elapsed();
    let cpu = host::process_cpu();
    let start = Instant::now();
    let raw = closed_loop(&mut states, requests, |(), i| {
        let case = i % pool.len();
        let req = request(&pool[case], spec);
        let sent = Instant::now();
        let out = svc.provision(req);
        (case, sent.elapsed(), out)
    });
    let wall = start.elapsed();
    let cpu = host::process_cpu().saturating_sub(cpu);
    drop(svc);
    Pass {
        setup,
        wall,
        cpu,
        samples: raw
            .into_iter()
            .map(|(case, latency, out)| Sample {
                case,
                latency,
                reply: reply_of(out),
            })
            .collect(),
        fill: Vec::new(),
        nodelay: None,
    }
}

/// One client connection: the request is written with its newline in a
/// single call, on a socket with default options.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    /// The connect error.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Whether `TCP_NODELAY` is set (it is not: the client keeps defaults).
    #[must_use]
    pub fn nodelay(&self) -> bool {
        self.writer.nodelay().unwrap_or(false)
    }

    /// Sends `line` (which ends in `\n`) and reads one reply line.
    ///
    /// # Errors
    /// Socket errors, or end of stream before a reply.
    pub fn round_trip(&mut self, line: &[u8]) -> std::io::Result<String> {
        self.writer.write_all(line)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(reply)
    }
}

/// `line` (an id-less request object) with `"id": id` spliced in front and
/// a trailing newline.
#[must_use]
pub fn with_id(line: &str, id: u64) -> Vec<u8> {
    format!("{{\"id\":{id},{}\n", &line[1..]).into_bytes()
}

/// An in-process frontend on an ephemeral loopback port, stopped on drop.
pub struct Frontend {
    /// Where it listens.
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Frontend {
    /// Starts serving `svc`.
    ///
    /// # Errors
    /// Bind errors.
    pub fn start(svc: &Service) -> std::io::Result<Frontend> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let svc = svc.clone();
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::spawn(move || {
            serve_with_shutdown(&svc, listener, flag, ServeOptions::default())
        });
        Ok(Frontend {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            if let Ok(Err(e)) = thread.join() {
                eprintln!("perfbench: frontend stopped with {e}");
            }
        }
    }
}

fn wire_round_trip(conn: &mut Conn, line: &[u8]) -> (Duration, String) {
    let sent = Instant::now();
    let reply = conn.round_trip(line).unwrap_or_default();
    (sent.elapsed(), reply)
}

/// One wire pass: fresh service, frontend and connections; the working set
/// `pool` is solved once over the wire (the cache fill), then `requests`
/// requests cycle through it.
///
/// # Errors
/// Bind or connect errors.
pub fn wire_pass(
    cfg: &ServiceConfig,
    spec: &Spec,
    pool: &[Case],
    requests: usize,
    clients: usize,
) -> std::io::Result<Pass> {
    let lines: Vec<String> = pool.iter().map(|c| c.request_line(spec.deadline)).collect();
    let start = Instant::now();
    let svc = Service::new(cfg.clone());
    let frontend = Frontend::start(&svc)?;
    let mut conns = (0..clients)
        .map(|_| Conn::open(frontend.addr))
        .collect::<std::io::Result<Vec<_>>>()?;
    let nodelay = conns.iter().any(Conn::nodelay);
    let fill = closed_loop(&mut conns, pool.len(), |conn, i| {
        wire_round_trip(conn, &with_id(&lines[i], i as u64)).1
    });
    let setup = start.elapsed();
    let cpu = host::process_cpu();
    let start = Instant::now();
    let raw = closed_loop(&mut conns, requests, |conn, i| {
        let case = i % pool.len();
        let line = with_id(&lines[case], i as u64);
        let (latency, reply) = wire_round_trip(conn, &line);
        (case, latency, reply)
    });
    let wall = start.elapsed();
    let cpu = host::process_cpu().saturating_sub(cpu);
    drop(conns);
    drop(frontend);
    drop(svc);
    Ok(Pass {
        setup,
        wall,
        cpu,
        samples: raw
            .into_iter()
            .enumerate()
            .map(|(i, (case, latency, reply))| Sample {
                case,
                latency,
                reply: reply_of_line(&reply, i as u64),
            })
            .collect(),
        fill: fill
            .iter()
            .enumerate()
            .map(|(i, reply)| reply_of_line(reply, i as u64))
            .collect(),
        nodelay: Some(nodelay),
    })
}
