//! The NDJSON connection loop: one reactor thread multiplexing every
//! connection over the vendored `krsp-reactor` epoll/poll loop. It is the
//! only connection loop in the crate: a replica
//! ([`crate::proto::serve_with_shutdown`]) and the replica-ring router
//! ([`crate::router::serve_ring_with_shutdown`]) both run it, each with
//! its own [`Backend`].
//!
//! ## Shape
//!
//! The reactor thread owns the listener, every connection socket, and all
//! per-connection state (read framing, write buffers, ordering queues).
//! It never blocks on a request. What it cannot answer inline it hands
//! off, and the answer comes back as a rendered response line pushed onto
//! a shared completion queue, with a wake of the reactor's wake pipe:
//!
//! * A service backend answers `Metrics`, `Health`, `Register` and `Epoch`
//!   inline and solves through [`Service::provision_async`] on the
//!   service's worker pool, so total threads are O(workers) + 1 whatever
//!   the connection count.
//! * A router backend answers `Health` inline from its ring view and runs
//!   every other request on a thread of its own. Once
//!   [`ServeOptions::max_conns`] of them are in flight it answers
//!   `"shed"`, so threads stay bounded as with one thread per allowed
//!   connection, even when one `SolveBatch` line carries many queries.
//!
//! ## Ordering model
//!
//! Requests carrying an `"id"` member are dispatched immediately and
//! answered in completion order (out-of-order pipelining). Requests
//! without an id keep blocking-server semantics: each one is evaluated
//! only after the previous id-less response on the same connection was
//! produced, so legacy clients observe in-order answers *and* the
//! side-effect timing a blocking server gives (a pipelined `"Metrics"`
//! still counts the solve before it).
//!
//! ## Fairness and protection
//!
//! * Reads are level-triggered and budgeted per readiness event, so one
//!   firehose connection cannot starve the rest of the loop.
//! * A connection stalled mid-line past [`ServeOptions::read_timeout`] is
//!   dropped by the housekeeping sweep (the slow-loris defense); idle
//!   connections *between* lines never time out.
//! * A client that stops draining responses trips
//!   [`ServeOptions::write_timeout`] and is dropped.
//! * Accepts beyond [`ServeOptions::max_conns`] /
//!   [`ServeOptions::per_client_conns`] are answered with a `"shed"`
//!   error line and closed; `Solve` floods beyond the per-address token
//!   bucket get `"rate_limited"` errors.
//!
//! The housekeeping sweep runs on a reactor timer every
//! [`ServeOptions::poll`]; it is also where the shutdown flag (set from a
//! signal handler that cannot wake the reactor itself) is noticed, so the
//! daemon parks in `epoll_wait` when idle instead of spin-polling.

use crate::metrics::FrontendStats;
use crate::proto::{
    self, health_reply, solve_response, DecodedRequest, ErrorKind, ServeOptions, SolveBatchRequest,
    SolveRequest, WireRequest, WireResponse, MAX_LINE_BYTES,
};
use crate::router::Router;
use crate::service::{Request, Service};
use crate::sync_util::{lock_recover, saturating_deadline};
use krsp_reactor::{Event, Interest, Mode, Reactor, Token, Waker};
use serde::Content;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const LISTENER: Token = Token(0);
const SWEEP: Token = Token(1);
const FIRST_CONN_TOKEN: usize = 2;

/// Read budget per readiness event per connection. Level-triggered
/// registration re-reports the descriptor on the next poll, so capping a
/// single drain bounds how long one chatty connection can hog the loop.
const READ_BUDGET: usize = 256 * 1024;
const READ_CHUNK: usize = 64 * 1024;

/// Compact the write buffer once this many bytes are already flushed.
const OUT_COMPACT: usize = 64 * 1024;

/// What the loop answers requests with.
pub(crate) enum Backend {
    /// A replica: solves run on the service's worker pool, everything
    /// else is answered inline.
    Service(Service),
    /// The replica ring: `Health` is answered inline, every other request
    /// is routed on a thread of its own.
    Router(Router),
}

/// Runs the connection loop on `listener` until `shutdown` flips and the
/// drain completes (or its grace lapses).
pub(crate) fn serve(
    backend: Backend,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    opts: ServeOptions,
) -> std::io::Result<()> {
    Frontend::new(backend, Reactor::new()?, listener, shutdown, opts)?.run()
}

/// One response produced off-thread, addressed by connection token.
struct Completion {
    token: usize,
    line: String,
    /// Whether this response belongs to the connection's id-less ordered
    /// stream (its completion unblocks the next queued request).
    ordered: bool,
}

/// Work parked behind the connection's in-order (id-less) stream.
enum Queued {
    /// A response decided at receipt time (parse error, oversize line,
    /// rate limit), waiting its turn to be written. Boxed: `WireResponse`
    /// dwarfs the request variant and queues hold many of these.
    Respond(Box<WireResponse>),
    /// A request evaluated when it reaches the front of the queue.
    Request(WireRequest),
}

/// A complete line produced by the incremental framer.
#[cfg_attr(test, derive(Debug, PartialEq))]
enum Framed {
    Line(Vec<u8>),
    /// The line blew past [`MAX_LINE_BYTES`]. The framer kept the line's
    /// first [`ID_PREFIX`] bytes, so a pipelined request's `"id"` member
    /// (which the canonical encoders place first) survives the discard and
    /// the oversize error can still be matched by the client.
    TooLong(Option<Content>),
}

/// How many bytes of an oversize line the framer retains for id recovery.
/// The canonical id splice is `{"id":<u64>,...`, so 256 bytes is generous;
/// anything fancier than a leading integer id falls back to a bare error.
const ID_PREFIX: usize = 256;

/// The incremental line framer: read chunks in, complete lines (and
/// oversize markers) out. It holds no socket, so tests drive it directly.
#[derive(Default)]
struct Framer {
    /// Bytes of the current (incomplete) request line.
    line: Vec<u8>,
    /// The current line blew past [`MAX_LINE_BYTES`]; bytes are dropped
    /// until its newline, then one oversize marker is emitted. While set,
    /// `line` holds the frozen [`ID_PREFIX`]-byte head of the oversize
    /// line (for id recovery), not live framing state.
    discarding: bool,
}

impl Framer {
    /// Feeds one read chunk, appending complete lines (and oversize
    /// markers) to `framed`.
    fn push(&mut self, mut rest: &[u8], framed: &mut Vec<Framed>) {
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = rest.split_at(pos);
            rest = &tail[1..];
            if self.discarding {
                self.discarding = false;
                framed.push(Framed::TooLong(self.take_oversize_id()));
            } else if self.line.len() + head.len() > MAX_LINE_BYTES {
                self.keep_id_prefix(head);
                framed.push(Framed::TooLong(self.take_oversize_id()));
            } else {
                self.line.extend_from_slice(head);
                framed.push(Framed::Line(std::mem::take(&mut self.line)));
            }
        }
        if !rest.is_empty() && !self.discarding {
            if self.line.len() + rest.len() > MAX_LINE_BYTES {
                // Stop buffering: the line already blew the cap; keep only
                // its [`ID_PREFIX`]-byte head (for id recovery) until its
                // newline.
                self.keep_id_prefix(rest);
                self.discarding = true;
            } else {
                self.line.extend_from_slice(rest);
            }
        }
    }

    /// Peer EOF: an unterminated trailing line still counts as a line.
    fn finish(&mut self, framed: &mut Vec<Framed>) {
        if self.discarding {
            self.discarding = false;
            framed.push(Framed::TooLong(self.take_oversize_id()));
        } else if !self.line.is_empty() {
            framed.push(Framed::Line(std::mem::take(&mut self.line)));
        }
    }

    /// Whether part of a line has arrived without its newline.
    fn mid_line(&self) -> bool {
        self.discarding || !self.line.is_empty()
    }

    /// Truncates `line` to the oversize line's first [`ID_PREFIX`] bytes,
    /// topping it up from `next` (the chunk that blew the cap) if the
    /// buffered part was shorter than the prefix.
    fn keep_id_prefix(&mut self, next: &[u8]) {
        if self.line.len() < ID_PREFIX {
            let want = ID_PREFIX - self.line.len();
            self.line.extend_from_slice(&next[..want.min(next.len())]);
        }
        self.line.truncate(ID_PREFIX);
    }

    /// Consumes the retained oversize-line prefix, recovering its `"id"`.
    fn take_oversize_id(&mut self) -> Option<Content> {
        recover_line_id(&std::mem::take(&mut self.line))
    }
}

struct Conn {
    stream: TcpStream,
    peer: IpAddr,
    framer: Framer,
    /// When the current partial line started arriving (the slow-loris
    /// clock); `None` between lines.
    partial_since: Option<Instant>,
    /// Pending output; `[out_pos..]` is unwritten.
    out: Vec<u8>,
    out_pos: usize,
    /// When the socket first refused bytes; cleared on full flush.
    write_stall_since: Option<Instant>,
    /// Registered for writable interest (pending output).
    wants_write: bool,
    /// Dispatched requests (ordered + id-carrying) not yet answered.
    in_flight: usize,
    /// Id-less work awaiting its turn (see the module ordering model).
    queue: VecDeque<Queued>,
    /// An id-less request is currently dispatched; the queue is paused.
    ordered_busy: bool,
    /// Peer EOF seen: close once everything queued is answered+flushed.
    read_closed: bool,
}

impl Conn {
    fn new(stream: TcpStream, peer: IpAddr) -> Conn {
        Conn {
            stream,
            peer,
            framer: Framer::default(),
            partial_since: None,
            out: Vec::new(),
            out_pos: 0,
            write_stall_since: None,
            wants_write: false,
            in_flight: 0,
            queue: VecDeque::new(),
            ordered_busy: false,
            read_closed: false,
        }
    }

    /// Nothing in flight, queued, or buffered.
    fn idle(&self) -> bool {
        self.in_flight == 0 && self.queue.is_empty() && self.out_pos == self.out.len()
    }
}

/// Per-address token bucket for `Solve` admission.
struct Bucket {
    tokens: f64,
    last: Instant,
}

struct Frontend {
    backend: Backend,
    /// Routed requests running now, each on a thread of its own (router
    /// backend only).
    routed: usize,
    opts: ServeOptions,
    tick: Duration,
    reactor: Reactor,
    waker: Waker,
    /// `None` once draining (the listener is closed to stop accepts).
    listener: Option<TcpListener>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<FrontendStats>,
    conns: HashMap<usize, Conn>,
    per_client: HashMap<IpAddr, usize>,
    buckets: HashMap<IpAddr, Bucket>,
    completions: Arc<Mutex<Vec<Completion>>>,
    next_token: usize,
    draining: bool,
    drain_deadline: Option<Instant>,
}

impl Frontend {
    fn new(
        backend: Backend,
        mut reactor: Reactor,
        listener: TcpListener,
        shutdown: Arc<AtomicBool>,
        opts: ServeOptions,
    ) -> std::io::Result<Frontend> {
        listener.set_nonblocking(true)?;
        reactor.register(
            listener.as_raw_fd(),
            LISTENER,
            Interest::READABLE,
            Mode::Level,
        )?;
        let stats = Arc::new(FrontendStats::default());
        if let Backend::Service(service) = &backend {
            service.attach_frontend_stats(Arc::clone(&stats));
        }
        let waker = reactor.waker();
        Ok(Frontend {
            tick: opts.poll.max(Duration::from_millis(1)),
            backend,
            routed: 0,
            opts,
            waker,
            listener: Some(listener),
            shutdown,
            stats,
            conns: HashMap::new(),
            per_client: HashMap::new(),
            buckets: HashMap::new(),
            completions: Arc::new(Mutex::new(Vec::new())),
            next_token: FIRST_CONN_TOKEN,
            reactor,
            draining: false,
            drain_deadline: None,
        })
    }

    fn run(mut self) -> std::io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        self.reactor
            .set_timer(saturating_deadline(Instant::now(), self.tick), SWEEP);
        loop {
            self.reactor.poll(&mut events, None)?;
            // Off-thread completions first: their responses unblock queued
            // work and free connections before new events pile on more.
            self.apply_completions();
            for ev in &events {
                match ev.token {
                    LISTENER => self.accept_ready()?,
                    SWEEP => self.sweep(),
                    Token(token) => self.conn_event(token, *ev),
                }
            }
            // Completions that landed while handling events are picked up
            // next iteration — the waker guarantees the poll returns
            // immediately rather than parking.
            if self.draining && self.conns.is_empty() {
                break;
            }
            if let Some(deadline) = self.drain_deadline {
                if Instant::now() >= deadline {
                    let tokens: Vec<usize> = self.conns.keys().copied().collect();
                    for token in tokens {
                        self.drop_conn(token);
                    }
                    break;
                }
            }
        }
        if let Backend::Service(service) = &self.backend {
            let grace_left = self.drain_deadline.map_or(Duration::ZERO, |d| {
                d.saturating_duration_since(Instant::now())
            });
            service.drain(grace_left);
        }
        Ok(())
    }

    // ---- accept path ---------------------------------------------------

    fn accept_ready(&mut self) -> std::io::Result<()> {
        loop {
            let accepted = match self.listener.as_ref() {
                None => return Ok(()), // draining: stray readiness
                Some(listener) => listener.accept(),
            };
            match accepted {
                Ok((stream, peer)) => self.admit_conn(stream, peer),
                Err(e) if e.kind() == IoErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn admit_conn(&mut self, stream: TcpStream, peer: SocketAddr) {
        let ip = peer.ip();
        if self.conns.len() >= self.opts.max_conns {
            self.stats.shed_total_cap();
            shed_at_accept(stream, "server connection limit reached");
            return;
        }
        if self
            .per_client
            .get(&ip)
            .is_some_and(|&n| n >= self.opts.per_client_conns)
        {
            self.stats.shed_per_client();
            shed_at_accept(stream, "per-client connection limit reached");
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Without it, each reply after a `SolveBatch` window's first waits
        // out the client's delayed ACK (Nagle).
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self
            .reactor
            .register(
                stream.as_raw_fd(),
                Token(token),
                Interest::READABLE,
                Mode::Level,
            )
            .is_err()
        {
            return;
        }
        self.conns.insert(token, Conn::new(stream, ip));
        *self.per_client.entry(ip).or_insert(0) += 1;
        self.stats.conn_opened();
    }

    // ---- connection events ----------------------------------------------

    fn conn_event(&mut self, token: usize, ev: Event) {
        if ev.writable {
            self.flush(token);
        }
        if ev.readable {
            self.conn_readable(token);
        }
        self.maybe_close(token);
    }

    fn conn_readable(&mut self, token: usize) {
        // Chaos-testing hook: `proto.read=err(...)` fails the read like a
        // torn connection would.
        if read_failpoint().is_err() {
            self.drop_conn(token);
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut framed: Vec<Framed> = Vec::new();
        let mut chunk = [0u8; READ_CHUNK];
        let mut budget = READ_BUDGET;
        loop {
            if budget == 0 {
                break; // level-triggered: the rest re-reports next poll
            }
            match conn.stream.read(&mut chunk[..READ_CHUNK.min(budget)]) {
                Ok(0) => {
                    conn.framer.finish(&mut framed);
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    budget -= n;
                    conn.framer.push(&chunk[..n], &mut framed);
                }
                Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
                Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(token);
                    return;
                }
            }
        }
        // The slow-loris clock: ticking iff a line is mid-flight. A stall
        // that starts between sweeps arms its own wake-up at the exact
        // reap deadline — with a coarse sweep tick the reap would
        // otherwise slip by up to a whole tick past `read_timeout`.
        if !conn.framer.mid_line() {
            conn.partial_since = None;
        } else if conn.partial_since.is_none() {
            let since = Instant::now();
            conn.partial_since = Some(since);
            self.reactor
                .set_timer(saturating_deadline(since, self.opts.read_timeout), SWEEP);
        }
        for item in framed {
            if !self.conns.contains_key(&token) {
                return; // an earlier line's handling dropped the conn
            }
            match item {
                Framed::TooLong(id) => {
                    let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                    let error = proto::wire_error(ErrorKind::OversizeLine, msg);
                    match id {
                        // A recovered id: answer immediately and id-matched,
                        // like any other out-of-order response — an in-flight
                        // pipelined solve must not be charged with this error.
                        Some(id) => {
                            let line = proto::encode_response_line(Some(&id), &error);
                            self.queue_response(token, &line);
                        }
                        None => self.enqueue_ordered(token, Queued::Respond(Box::new(error))),
                    }
                }
                Framed::Line(raw) => self.handle_line(token, &raw),
            }
        }
    }

    fn handle_line(&mut self, token: usize, raw: &[u8]) {
        let text = String::from_utf8_lossy(raw);
        if text.trim().is_empty() {
            return;
        }
        let DecodedRequest { id, request } = proto::decode_request_line(&text);
        match (id, request) {
            // Unparseable request: the error is matched to its id when one
            // was recoverable, otherwise it joins the ordered stream.
            (id @ Some(_), Err(msg)) => {
                let line = proto::encode_response_line(
                    id.as_ref(),
                    &proto::wire_error(ErrorKind::Parse, msg),
                );
                self.queue_response(token, &line);
            }
            (None, Err(msg)) => {
                self.enqueue_ordered(
                    token,
                    Queued::Respond(Box::new(proto::wire_error(ErrorKind::Parse, msg))),
                );
            }
            // Batches fan out immediately: every query carries its own id
            // (an envelope id would be ambiguous across N responses and is
            // ignored), so responses are out-of-order like any pipelined
            // solve, one per query.
            (_, Ok(WireRequest::SolveBatch(batch))) => self.handle_batch(token, batch),
            // Id-carrying requests are evaluated immediately (out-of-order).
            (Some(id), Ok(request)) => {
                if let WireRequest::Solve(solve) = &request {
                    if let Some(refused) = self.screen_solve(token, solve) {
                        let line = proto::encode_response_line(Some(&id), &refused);
                        self.queue_response(token, &line);
                        return;
                    }
                }
                self.evaluate(token, Some(id), false, request);
            }
            // Id-less requests keep blocking-server semantics: strictly
            // in order, evaluated only when their turn comes.
            (None, Ok(WireRequest::Solve(solve))) => {
                if let Some(refused) = self.screen_solve(token, &solve) {
                    self.enqueue_ordered(token, Queued::Respond(Box::new(refused)));
                    return;
                }
                self.enqueue_ordered(token, Queued::Request(WireRequest::Solve(solve)));
            }
            (None, Ok(request)) => self.enqueue_ordered(token, Queued::Request(request)),
        }
    }

    /// Fans a `SolveBatch` out to one dispatched solve per query. The
    /// token bucket charges the *batch* (one wire request, one token —
    /// batching is the sanctioned way to amortize); admission, deadlines,
    /// and the degradation ladder then apply per query, and every
    /// response — including refusals — is id-matched to its query.
    fn handle_batch(&mut self, token: usize, batch: SolveBatchRequest) {
        let Some(peer) = self.conns.get(&token).map(|conn| conn.peer) else {
            return;
        };
        if batch.queries.is_empty() {
            self.enqueue_ordered(
                token,
                Queued::Respond(Box::new(proto::wire_error(
                    ErrorKind::Parse,
                    "empty SolveBatch: no queries",
                ))),
            );
            return;
        }
        self.stats.batch(batch.queries.len() as u64);
        let rate_refused = if self.rate_allow(peer) {
            None
        } else {
            self.stats.rate_limited();
            Some(proto::wire_error(
                ErrorKind::RateLimited,
                "per-client request rate exceeded",
            ))
        };
        for query in batch.queries {
            let id = Content::Int(i128::from(query.id));
            let refused =
                rate_refused.clone().or_else(|| {
                    query.instance.validate().err().map(|e| {
                        proto::wire_error(ErrorKind::Parse, format!("invalid instance: {e}"))
                    })
                });
            if let Some(response) = refused {
                let line = proto::encode_response_line(Some(&id), &response);
                self.queue_response(token, &line);
                continue;
            }
            self.dispatch(
                token,
                Some(id),
                false,
                WireRequest::Solve(SolveRequest {
                    instance: query.instance,
                    deadline_ms: query.deadline_ms,
                    kernel: query.kernel,
                }),
            );
        }
    }

    /// Receipt-time checks shared by both dispatch paths: the per-address
    /// token bucket, then instance validation.
    fn screen_solve(&mut self, token: usize, solve: &SolveRequest) -> Option<WireResponse> {
        let peer = self.conns.get(&token)?.peer;
        if !self.rate_allow(peer) {
            self.stats.rate_limited();
            return Some(proto::wire_error(
                ErrorKind::RateLimited,
                "per-client request rate exceeded",
            ));
        }
        if let Err(e) = solve.instance.validate() {
            return Some(proto::wire_error(
                ErrorKind::Parse,
                format!("invalid instance: {e}"),
            ));
        }
        None
    }

    fn rate_allow(&mut self, ip: IpAddr) -> bool {
        if self.opts.rate_per_sec == 0 {
            return true;
        }
        let rate = self.opts.rate_per_sec as f64;
        let burst = if self.opts.rate_burst == 0 {
            2.0 * rate
        } else {
            self.opts.rate_burst as f64
        };
        let now = Instant::now();
        let bucket = self.buckets.entry(ip).or_insert(Bucket {
            tokens: burst,
            last: now,
        });
        bucket.tokens =
            (bucket.tokens + now.duration_since(bucket.last).as_secs_f64() * rate).min(burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    fn enqueue_ordered(&mut self, token: usize, item: Queued) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.queue.push_back(item);
        }
        self.pump_queue(token);
    }

    /// Advances the connection's in-order stream: answers everything up
    /// to the next request that is handed off the loop, hands that one
    /// off, and pauses until its completion unblocks the queue.
    fn pump_queue(&mut self, token: usize) {
        loop {
            let item = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.ordered_busy {
                    return;
                }
                match conn.queue.pop_front() {
                    Some(item) => item,
                    None => return,
                }
            };
            match item {
                Queued::Respond(response) => {
                    let line = proto::encode_response_line(None, &response);
                    self.queue_response(token, &line);
                }
                // Unreachable: batches fan out at receipt (handle_line)
                // and never join the id-less ordered stream.
                Queued::Request(WireRequest::SolveBatch(batch)) => {
                    self.handle_batch(token, batch);
                }
                // Evaluated here, not at receipt: every earlier id-less
                // request has been answered, so a `Metrics` snapshot counts
                // them, and an id-less client can Solve → Epoch → Solve and
                // observe the advance exactly between the two answers.
                Queued::Request(request) => {
                    if self.evaluate(token, None, true, request) {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.ordered_busy = true;
                        }
                        return;
                    }
                }
            }
        }
    }

    /// Answers one request that is not a batch: inline when the backend
    /// can do so without blocking the loop, otherwise through
    /// [`Frontend::dispatch`]. Returns whether it was handed off; an
    /// ordered request then holds its connection's queue until the answer
    /// comes back.
    fn evaluate(
        &mut self,
        token: usize,
        id: Option<Content>,
        ordered: bool,
        request: WireRequest,
    ) -> bool {
        let response = match (&self.backend, request) {
            (_, WireRequest::Health) => self.health(),
            // A service's metrics and epoch control plane are synchronous
            // cache and registry operations that never touch the solver.
            (Backend::Service(service), WireRequest::Metrics) => {
                WireResponse::Metrics(service.metrics())
            }
            (
                Backend::Service(service),
                request @ (WireRequest::Register(_) | WireRequest::Epoch(_)),
            ) => proto::dispatch(service, request),
            (_, request) => return self.dispatch(token, id, ordered, request),
        };
        let line = proto::encode_response_line(id.as_ref(), &response);
        self.queue_response(token, &line);
        false
    }

    /// Hands `request` off the loop: a service solves it on its worker
    /// pool, a router runs it on a thread of its own. The answer comes back
    /// through the completion queue. Returns `false` when it was not handed
    /// off: the connection is gone, or a router already has `max_conns`
    /// requests in flight and answers `"shed"` at once, counted in its
    /// `rejected`. That cap keeps one `SolveBatch` line from starting a
    /// thread per query.
    fn dispatch(
        &mut self,
        token: usize,
        id: Option<Content>,
        ordered: bool,
        request: WireRequest,
    ) -> bool {
        if let Backend::Router(router) = &self.backend {
            if self.routed >= self.opts.max_conns {
                router.count_rejected();
                let shed = proto::wire_error(ErrorKind::Shed, "router in-flight limit reached");
                let line = proto::encode_response_line(id.as_ref(), &shed);
                self.queue_response(token, &line);
                return false;
            }
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        conn.in_flight += 1;
        self.stats.observe_pipeline_depth(conn.in_flight as u64);
        let completions = Arc::clone(&self.completions);
        let waker = self.waker.clone();
        let complete = move |response: WireResponse| {
            // Rendering happens off the reactor thread.
            let line = proto::encode_response_line(id.as_ref(), &response);
            lock_recover(&completions).push(Completion {
                token,
                line,
                ordered,
            });
            waker.wake();
        };
        match (&self.backend, request) {
            (Backend::Service(service), WireRequest::Solve(solve)) => service.provision_async(
                Request {
                    instance: solve.instance,
                    deadline: solve.deadline_ms.map(Duration::from_millis),
                    kernel: solve.kernel,
                },
                move |out| complete(solve_response(out)),
            ),
            // `evaluate` answers a service's other requests inline.
            (Backend::Service(service), request) => complete(proto::dispatch(service, request)),
            (Backend::Router(router), request) => {
                self.routed += 1;
                let router = router.clone();
                std::thread::spawn(move || complete(route(&router, request)));
            }
        }
        true
    }

    /// The `Health` answer: a replica's readiness, or the router's view of
    /// its ring.
    fn health(&self) -> WireResponse {
        self.stats.health_probe();
        match &self.backend {
            Backend::Service(service) => WireResponse::Health(health_reply(
                service,
                Some((self.conns.len() as u64, self.opts.max_conns as u64)),
            )),
            Backend::Router(router) => WireResponse::Ring(router.ring_reply()),
        }
    }

    fn apply_completions(&mut self) {
        let batch = std::mem::take(&mut *lock_recover(&self.completions));
        for done in batch {
            if matches!(self.backend, Backend::Router(_)) {
                // Every answer a router hands back is one routed request.
                self.routed -= 1;
            }
            let Some(conn) = self.conns.get_mut(&done.token) else {
                continue; // the connection died while its request ran
            };
            conn.in_flight -= 1;
            if done.ordered {
                conn.ordered_busy = false;
            }
            self.queue_response(done.token, &done.line);
            if done.ordered {
                self.pump_queue(done.token);
            }
            self.maybe_close(done.token);
        }
    }

    // ---- write path -----------------------------------------------------

    fn queue_response(&mut self, token: usize, line: &str) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.out.extend_from_slice(line.as_bytes());
        conn.out.push(b'\n');
        self.flush(token);
    }

    fn flush(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.drop_conn(token);
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == IoErrorKind::WouldBlock => {
                    if conn.out_pos >= OUT_COMPACT {
                        conn.out.drain(..conn.out_pos);
                        conn.out_pos = 0;
                    }
                    if conn.write_stall_since.is_none() {
                        // Same deal as the read-stall clock: arm a wake-up
                        // at the reap deadline so a coarse sweep tick does
                        // not stretch `write_timeout`.
                        let since = Instant::now();
                        conn.write_stall_since = Some(since);
                        self.reactor
                            .set_timer(saturating_deadline(since, self.opts.write_timeout), SWEEP);
                    }
                    if !conn.wants_write {
                        conn.wants_write = true;
                        let fd = conn.stream.as_raw_fd();
                        if self
                            .reactor
                            .reregister(fd, Token(token), Interest::BOTH, Mode::Level)
                            .is_err()
                        {
                            self.drop_conn(token);
                        }
                    }
                    return;
                }
                Err(e) if e.kind() == IoErrorKind::Interrupted => {}
                Err(_) => {
                    self.drop_conn(token);
                    return;
                }
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        conn.write_stall_since = None;
        if conn.wants_write {
            conn.wants_write = false;
            let fd = conn.stream.as_raw_fd();
            if self
                .reactor
                .reregister(fd, Token(token), Interest::READABLE, Mode::Level)
                .is_err()
            {
                self.drop_conn(token);
            }
        }
    }

    // ---- lifecycle ------------------------------------------------------

    fn maybe_close(&mut self, token: usize) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if conn.idle() && (conn.read_closed || self.draining) {
            self.drop_conn(token);
        }
    }

    fn drop_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.reactor.deregister(conn.stream.as_raw_fd());
            if let Some(n) = self.per_client.get_mut(&conn.peer) {
                *n -= 1;
                if *n == 0 {
                    self.per_client.remove(&conn.peer);
                }
            }
            self.stats.conn_closed();
        }
    }

    /// The housekeeping tick: notices the shutdown flag, enforces the
    /// stall timeouts, prunes cold rate buckets, and re-arms itself.
    fn sweep(&mut self) {
        let now = Instant::now();
        if !self.draining && self.shutdown.load(Ordering::Acquire) {
            self.begin_drain(now);
        }
        let mut read_dead = Vec::new();
        let mut write_dead = Vec::new();
        let mut drain_idle = Vec::new();
        for (&token, conn) in &self.conns {
            if conn
                .partial_since
                .is_some_and(|since| now.duration_since(since) >= self.opts.read_timeout)
            {
                read_dead.push(token);
            } else if conn
                .write_stall_since
                .is_some_and(|since| now.duration_since(since) >= self.opts.write_timeout)
            {
                write_dead.push(token);
            } else if self.draining && conn.idle() {
                drain_idle.push(token);
            }
        }
        for token in read_dead {
            self.stats.read_timeout();
            self.drop_conn(token);
        }
        for token in write_dead {
            self.drop_conn(token);
        }
        for token in drain_idle {
            self.drop_conn(token);
        }
        // Buckets refill to full and then carry no state worth keeping;
        // drop those with no open connection so one-shot clients cannot
        // grow the map unboundedly.
        let burst = if self.opts.rate_burst == 0 {
            2.0 * self.opts.rate_per_sec as f64
        } else {
            self.opts.rate_burst as f64
        };
        let per_client = &self.per_client;
        let rate = self.opts.rate_per_sec as f64;
        self.buckets.retain(|ip, bucket| {
            let refilled =
                (bucket.tokens + now.duration_since(bucket.last).as_secs_f64() * rate).min(burst);
            per_client.contains_key(ip) || refilled < burst
        });
        // Re-arm at the next interesting instant, not a fixed tick out:
        // a surviving stalled connection's reap deadline may land well
        // inside the tick, and sleeping the full tick would stretch its
        // configured timeout by up to a whole sweep period.
        let mut next = saturating_deadline(now, self.tick);
        for conn in self.conns.values() {
            if let Some(since) = conn.partial_since {
                next = next.min(saturating_deadline(since, self.opts.read_timeout));
            }
            if let Some(since) = conn.write_stall_since {
                next = next.min(saturating_deadline(since, self.opts.write_timeout));
            }
        }
        self.reactor.set_timer(next.max(now), SWEEP);
    }

    fn begin_drain(&mut self, now: Instant) {
        self.draining = true;
        self.drain_deadline = Some(saturating_deadline(now, self.opts.grace));
        // Stop accepting: deregister and close the listener so the port
        // frees immediately, then flip a service backend (new solves shed,
        // in-flight ones degrade to their cheapest rung and finish). A
        // router's routed requests end by their own deadlines.
        if let Some(listener) = self.listener.take() {
            let _ = self.reactor.deregister(listener.as_raw_fd());
        }
        if let Backend::Service(service) = &self.backend {
            service.begin_shutdown();
        }
        let idle: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.idle())
            .map(|(&token, _)| token)
            .collect();
        for token in idle {
            self.drop_conn(token);
        }
    }
}

/// Strictly parses the canonical pipelined-request head `{"id":<int>` out
/// of an oversize line's retained prefix. Only the exact splice the
/// [`proto::encode_request_with_id`]-family encoders emit (optional
/// whitespace, then a leading integer `"id"` member) is recognized —
/// guessing at arbitrary JSON from a truncated prefix risks matching an
/// id the client never sent, and a miss only downgrades the oversize
/// error to the historical bare form.
fn recover_line_id(prefix: &[u8]) -> Option<Content> {
    let mut rest = prefix;
    let skip_ws = |bytes: &mut &[u8]| {
        while let [b' ' | b'\t' | b'\r', tail @ ..] = *bytes {
            *bytes = tail;
        }
    };
    skip_ws(&mut rest);
    rest = rest.strip_prefix(b"{")?;
    skip_ws(&mut rest);
    rest = rest.strip_prefix(b"\"id\"")?;
    skip_ws(&mut rest);
    rest = rest.strip_prefix(b":")?;
    skip_ws(&mut rest);
    let negative = if let Some(tail) = rest.strip_prefix(b"-") {
        rest = tail;
        true
    } else {
        false
    };
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    // The id must end inside the prefix (at a member separator), or a
    // truncated longer number would be misread as a shorter id.
    if digits == 0 || digits == rest.len() {
        return None;
    }
    let text = std::str::from_utf8(&rest[..digits]).ok()?;
    let n: i128 = text.parse().ok()?;
    Some(Content::Int(if negative { -n } else { n }))
}

/// Answers one routed request, on a thread of its own. A panic in the
/// router becomes an `"internal"` error, so the request is still answered
/// and the loop's in-flight count still drops.
fn route(router: &Router, request: WireRequest) -> WireResponse {
    std::panic::catch_unwind(AssertUnwindSafe(|| match request {
        WireRequest::Solve(solve) => router.route_solve(&solve),
        WireRequest::Metrics => router.forward_metrics(),
        WireRequest::Health => WireResponse::Ring(router.ring_reply()),
        // Register and Epoch go to every replica. A SolveBatch never gets
        // here whole: the loop routes it as one Solve per query.
        request => router.broadcast(&request),
    }))
    .unwrap_or_else(|_| proto::wire_error(ErrorKind::Internal, "the router panicked"))
}

/// Best-effort `"shed"` error to a connection refused at accept, so the
/// client learns *why* instead of seeing a bare RST. The socket is fresh
/// (empty send buffer), so the bounded-timeout write virtually always
/// lands without blocking the loop meaningfully.
fn shed_at_accept(stream: TcpStream, message: &str) {
    let line = proto::encode_response_line(None, &proto::wire_error(ErrorKind::Shed, message));
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let mut stream = stream;
    let _ = proto::write_line(&mut stream, &line);
}

/// The `proto.read` failpoint as a fallible call site (the macro's `Err`
/// form returns from the enclosing function).
fn read_failpoint() -> std::io::Result<()> {
    krsp_failpoint::fail_point!("proto.read", |msg| Err(std::io::Error::other(msg)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::strategy::Strategy;

    /// Frames `bytes` cut at `cuts` (offsets, any order, clamped), then
    /// ends the stream.
    fn frame(bytes: &[u8], cuts: &[usize]) -> Vec<Framed> {
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(bytes.len())).collect();
        cuts.sort_unstable();
        let mut framer = Framer::default();
        let mut framed = Vec::new();
        let mut start = 0;
        for cut in cuts.into_iter().chain([bytes.len()]) {
            framer.push(&bytes[start..cut], &mut framed);
            start = cut;
        }
        framer.finish(&mut framed);
        framed
    }

    proptest::proptest! {
        /// Arbitrary bytes (a quarter of them newlines, so lines stay
        /// short) frame into exactly the lines of one split on `\n`,
        /// wherever the reads cut them. An unterminated tail is a line at
        /// end of stream; an empty one is nothing.
        #[test]
        fn chunking_never_changes_the_lines(
            bytes in proptest::collection::vec(
                (0u8..=255, 0u8..4).prop_map(|(b, nl)| if nl == 0 { b'\n' } else { b }),
                0..600,
            ),
            cuts in proptest::collection::vec(0usize..600, 0..24),
        ) {
            let mut expected: Vec<Framed> = bytes
                .split(|&b| b == b'\n')
                .map(|line| Framed::Line(line.to_vec()))
                .collect();
            if expected.last() == Some(&Framed::Line(Vec::new())) {
                expected.pop();
            }
            proptest::prop_assert_eq!(frame(&bytes, &cuts), expected);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(12))]

        /// A line longer than [`MAX_LINE_BYTES`] yields exactly one
        /// `TooLong`, with its leading id recovered, and the lines around
        /// it frame intact, wherever the reads cut the stream. Some cuts
        /// land near the cap: whether a read ends before the line's
        /// newline decides if the framer discards mid-line or at the
        /// newline.
        #[test]
        fn an_oversize_line_is_one_too_long_at_any_cut(
            over in 1usize..4096,
            cuts in proptest::collection::vec(0usize..MAX_LINE_BYTES + 4200, 0..16),
            near_cap in proptest::collection::vec(0usize..8192, 1..4),
        ) {
            let cuts: Vec<usize> = cuts
                .into_iter()
                .chain(near_cap.into_iter().map(|c| MAX_LINE_BYTES + c))
                .collect();
            let mut bytes = b"before\n{\"id\":7,\"Solve\":\"".to_vec();
            bytes.resize(7 + MAX_LINE_BYTES + over, b'x');
            bytes.extend_from_slice(b"\nafter\n");
            let expected = vec![
                Framed::Line(b"before".to_vec()),
                Framed::TooLong(Some(Content::Int(7))),
                Framed::Line(b"after".to_vec()),
            ];
            proptest::prop_assert_eq!(frame(&bytes, &cuts), expected);
        }
    }

    #[test]
    fn a_router_panic_is_answered_as_an_internal_error() {
        let _fp = crate::sync_util::fp_lock();
        krsp_failpoint::cfg("router.dial", "panic").expect("arm router.dial");
        let router = Router::new(crate::router::RouterOptions {
            replicas: vec!["127.0.0.1:1".to_string()],
            ..crate::router::RouterOptions::default()
        });
        let graph = krsp_graph::DiGraph::from_edges(2, &[(0, 1, 1, 1)]);
        let instance =
            krsp::Instance::new(graph, krsp_graph::NodeId(0), krsp_graph::NodeId(1), 1, 5)
                .expect("one-edge instance is well-formed");
        let request = WireRequest::Solve(SolveRequest {
            instance,
            deadline_ms: Some(100),
            kernel: None,
        });
        match route(&router, request) {
            WireResponse::Error(e) => assert_eq!(e.kind, ErrorKind::Internal),
            other => panic!("expected an internal error, got {other:?}"),
        }
    }

    #[test]
    fn a_line_at_the_cap_frames_and_an_oversize_tail_is_one_too_long() {
        let at_cap = vec![b'y'; MAX_LINE_BYTES];
        let bytes = [at_cap.as_slice(), b"\n"].concat();
        assert!(frame(&bytes, &[MAX_LINE_BYTES / 2]) == vec![Framed::Line(at_cap)]);
        // Cut off by end of stream, still exactly one marker (no id: the
        // line does not open with one).
        let bytes = vec![b'z'; MAX_LINE_BYTES + 1];
        assert!(frame(&bytes, &[READ_CHUNK, 3 * READ_CHUNK]) == vec![Framed::TooLong(None)]);
    }
}
