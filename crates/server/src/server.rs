//! The TCP daemon: a bounded worker pool, newline-delimited JSON.
//!
//! Failure containment is the design rule: a malformed line answers a
//! typed error and the connection lives on; a session-layer error
//! answers a typed error and the *session* lives on; a dropped, idle
//! or hostile connection costs at most one worker visit. The accept
//! loop ends on a `shutdown` request — which *drains* in-flight
//! requests and joins every worker before [`Server::run`] returns —
//! or on the process being killed, which is exactly what the
//! crash/restart conformance suite does.
//!
//! ## Concurrency model (DESIGN.md §14)
//!
//! One acceptor (the thread inside `run`) feeds accepted sockets into
//! a bounded queue served by a fixed pool of `workers` connection
//! workers. Connections are *rotated*, not owned: a worker pops a
//! connection, serves every request already buffered on it (up to a
//! fairness budget), and requeues it — so N workers multiplex M ≫ N
//! live connections without a thread per connection. Containment:
//!
//! - **Backpressure**: past `max_conns` live connections the acceptor
//!   answers a typed `server_busy` error and closes — never a silent
//!   stall, never an unbounded thread spawn.
//! - **Idle timeout**: a connection with no complete request for
//!   `idle_timeout` is answered a typed `idle_timeout` error and
//!   closed, freeing its slot.
//! - **Line cap**: a request line exceeding `max_line_bytes` is
//!   answered a typed `line_too_long` error; the oversized line is
//!   discarded as it streams in (bounded memory) and the connection
//!   stays usable.
//! - **Slow reader**: every accepted socket carries a write timeout
//!   (`idle_timeout`, set once at accept); a peer that stops reading
//!   is disconnected instead of pinning a worker.
//!
//! ## Framing and latency
//!
//! Every wire line (request, reply, refusal, typed error) is one
//! `write_all` of `line + '\n'` ([`crate::proto::write_line`]), and
//! both ends set `TCP_NODELAY`. Why: Nagle's algorithm holds a small
//! segment while earlier data is unacknowledged, and the peer, waiting
//! for the rest of the line, delays its ACK by up to ~40 ms — a stall
//! on every request and reply sent as two writes.
//!
//! Scheduling can never perturb a session trajectory: every session
//! transition runs under that session's own lock in the registry and
//! depends only on the session's journal — which worker ran it, and
//! in what order relative to *other* sessions' requests, is invisible
//! to the state machine (the conformance soak pins this).

use crate::proto::{parse_request, write_line, ErrorBody, Request, RequestErrorKind};
use crate::registry::Registry;
use pbo_core::json::{push_f64_lossless, push_str_literal};
use pbo_core::observe::metrics::{Counter, Gauge};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests served on one connection per worker visit before it is
/// requeued behind its peers (fairness under load).
const VISIT_LINE_BUDGET: usize = 32;

/// Bytes consumed from one connection per worker visit before it is
/// requeued (bounds how long a streaming client can hold a worker).
const VISIT_BYTE_BUDGET: usize = 256 * 1024;

/// Read chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// How long an unproductive worker sleeps between queue rotations once
/// it has seen every queued connection yield nothing.
const ROTATION_PAUSE: Duration = Duration::from_millis(1);

/// Pool sizing and containment limits for a [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Connection workers (≥ 1). Default: available parallelism.
    pub workers: usize,
    /// A connection with no complete request for this long is answered
    /// a typed `idle_timeout` error and closed. Also bounds how long a
    /// reply write may block on a non-reading peer.
    pub idle_timeout: Duration,
    /// Request lines beyond this many bytes are answered a typed
    /// `line_too_long` error and discarded (bounded memory).
    pub max_line_bytes: usize,
    /// Live-connection cap: connections accepted past it are answered
    /// a typed `server_busy` error and closed.
    pub max_conns: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        ServerConfig {
            workers,
            idle_timeout: Duration::from_secs(300),
            max_line_bytes: 1 << 20,
            max_conns: workers.max(1) * 64,
        }
    }
}

/// A bound (but not yet serving) daemon.
pub struct Server {
    registry: Arc<Registry>,
    listener: TcpListener,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

/// Handle to a daemon running on a background thread.
pub struct ServerHandle {
    /// The bound address.
    pub addr: SocketAddr,
    handle: JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// Wait for the daemon to exit (after a `shutdown` request).
    /// A panicked server thread is a typed [`std::io::Error`], not a
    /// propagated panic — the supervising caller stays alive to log,
    /// restart or fail over.
    pub fn join(self) -> std::io::Result<()> {
        match self.handle.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port; read the real
    /// one back from [`Server::local_addr`]) with default
    /// [`ServerConfig`].
    pub fn bind(registry: Arc<Registry>, addr: &str) -> std::io::Result<Server> {
        Server::bind_with(registry, addr, ServerConfig::default())
    }

    /// Bind with an explicit pool configuration.
    pub fn bind_with(
        registry: Arc<Registry>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            registry,
            listener,
            addr,
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve until a `shutdown` request arrives, then drain: stop
    /// accepting, answer every in-flight request, close every
    /// connection and join every worker. Blocking; when it returns, no
    /// worker thread survives.
    pub fn run(self) -> std::io::Result<()> {
        let pool = Arc::new(Pool::new(
            self.registry,
            self.addr,
            self.shutdown.clone(),
            self.config.clone(),
        ));
        let workers: Vec<JoinHandle<()>> = (0..self.config.workers.max(1))
            .map(|i| {
                let pool = pool.clone();
                std::thread::Builder::new()
                    .name(format!("pbo-conn-worker-{i}"))
                    .spawn(move || worker_loop(&pool))
            })
            .collect::<std::io::Result<_>>()?;

        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            pool.accepted.inc();
            if pool.live.load(Ordering::SeqCst) >= self.config.max_conns.max(1) {
                pool.busy_rejected.inc();
                reject_busy(stream, self.config.max_conns);
                continue;
            }
            let setup = stream
                .set_nodelay(true)
                .and_then(|()| stream.set_write_timeout(Some(self.config.idle_timeout)))
                .and_then(|()| stream.set_nonblocking(true));
            if setup.is_err() {
                continue;
            }
            pool.live.fetch_add(1, Ordering::SeqCst);
            pool.live_gauge.set(pool.live.load(Ordering::SeqCst) as f64);
            let conn = Conn {
                stream,
                buf: Vec::new(),
                scanned: 0,
                discard: false,
                idle_deadline: Instant::now() + self.config.idle_timeout,
            };
            pool.push(conn);
        }

        // Drain: wake every worker so each one empties its share of
        // the queue (answering buffered requests) and exits.
        self.shutdown.store(true, Ordering::SeqCst);
        pool.ready.notify_all();
        let mut worker_panicked = false;
        for w in workers {
            worker_panicked |= w.join().is_err();
        }
        if worker_panicked {
            return Err(std::io::Error::other("a connection worker panicked"));
        }
        Ok(())
    }

    /// Serve on a background thread; returns once the socket accepts.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let handle = std::thread::spawn(move || self.run());
        ServerHandle { addr, handle }
    }
}

/// Best-effort `server_busy` refusal on a just-accepted socket.
fn reject_busy(mut stream: TcpStream, max_conns: usize) {
    let body = ErrorBody::request(
        RequestErrorKind::ServerBusy,
        format!("connection limit ({max_conns}) reached; retry shortly"),
    );
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = write_line(&mut stream, &body.to_line());
}

/// One live connection, rotated through the worker queue. `buf` holds
/// bytes received but not yet parsed into a complete line; `scanned`
/// marks the prefix already known newline-free (no re-scans).
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    scanned: usize,
    discard: bool,
    idle_deadline: Instant,
}

/// State shared by the acceptor and every connection worker.
struct Pool {
    registry: Arc<Registry>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    cfg: ServerConfig,
    queue: Mutex<VecDeque<Conn>>,
    ready: Condvar,
    live: AtomicUsize,
    live_gauge: Arc<Gauge>,
    queue_gauge: Arc<Gauge>,
    accepted: Arc<Counter>,
    busy_rejected: Arc<Counter>,
    idle_timeouts: Arc<Counter>,
    oversize: Arc<Counter>,
    write_timeouts: Arc<Counter>,
}

impl Pool {
    fn new(
        registry: Arc<Registry>,
        addr: SocketAddr,
        shutdown: Arc<AtomicBool>,
        cfg: ServerConfig,
    ) -> Pool {
        let m = registry.metrics().clone();
        m.gauge("server.pool.workers").set(cfg.workers.max(1) as f64);
        Pool {
            addr,
            shutdown,
            cfg,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            live: AtomicUsize::new(0),
            live_gauge: m.gauge("server.conns.live"),
            queue_gauge: m.gauge("server.queue.depth"),
            accepted: m.counter("server.conns.accepted"),
            busy_rejected: m.counter("server.conns.busy_rejected"),
            idle_timeouts: m.counter("server.conns.idle_timeout"),
            oversize: m.counter("server.errors.line_too_long"),
            write_timeouts: m.counter("server.conns.write_timeout"),
            registry,
        }
    }

    fn push(&self, conn: Conn) {
        let mut q = self.queue.lock().expect("connection queue poisoned");
        q.push_back(conn);
        self.queue_gauge.set(q.len() as f64);
        drop(q);
        self.ready.notify_one();
    }

    /// Pop the next connection; `None` once shutdown is flagged and
    /// the queue is empty (the worker's exit signal).
    fn pop(&self) -> Option<Conn> {
        let mut q = self.queue.lock().expect("connection queue poisoned");
        loop {
            if let Some(conn) = q.pop_front() {
                self.queue_gauge.set(q.len() as f64);
                return Some(conn);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(q, Duration::from_millis(50))
                .expect("connection queue poisoned");
            q = guard;
        }
    }

    fn queue_len(&self) -> usize {
        self.queue.lock().expect("connection queue poisoned").len()
    }

    fn close(&self, conn: Conn) {
        drop(conn);
        self.live.fetch_sub(1, Ordering::SeqCst);
        self.live_gauge.set(self.live.load(Ordering::SeqCst) as f64);
    }
}

/// What one worker visit decided about a connection.
enum Visit {
    /// Still healthy: requeue (or close, during drain). `productive`
    /// is whether any request was served — the rotation-pacing signal.
    Keep { productive: bool },
    /// Peer closed, errored, idled out or stalled: drop it.
    Close,
    /// This connection requested `shutdown` (reply already sent).
    Stop,
}

fn worker_loop(pool: &Pool) {
    let mut streak = 0usize; // consecutive unproductive visits
    while let Some(mut conn) = pool.pop() {
        let draining = pool.shutdown.load(Ordering::SeqCst);
        match serve_visit(pool, &mut conn, draining) {
            Visit::Keep { productive } => {
                if draining {
                    // Buffered requests were just answered; drain ends
                    // the connection rather than requeueing it.
                    pool.close(conn);
                } else {
                    pool.push(conn);
                    if productive {
                        streak = 0;
                    } else {
                        streak += 1;
                        // Every queued connection yielded nothing this
                        // rotation: pause instead of spinning.
                        if streak >= pool.queue_len().max(1) {
                            streak = 0;
                            std::thread::sleep(ROTATION_PAUSE);
                        }
                    }
                }
            }
            Visit::Close => pool.close(conn),
            Visit::Stop => {
                pool.close(conn);
                pool.shutdown.store(true, Ordering::SeqCst);
                pool.ready.notify_all();
                // Unblock the acceptor so it observes the flag.
                let _ = TcpStream::connect(pool.addr);
            }
        }
    }
}

/// Serve one worker visit on `conn`: answer every complete line already
/// received (plus whatever arrives while reading), within the fairness
/// budgets. Never blocks on reads — the socket is non-blocking; reply
/// writes carry the timeout set at accept.
fn serve_visit(pool: &Pool, conn: &mut Conn, draining: bool) -> Visit {
    let mut productive = false;
    let mut lines = 0usize;
    let mut bytes = 0usize;
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        // Answer every complete line currently buffered.
        while let Some(at) = conn.buf[conn.scanned..].iter().position(|&b| b == b'\n') {
            let pos = conn.scanned + at;
            let line: Vec<u8> = conn.buf.drain(..=pos).collect();
            conn.scanned = 0;
            if conn.discard {
                // Tail of an oversized line: the error was already
                // answered when the cap tripped; swallow the rest.
                conn.discard = false;
                continue;
            }
            // A whole line can slip past the partial-line cap below if
            // it arrives (newline included) within one read burst, so
            // the cap is also enforced per complete line.
            if line.len() - 1 > pool.cfg.max_line_bytes {
                if reject_line_too_long(pool, conn).is_err() {
                    return Visit::Close;
                }
                continue;
            }
            let text = String::from_utf8_lossy(&line[..line.len() - 1]);
            if text.trim().is_empty() {
                continue;
            }
            let (response, stop) = dispatch(&pool.registry, &text);
            if write_reply(pool, conn, &response).is_err() {
                return Visit::Close;
            }
            if stop {
                return Visit::Stop;
            }
            productive = true;
            conn.idle_deadline = Instant::now() + pool.cfg.idle_timeout;
            lines += 1;
            if lines >= VISIT_LINE_BUDGET {
                return Visit::Keep { productive };
            }
        }
        conn.scanned = conn.buf.len();

        // Cap the partial line: answer the typed error once, then
        // discard the stream until its newline (bounded memory).
        if conn.discard {
            conn.buf.clear();
            conn.scanned = 0;
        } else if conn.buf.len() > pool.cfg.max_line_bytes {
            if reject_line_too_long(pool, conn).is_err() {
                return Visit::Close;
            }
            conn.discard = true;
            conn.buf.clear();
            conn.scanned = 0;
        }

        if bytes >= VISIT_BYTE_BUDGET {
            return Visit::Keep { productive };
        }

        match conn.stream.read(&mut chunk) {
            Ok(0) => return Visit::Close,
            Ok(n) => {
                bytes += n;
                conn.buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if !draining && Instant::now() >= conn.idle_deadline {
                    pool.idle_timeouts.inc();
                    let e = ErrorBody::request(
                        RequestErrorKind::IdleTimeout,
                        format!(
                            "no request for {:?}; closing idle connection",
                            pool.cfg.idle_timeout
                        ),
                    );
                    let _ = write_reply(pool, conn, &e.to_line());
                    return Visit::Close;
                }
                return Visit::Keep { productive };
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Visit::Close,
        }
    }
}

/// Count and answer an over-cap request line.
fn reject_line_too_long(pool: &Pool, conn: &mut Conn) -> std::io::Result<()> {
    pool.oversize.inc();
    let limit = pool.cfg.max_line_bytes;
    let e = ErrorBody::request(
        RequestErrorKind::LineTooLong,
        format!("request line exceeds {limit} bytes"),
    );
    write_reply(pool, conn, &e.to_line())
}

/// Write one reply line in blocking mode, bounded by the write timeout
/// set at accept, so a peer that stops reading cannot pin a worker.
/// Restores non-blocking mode.
fn write_reply(pool: &Pool, conn: &mut Conn, response: &str) -> std::io::Result<()> {
    conn.stream.set_nonblocking(false)?;
    let result = write_line(&mut conn.stream, response);
    if let Err(e) = &result {
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            pool.write_timeouts.inc();
        }
    }
    conn.stream.set_nonblocking(true)?;
    result
}

/// Serve one request line; returns the response line and whether the
/// daemon should stop. Never panics on client input.
pub fn dispatch(registry: &Registry, line: &str) -> (String, bool) {
    let (proto, request) = match parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            registry.metrics().counter("server.errors.protocol").inc();
            return (e.to_line(), false);
        }
    };
    let result: Result<String, ErrorBody> = match request {
        Request::Create { id, config } => {
            // A v1 client could create a variable-q session but never
            // learn each cycle's batch size; refuse up front.
            if proto < 2 && config.algorithm.is_variable_q() {
                Err(needs_proto_2(config.algorithm.name()))
            } else {
                registry.create(&id, config).map(|r| {
                    let mut out = ok_head();
                    out.push_str(",\"id\":");
                    push_str_literal(&mut out, &id);
                    out.push_str(",\"key\":");
                    push_str_literal(&mut out, &r.key);
                    let _ = write!(out, ",\"created\":{},\"turn\":{}}}", r.created, r.turn);
                    out
                })
            }
        }
        Request::Ask { id } => {
            // The session may predate this connection (created by a v2
            // client, asked by a v1 one), so the gate re-checks here.
            let gate = if proto < 2 {
                registry.variable_q(&id).and_then(|variable| {
                    if variable {
                        Err(needs_proto_2(&format!("session '{id}'")))
                    } else {
                        Ok(())
                    }
                })
            } else {
                Ok(())
            };
            gate.and_then(|()| registry.ask(&id)).map(|r| {
                let mut out = ok_head();
                let _ = write!(out, ",\"turn\":{},", r.turn);
                if proto >= 2 {
                    let _ = write!(out, "\"q\":{},", r.q);
                }
                out.push_str("\"points\":[");
                for (i, p) in r.points.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('[');
                    for (j, v) in p.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        push_f64_lossless(&mut out, *v);
                    }
                    out.push(']');
                }
                out.push_str("]}");
                out
            })
        }
        Request::Tell { id, turn, values } => registry.tell(&id, turn, &values).map(|r| {
            let mut out = ok_head();
            let _ = write!(out, ",\"turn\":{},\"done\":{}}}", r.turn, r.done);
            out
        }),
        Request::Status { id } => registry.status(&id).map(|(s, key)| {
            let mut out = ok_head();
            out.push_str(",\"id\":");
            push_str_literal(&mut out, &id);
            out.push_str(",\"phase\":");
            push_str_literal(&mut out, s.phase);
            let _ = write!(
                out,
                ",\"turn\":{},\"cycles\":{},\"n_data\":{},\"best_y\":",
                s.turn, s.cycles, s.n_data
            );
            match s.best_y {
                Some(v) => push_f64_lossless(&mut out, v),
                None => out.push_str("null"),
            }
            out.push_str(",\"clock\":");
            push_f64_lossless(&mut out, s.clock);
            out.push_str(",\"key\":");
            push_str_literal(&mut out, &key);
            out.push('}');
            out
        }),
        Request::Record { id } => registry.record_line(&id).map(|line| {
            let mut out = ok_head();
            out.push_str(",\"record\":");
            push_str_literal(&mut out, &line);
            out.push('}');
            out
        }),
        Request::List => Ok({
            let mut out = ok_head();
            out.push_str(",\"sessions\":[");
            for (i, (id, phase, turn)) in registry.list().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"id\":");
                push_str_literal(&mut out, id);
                out.push_str(",\"phase\":");
                push_str_literal(&mut out, phase);
                let _ = write!(out, ",\"turn\":{turn}}}");
            }
            out.push_str("]}");
            out
        }),
        Request::ServerStatus => Ok({
            let snap = registry.metrics().snapshot();
            let mut out = ok_head();
            let _ = write!(out, ",\"proto\":{}", crate::proto::PROTO_VERSION);
            out.push_str(",\"protos\":[");
            for (i, p) in crate::proto::SUPPORTED_PROTOS.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{p}");
            }
            out.push(']');
            let _ = write!(out, ",\"sessions\":{}", registry.len());
            out.push_str(",\"counters\":{");
            for (i, (name, value)) in snap.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_str_literal(&mut out, name);
                let _ = write!(out, ":{value}");
            }
            out.push_str("},\"gauges\":{");
            for (i, (name, value)) in snap.gauges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_str_literal(&mut out, name);
                out.push(':');
                push_f64_lossless(&mut out, *value);
            }
            out.push_str("}}");
            out
        }),
        Request::Close { id } => registry.close(&id).map(|()| {
            let mut out = ok_head();
            out.push('}');
            out
        }),
        Request::Shutdown => {
            let mut out = ok_head();
            out.push_str(",\"stopping\":true}");
            return (out, true);
        }
    };
    match result {
        Ok(line) => (line, false),
        Err(e) => {
            registry
                .metrics()
                .counter(&format!("server.errors.{}", e.code))
                .inc();
            (e.to_line(), false)
        }
    }
}

fn ok_head() -> String {
    String::from("{\"ok\":true")
}

/// The typed refusal for variable-q work requested over protocol 1.
fn needs_proto_2(what: &str) -> ErrorBody {
    ErrorBody::request(
        RequestErrorKind::UnsupportedVersion,
        format!("{what} chooses its batch size per cycle; proto 2 is required to carry q"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::tests::cfg;
    use pbo_core::json::{parse, Json};
    use pbo_core::session::SessionConfig;

    #[test]
    fn dispatch_survives_garbage_without_touching_sessions() {
        let reg = Registry::in_memory();
        for garbage in ["", "{", "null", "{\"proto\":1,\"op\":\"nope\"}", "\u{7f}\u{1}"] {
            let (resp, stop) = dispatch(&reg, garbage);
            assert!(!stop);
            let v = parse(&resp).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        }
        assert!(reg.is_empty());
    }

    #[test]
    fn unknown_session_is_a_typed_error() {
        let reg = Registry::in_memory();
        let (resp, _) = dispatch(&reg, "{\"proto\":1,\"op\":\"ask\",\"id\":\"ghost\"}");
        let v = parse(&resp).unwrap();
        assert_eq!(
            v.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
            Some("unknown_session")
        );
    }

    #[test]
    fn shutdown_sets_stop_flag() {
        let reg = Registry::in_memory();
        let (resp, stop) = dispatch(&reg, "{\"proto\":1,\"op\":\"shutdown\"}");
        assert!(stop);
        assert!(resp.contains("\"stopping\":true"));
    }

    /// Satellite regression: a panicked server thread must surface as
    /// a typed error from `join`, not re-panic the supervising caller.
    #[test]
    fn join_reports_a_panicked_server_thread_as_an_error() {
        let handle = ServerHandle {
            addr: "127.0.0.1:0".parse().unwrap(),
            handle: std::thread::spawn(|| -> std::io::Result<()> {
                panic!("simulated server crash")
            }),
        };
        let err = handle.join().expect_err("panic must become an Err");
        assert!(err.to_string().contains("panicked"), "{err}");
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ServerConfig::default();
        assert!(cfg.workers >= 1);
        assert!(cfg.max_conns >= cfg.workers);
        assert_eq!(cfg.max_line_bytes, 1 << 20);
        assert_eq!(cfg.idle_timeout, Duration::from_secs(300));
    }

    fn variable_q_create_body(id: &str) -> String {
        use pbo_core::algorithms::AlgorithmKind;
        let cfg = SessionConfig { algorithm: AlgorithmKind::HybridQ, ..cfg(7) };
        let mut out = String::new();
        cfg.encode_json(&mut out);
        format!("\"id\":\"{id}\",\"config\":{out}}}")
    }

    fn error_code(resp: &str) -> Option<String> {
        parse(resp)
            .ok()?
            .get("error")?
            .get("code")
            .and_then(Json::as_str)
            .map(str::to_string)
    }

    #[test]
    fn proto_1_cannot_create_or_ask_a_variable_q_session() {
        let reg = Registry::in_memory();
        let body = variable_q_create_body("vq");
        // v1 create is refused with the pinned code…
        let (resp, _) = dispatch(&reg, &format!("{{\"proto\":1,\"op\":\"create\",{body}"));
        assert_eq!(error_code(&resp).as_deref(), Some("unsupported_version"));
        assert!(reg.is_empty(), "refused create must not register a session");
        // …a v2 create succeeds…
        let (resp, _) = dispatch(&reg, &format!("{{\"proto\":2,\"op\":\"create\",{body}"));
        assert!(resp.contains("\"ok\":true"), "{resp}");
        // …and a later v1 ask against that session is refused too.
        let (resp, _) = dispatch(&reg, "{\"proto\":1,\"op\":\"ask\",\"id\":\"vq\"}");
        assert_eq!(error_code(&resp).as_deref(), Some("unsupported_version"));
        let (resp, _) = dispatch(&reg, "{\"proto\":2,\"op\":\"ask\",\"id\":\"vq\"}");
        assert!(resp.contains("\"q\":"), "v2 ask carries the batch size: {resp}");
    }

    #[test]
    fn ask_reply_carries_q_only_on_proto_2() {
        use pbo_core::budget::Budget;
        let reg = Registry::in_memory();
        let cfg = SessionConfig { budget: Budget::cycles(2, 3).with_initial_samples(4), ..cfg(1) };
        reg.create("s", cfg).unwrap();
        let (v1, _) = dispatch(&reg, "{\"proto\":1,\"op\":\"ask\",\"id\":\"s\"}");
        assert!(v1.contains("\"ok\":true") && !v1.contains("\"q\":"), "{v1}");
        let (v2, _) = dispatch(&reg, "{\"proto\":2,\"op\":\"ask\",\"id\":\"s\"}");
        let v = parse(&v2).unwrap();
        assert_eq!(v.get("q").and_then(Json::as_usize), Some(4), "design batch: {v2}");
    }

    #[test]
    fn server_status_advertises_both_protos_and_gauges() {
        let reg = Registry::in_memory();
        let (resp, _) = dispatch(&reg, "{\"proto\":1,\"op\":\"server-status\"}");
        assert!(resp.contains("\"protos\":[1,2]"), "{resp}");
        assert!(resp.contains("\"gauges\":{"), "{resp}");
    }
}
