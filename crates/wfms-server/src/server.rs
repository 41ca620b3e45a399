//! The service front end: a non-blocking, epoll-backed event loop.
//!
//! One or more **reactor** threads share the listening socket (each
//! registers it `EPOLLEXCLUSIVE`, so the kernel wakes exactly one per
//! pending accept) and own the sockets they accept for the life of
//! the connection. Each connection carries an incremental
//! [`http::Decoder`] — a single readiness event may deliver half a
//! request or a dozen pipelined ones, and both parse without
//! blocking — plus a FIFO of *response slots* that keeps pipelined
//! replies in request order even when they complete out of order.
//!
//! Read-path routes (status, worklist, metrics, health) answer
//! synchronously on the reactor. Submissions are dispatched to the
//! owning shard through [`ShardPool::submit_with`], which fires a
//! completion **after the shard's group commit**; the completion
//! lands in the reactor's queue (woken via eventfd), fills its
//! response slot, and is written out together with every other reply
//! from the same batch — one flush, one wake, one `writev`-sized
//! burst. A `201` on the wire therefore still implies the start is on
//! disk. Admin drain/stop run on short-lived helper threads (they
//! block on shard barriers) and complete through the same queue.
//!
//! Lifecycle: [`Server::start`] binds and serves immediately;
//! [`Server::wait_stop`] blocks the caller until `POST /admin/stop`
//! (or [`Server::shutdown`] from another thread); shutdown drains the
//! pool — every queued submission is processed and flushed, shard
//! journals are checkpointed — unless the caller asks for an abrupt
//! stop to simulate a crash.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use wfms_engine::{EngineError, EngineMetrics, InstanceStatus, WorklistError};
use wfms_model::Container;

use crate::api::*;
use crate::http::{self, render_response, Request};
use crate::poll::{
    Epoll, Waker, EPOLLERR, EPOLLEXCLUSIVE, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::shard::{
    DeployReport, MigrationPolicy, PoolError, ShardPool, SubmitDispatch, SubmitReply,
};
use crate::tenant::{bearer_token, parse_tenants, Tenant};

/// Epoll events drained per wait.
const MAX_EVENTS: usize = 256;
/// Socket read granularity.
const READ_CHUNK: usize = 16 * 1024;
/// Maximum responses (pending or rendered) queued per connection;
/// beyond this the reactor stops reading the connection until the
/// pipeline drains — backpressure instead of unbounded buffering.
const MAX_PIPELINE: usize = 128;
/// Maximum unparsed bytes buffered per connection before reads pause.
const MAX_UNPARSED: usize = 256 * 1024;
/// Idle-connection sweep cadence (also the epoll wait bound).
const SWEEP_EVERY: Duration = Duration::from_millis(500);

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// Server configuration.
pub struct ServerConfig {
    /// Interface to bind, e.g. `127.0.0.1`.
    pub addr: String,
    /// Port to bind; `0` picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub port: u16,
    /// Process started by `POST /instances` when the body names none.
    pub default_process: String,
    /// Idle keep-alive connections are closed after this long.
    pub read_timeout: Duration,
    /// Reactor (event-loop) threads; `0` = one per core, capped by
    /// the shard count (more reactors than shards just contend).
    pub reactors: usize,
    /// Tenants file this server was started from, if tenancy is
    /// enabled; `POST /admin/reload-tenants` re-reads it.
    pub tenants_path: Option<PathBuf>,
}

impl ServerConfig {
    /// Loopback defaults with an ephemeral port.
    pub fn new(default_process: impl Into<String>) -> Self {
        Self {
            addr: "127.0.0.1".to_owned(),
            port: 0,
            default_process: default_process.into(),
            read_timeout: Duration::from_secs(30),
            reactors: 0,
            tenants_path: None,
        }
    }
}

struct ServerState {
    pool: Arc<ShardPool>,
    draining: AtomicBool,
    stopping: AtomicBool,
    default_process: String,
    stop_tx: SyncSender<()>,
    tenants_path: Option<PathBuf>,
}

/// A deferred route completion, produced off-reactor and delivered
/// through [`ReactorShared`].
enum Completion {
    /// A submit acknowledged after its shard's group commit.
    Submit {
        conn: u64,
        slot: u64,
        reply: SubmitReply,
        close: bool,
    },
    /// An admin drain/stop finished on its helper thread.
    Admin {
        conn: u64,
        slot: u64,
        result: Result<usize, String>,
        close: bool,
        stop: bool,
    },
    /// A template deploy finished on its helper thread.
    Deploy {
        conn: u64,
        slot: u64,
        result: Result<DeployReport, (u16, String)>,
        close: bool,
    },
}

/// The cross-thread half of one reactor: completion queue + waker.
struct ReactorShared {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl ReactorShared {
    fn post(&self, completion: Completion) {
        let was_empty = {
            let mut queue = self.completions.lock();
            let was_empty = queue.is_empty();
            queue.push(completion);
            was_empty
        };
        // One wake per drain cycle: siblings piling onto a non-empty
        // queue ride the wake already in flight (the reactor swaps
        // the whole queue out, so nothing is stranded).
        if was_empty {
            self.waker.wake();
        }
    }
}

/// A running workflow service.
pub struct Server {
    state: Arc<ServerState>,
    local_addr: SocketAddr,
    reactors: Mutex<Vec<std::thread::JoinHandle<()>>>,
    shared: Vec<Arc<ReactorShared>>,
    stop_rx: Mutex<Receiver<()>>,
}

impl Server {
    /// Binds the listener and starts the reactor threads.
    pub fn start(pool: Arc<ShardPool>, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind((cfg.addr.as_str(), cfg.port))?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let listener = Arc::new(listener);
        let (stop_tx, stop_rx) = sync_channel::<()>(1);
        let nreactors = if cfg.reactors > 0 {
            cfg.reactors
        } else {
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(pool.shards())
                .max(1)
        };
        let state = Arc::new(ServerState {
            pool,
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            default_process: cfg.default_process,
            stop_tx,
            tenants_path: cfg.tenants_path,
        });

        let mut shared = Vec::with_capacity(nreactors);
        let mut handles = Vec::with_capacity(nreactors);
        for i in 0..nreactors {
            let reactor_shared = Arc::new(ReactorShared {
                completions: Mutex::new(Vec::new()),
                waker: Waker::new()?,
            });
            let epoll = Epoll::new()?;
            epoll.add(reactor_shared.waker.fd(), EPOLLIN, TOKEN_WAKER)?;
            epoll.add(
                listener.as_raw_fd(),
                EPOLLIN | EPOLLEXCLUSIVE,
                TOKEN_LISTENER,
            )?;
            shared.push(Arc::clone(&reactor_shared));
            let state = Arc::clone(&state);
            let listener = Arc::clone(&listener);
            let read_timeout = cfg.read_timeout;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("wfms-reactor-{i}"))
                    .spawn(move || {
                        Reactor {
                            epoll,
                            listener,
                            shared: reactor_shared,
                            state,
                            read_timeout,
                            conns: HashMap::new(),
                            next_token: TOKEN_FIRST_CONN,
                        }
                        .run()
                    })?,
            );
        }

        Ok(Server {
            state,
            local_addr,
            reactors: Mutex::new(handles),
            shared,
            stop_rx: Mutex::new(stop_rx),
        })
    }

    /// The bound address (resolves an ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks until `POST /admin/stop` arrives (or another thread
    /// calls [`Server::shutdown`]).
    pub fn wait_stop(&self) {
        let _ = self.stop_rx.lock().recv();
    }

    /// Stops the server. With `drain`, every queued submission is
    /// processed and flushed and the shard journals are checkpointed
    /// first; without, the pool workers stop after their current
    /// batch and **no checkpoint is written** — the closest a test
    /// can get to a crash without killing the process (everything
    /// acknowledged is already durable via group commit).
    pub fn shutdown(&self, drain: bool) {
        if drain && !self.state.draining.swap(true, Ordering::SeqCst) {
            let _ = self.state.pool.drain();
        }
        if !self.state.stopping.swap(true, Ordering::SeqCst) {
            for shared in &self.shared {
                shared.waker.wake();
            }
        }
        for handle in self.reactors.lock().drain(..) {
            let _ = handle.join();
        }
        self.state.pool.stop();
        let _ = self.state.stop_tx.try_send(());
    }
}

/// One queued response for a connection, in request order.
enum Slot {
    /// Rendered and ready to write.
    Ready {
        bytes: Vec<u8>,
        close: bool,
        stop: bool,
    },
    /// Waiting on a group-commit or admin completion.
    Pending { id: u64 },
}

struct Conn {
    stream: TcpStream,
    decoder: http::Decoder,
    /// FIFO of responses; the front is the oldest request. Written
    /// out only while the front is `Ready` — pipelined responses
    /// never reorder.
    slots: std::collections::VecDeque<Slot>,
    out: Vec<u8>,
    out_pos: usize,
    /// Epoll interest currently registered.
    interest: u32,
    /// Stop reading: a close-marked or malformed request was seen.
    input_dead: bool,
    /// Peer half-closed its write side.
    read_closed: bool,
    /// Close once the output buffer drains.
    close_after_write: bool,
    /// Signal server stop once the output buffer drains.
    stop_after_write: bool,
    next_slot: u64,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            decoder: http::Decoder::new(),
            slots: std::collections::VecDeque::new(),
            out: Vec::new(),
            out_pos: 0,
            interest: EPOLLIN | EPOLLRDHUP,
            input_dead: false,
            read_closed: false,
            close_after_write: false,
            stop_after_write: false,
            next_slot: 0,
            last_activity: Instant::now(),
        }
    }

    fn alloc_slot(&mut self) -> u64 {
        let id = self.next_slot;
        self.next_slot += 1;
        self.slots.push_back(Slot::Pending { id });
        id
    }

    fn push_ready(&mut self, bytes: Vec<u8>, close: bool) {
        self.slots.push_back(Slot::Ready {
            bytes,
            close,
            stop: false,
        });
    }

    fn fill_slot(&mut self, id: u64, bytes: Vec<u8>, close: bool, stop: bool) {
        for slot in &mut self.slots {
            if matches!(slot, Slot::Pending { id: p } if *p == id) {
                *slot = Slot::Ready { bytes, close, stop };
                return;
            }
        }
    }

    /// Moves contiguously-ready slots from the FIFO front into the
    /// output buffer (one buffer, one write syscall for the batch).
    fn pump(&mut self) {
        while let Some(Slot::Ready { .. }) = self.slots.front() {
            let Some(Slot::Ready { bytes, close, stop }) = self.slots.pop_front() else {
                unreachable!("front checked above");
            };
            self.out.extend_from_slice(&bytes);
            if close {
                self.close_after_write = true;
                self.input_dead = true;
            }
            if stop {
                self.stop_after_write = true;
            }
        }
    }

    /// Whether the reactor should be reading this connection.
    fn wants_read(&self) -> bool {
        !self.input_dead
            && !self.read_closed
            && self.slots.len() < MAX_PIPELINE
            && self.decoder.buffered() < MAX_UNPARSED
    }

    fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

/// What to do with a connection after handling its events.
#[derive(PartialEq)]
enum Fate {
    Keep,
    Close,
    /// Close and signal server stop (admin/stop response flushed).
    CloseAndStop,
}

struct Reactor {
    epoll: Epoll,
    listener: Arc<TcpListener>,
    shared: Arc<ReactorShared>,
    state: Arc<ServerState>,
    read_timeout: Duration,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl Reactor {
    fn run(mut self) {
        let mut events = vec![
            crate::poll::Event {
                events: 0,
                token: 0
            };
            MAX_EVENTS
        ];
        let mut last_sweep = Instant::now();
        while let Ok(n) = self.epoll.wait(&mut events, SWEEP_EVERY.as_millis() as i32) {
            if self.state.stopping.load(Ordering::SeqCst) {
                break;
            }
            let mut stop_requested = false;
            for ev in &events[..n] {
                let (token, ready) = ({ ev.token }, { ev.events });
                match token {
                    TOKEN_LISTENER => self.accept_all(),
                    TOKEN_WAKER => {
                        self.shared.waker.drain();
                        if self.drain_completions() {
                            stop_requested = true;
                        }
                    }
                    token => {
                        if self.handle_conn_event(token, ready) {
                            stop_requested = true;
                        }
                    }
                }
            }
            if stop_requested {
                let _ = self.state.stop_tx.try_send(());
            }
            if last_sweep.elapsed() >= SWEEP_EVERY {
                last_sweep = Instant::now();
                self.sweep_idle();
            }
        }
        // Reactor exit: drop every connection (closes the sockets).
        self.conns.clear();
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.state.stopping.load(Ordering::SeqCst) {
                        continue; // accept-and-drop while stopping
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let conn = Conn::new(stream);
                    if self
                        .epoll
                        .add(conn.stream.as_raw_fd(), conn.interest, token)
                        .is_ok()
                    {
                        self.conns.insert(token, conn);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Applies queued completions to their connections. Returns true
    /// if a stop was fully flushed.
    fn drain_completions(&mut self) -> bool {
        let drained: Vec<Completion> = std::mem::take(&mut *self.shared.completions.lock());
        let mut stop = false;
        let mut touched: Vec<u64> = Vec::with_capacity(drained.len());
        for completion in drained {
            match completion {
                Completion::Submit {
                    conn: token,
                    slot,
                    reply,
                    close,
                } => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        let mut bytes = Vec::with_capacity(192);
                        render_submit_reply(&mut bytes, reply, close);
                        conn.fill_slot(slot, bytes, close, false);
                        conn.last_activity = Instant::now();
                        touched.push(token);
                    }
                }
                Completion::Admin {
                    conn: token,
                    slot,
                    result,
                    close,
                    stop: stop_after,
                } => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        let mut bytes = Vec::with_capacity(128);
                        match result {
                            Ok(compacted_events) => {
                                let body =
                                    serde_json::to_string(&DrainResponse { compacted_events })
                                        .expect("drain body serializes");
                                render_response(&mut bytes, 200, JSON, &[], body.as_bytes(), close);
                            }
                            Err(e) => {
                                let body = err_body(&e, "internal");
                                render_response(&mut bytes, 500, JSON, &[], body.as_bytes(), close);
                            }
                        }
                        conn.fill_slot(slot, bytes, close, stop_after);
                        conn.last_activity = Instant::now();
                        touched.push(token);
                    } else if stop_after {
                        // The stop requester vanished; honor the stop
                        // anyway — the drain already happened.
                        stop = true;
                    }
                }
                Completion::Deploy {
                    conn: token,
                    slot,
                    result,
                    close,
                } => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        let mut bytes = Vec::with_capacity(192);
                        match result {
                            Ok(report) => {
                                let body = serde_json::to_string(&DeployResponse {
                                    process: report.process,
                                    version: report.version,
                                    migrated: report.migrated,
                                    skipped: report.skipped,
                                    already_current: report.already_current,
                                })
                                .expect("deploy body serializes");
                                render_response(&mut bytes, 200, JSON, &[], body.as_bytes(), close);
                            }
                            Err((status, e)) => {
                                let class = if status == 400 {
                                    "bad_request"
                                } else {
                                    "internal"
                                };
                                let body = err_body(&e, class);
                                render_response(
                                    &mut bytes,
                                    status,
                                    JSON,
                                    &[],
                                    body.as_bytes(),
                                    close,
                                );
                            }
                        }
                        conn.fill_slot(slot, bytes, close, false);
                        conn.last_activity = Instant::now();
                        touched.push(token);
                    }
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            // Newly-ready slots may also unblock parsing (pipeline
            // backpressure) — run the full service pass.
            if self.service_conn(token) {
                stop = true;
            }
        }
        stop
    }

    /// Handles a readiness event for a connection. Returns true if a
    /// stop response was fully flushed.
    fn handle_conn_event(&mut self, token: u64, ready: u32) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false; // closed earlier in this batch
        };
        if ready & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(token);
            return false;
        }
        if ready & (EPOLLIN | EPOLLRDHUP) != 0 {
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                if !conn.wants_read() {
                    break;
                }
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.decoder.push(&chunk[..n]);
                        conn.last_activity = Instant::now();
                        if n < chunk.len() {
                            break; // socket drained
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close(token);
                        return false;
                    }
                }
            }
        }
        self.service_conn(token)
    }

    /// Parses buffered requests, pumps ready slots, writes, and
    /// updates epoll interest / closes as needed. The single
    /// post-anything service pass for a connection.
    fn service_conn(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        // Parse as many complete requests as backpressure allows.
        while !conn.input_dead && conn.slots.len() < MAX_PIPELINE {
            match conn.decoder.next_request() {
                Ok(Some(req)) => {
                    conn.last_activity = Instant::now();
                    dispatch(&self.state, &self.shared, token, conn, &req);
                    if conn.input_dead {
                        break;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let body = err_body(&e.message(), "bad_request");
                    let mut bytes = Vec::with_capacity(128);
                    render_response(&mut bytes, e.status(), JSON, &[], body.as_bytes(), true);
                    conn.slots.push_back(Slot::Ready {
                        bytes,
                        close: true,
                        stop: false,
                    });
                    conn.input_dead = true;
                    break;
                }
            }
        }
        conn.pump();
        match self.flush(token) {
            Fate::Keep => false,
            Fate::Close => {
                self.close(token);
                false
            }
            Fate::CloseAndStop => {
                self.close(token);
                true
            }
        }
    }

    /// Writes pending output; decides whether the connection lives.
    fn flush(&mut self, token: u64) -> Fate {
        let Some(conn) = self.conns.get_mut(&token) else {
            return Fate::Keep;
        };
        while conn.has_output() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return Fate::Close,
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Close,
            }
        }
        if !conn.has_output() {
            conn.out.clear();
            conn.out_pos = 0;
            if conn.stop_after_write {
                return Fate::CloseAndStop;
            }
            if conn.close_after_write {
                return Fate::Close;
            }
            if conn.read_closed && conn.slots.is_empty() && conn.decoder.is_clean() {
                return Fate::Close; // clean keep-alive EOF
            }
            if conn.read_closed && conn.slots.is_empty() {
                return Fate::Close; // half-closed mid-request: drop
            }
        }
        // Interest: write when output is stuck, read unless throttled.
        let mut want = EPOLLRDHUP;
        if conn.wants_read() {
            want |= EPOLLIN;
        }
        if conn.has_output() {
            want |= EPOLLOUT;
        }
        if want != conn.interest {
            conn.interest = want;
            if self
                .epoll
                .modify(conn.stream.as_raw_fd(), want, token)
                .is_err()
            {
                return Fate::Close;
            }
        }
        Fate::Keep
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            // Drop closes the socket.
        }
    }

    fn sweep_idle(&mut self) {
        let now = Instant::now();
        let timeout = self.read_timeout;
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| now.duration_since(c.last_activity) > timeout)
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            self.close(token);
        }
    }
}

const JSON: &str = "application/json";
const PROM: &str = "text/plain; version=0.0.4";

fn err_body(detail: &str, class: &str) -> String {
    serde_json::to_string(&ErrorResponse::new(class, detail)).expect("error body serializes")
}

fn status_str(s: InstanceStatus) -> &'static str {
    match s {
        InstanceStatus::Running => "running",
        InstanceStatus::Finished => "finished",
        InstanceStatus::Cancelled => "cancelled",
    }
}

/// Renders a post-group-commit submit completion.
fn render_submit_reply(out: &mut Vec<u8>, reply: SubmitReply, close: bool) {
    match reply {
        Ok((id, status, output)) => {
            let body = serde_json::to_string(&SubmitResponse {
                id,
                status: status_str(status).to_owned(),
                output,
            })
            .expect("submit body serializes");
            render_response(out, 201, JSON, &[], body.as_bytes(), close);
        }
        Err((error, unknown_process)) => {
            let (code, class) = if unknown_process {
                (404, "not_found")
            } else {
                (500, "internal")
            };
            let body = err_body(&error, class);
            render_response(out, code, JSON, &[], body.as_bytes(), close);
        }
    }
}

/// A synchronous route answer.
struct Answer {
    status: u16,
    content_type: &'static str,
    body: String,
    /// `Allow` header for 405 answers.
    allow: Option<&'static str>,
    /// Extra response headers (`www-authenticate`, `retry-after`, …).
    extra: Vec<(&'static str, &'static str)>,
    /// Force `connection: close` regardless of the request's
    /// keep-alive wish — the error-path rule for 401/403/429: never
    /// leave a connection open after refusing to serve it.
    force_close: bool,
}

impl Answer {
    fn json(status: u16, body: String) -> Answer {
        Answer {
            status,
            content_type: JSON,
            body,
            allow: None,
            extra: Vec::new(),
            force_close: false,
        }
    }
}

/// `401`: no/bad credentials. Challenges with `www-authenticate` and
/// closes the connection.
fn unauthorized(detail: &str) -> Answer {
    let mut answer = Answer::json(401, err_body(detail, "unauthorized"));
    answer.extra.push(("www-authenticate", "Bearer"));
    answer.force_close = true;
    answer
}

/// `403`: authenticated, but the resource belongs to another tenant.
/// Closes the connection.
fn forbidden(detail: &str) -> Answer {
    let mut answer = Answer::json(403, err_body(detail, "forbidden"));
    answer.force_close = true;
    answer
}

/// Routes one request: synchronous answers are rendered into a ready
/// slot; submits and admin operations allocate a pending slot that a
/// completion fills later.
fn dispatch(
    state: &Arc<ServerState>,
    shared: &Arc<ReactorShared>,
    token: u64,
    conn: &mut Conn,
    req: &Request,
) {
    let close = req.wants_close();
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    // Data-plane routes authenticate when tenancy is enabled; the ops
    // plane (healthz, metrics, admin) stays open — it is the operator's
    // surface, not a tenant's, and quota/fairness never apply to it.
    let data_plane = matches!(segments.first(), Some(&"instances" | &"worklist"));
    let tenant: Option<Arc<Tenant>> = if state.pool.tenancy_enabled() && data_plane {
        let resolved = req
            .header("authorization")
            .and_then(bearer_token)
            .and_then(|token| state.pool.authenticate(token.as_bytes()));
        match resolved {
            Some(t) => Some(t),
            None => {
                let detail = if req.header("authorization").is_none() {
                    "missing Authorization header (expected `Bearer <api-key>`)"
                } else {
                    "unrecognized API key"
                };
                return push_answer(conn, unauthorized(detail), close);
            }
        }
    } else {
        None
    };
    let answer = match segments.as_slice() {
        ["instances"] => match req.method.as_str() {
            "POST" => {
                dispatch_submit(state, shared, token, conn, req, tenant, close);
                return;
            }
            _ => method_not_allowed("POST"),
        },
        ["instances", id] => match req.method.as_str() {
            "GET" => instance_status(state, id, tenant.as_ref()),
            _ => method_not_allowed("GET"),
        },
        ["worklist"] => match req.method.as_str() {
            "GET" => worklist(state, req, tenant.as_ref()),
            _ => method_not_allowed("GET"),
        },
        ["worklist", item, "complete"] => match req.method.as_str() {
            "POST" => complete(state, req, item, tenant.as_ref()),
            _ => method_not_allowed("POST"),
        },
        ["metrics"] => match req.method.as_str() {
            "GET" => {
                publish_scrape_gauges(state);
                let text = state.pool.registry().snapshot().to_prometheus();
                Answer {
                    status: 200,
                    content_type: PROM,
                    body: text,
                    allow: None,
                    extra: Vec::new(),
                    force_close: false,
                }
            }
            _ => method_not_allowed("GET"),
        },
        ["healthz"] => match req.method.as_str() {
            "GET" => {
                let draining = state.draining.load(Ordering::SeqCst);
                let health = Health {
                    status: if draining { "draining" } else { "ok" }.to_owned(),
                    shards: state.pool.shards(),
                    recovered_instances: state.pool.recovered_instances(),
                };
                Answer::json(
                    200,
                    serde_json::to_string(&health).expect("health serializes"),
                )
            }
            _ => method_not_allowed("GET"),
        },
        ["admin", "deploy"] => match req.method.as_str() {
            "POST" => {
                dispatch_deploy(state, shared, token, conn, req, close);
                return;
            }
            _ => method_not_allowed("POST"),
        },
        ["admin", "reload-tenants"] => match req.method.as_str() {
            "POST" => reload_tenants(state),
            _ => method_not_allowed("POST"),
        },
        ["admin", "drain"] => match req.method.as_str() {
            "POST" => {
                dispatch_admin(state, shared, token, conn, close, false);
                return;
            }
            _ => method_not_allowed("POST"),
        },
        ["admin", "stop"] => match req.method.as_str() {
            "POST" => {
                // The stop answer always closes the connection — the
                // server is about to exit (satellite fix: the old
                // front end said `keep-alive` and then closed).
                dispatch_admin(state, shared, token, conn, true, true);
                return;
            }
            _ => method_not_allowed("POST"),
        },
        _ => Answer::json(404, err_body("no such route", "not_found")),
    };
    push_answer(conn, answer, close);
}

/// Renders a synchronous [`Answer`] into a ready slot, honoring its
/// extra headers and forced close.
fn push_answer(conn: &mut Conn, answer: Answer, close: bool) {
    let close = close || answer.force_close;
    let mut extra: Vec<(&str, &str)> = Vec::with_capacity(1 + answer.extra.len());
    if let Some(allow) = answer.allow {
        extra.push(("allow", allow));
    }
    extra.extend_from_slice(&answer.extra);
    let mut bytes = Vec::with_capacity(128 + answer.body.len());
    render_response(
        &mut bytes,
        answer.status,
        answer.content_type,
        &extra,
        answer.body.as_bytes(),
        close,
    );
    conn.push_ready(bytes, close);
}

fn method_not_allowed(allow: &'static str) -> Answer {
    Answer {
        status: 405,
        content_type: JSON,
        body: err_body("method not allowed", "bad_request"),
        allow: Some(allow),
        extra: Vec::new(),
        force_close: false,
    }
}

/// `POST /instances`: validate on the reactor, then hand the start to
/// its shard. The response slot is filled by the group-commit
/// completion — the reactor never waits on a journal flush.
fn dispatch_submit(
    state: &Arc<ServerState>,
    shared: &Arc<ReactorShared>,
    token: u64,
    conn: &mut Conn,
    req: &Request,
    tenant: Option<Arc<Tenant>>,
    close: bool,
) {
    let sync_answer = |conn: &mut Conn, status: u16, body: String| {
        let mut bytes = Vec::with_capacity(128 + body.len());
        render_response(&mut bytes, status, JSON, &[], body.as_bytes(), close);
        conn.push_ready(bytes, close);
    };
    if state.draining.load(Ordering::SeqCst) {
        return sync_answer(conn, 503, err_body("server is draining", "draining"));
    }
    let body: SubmitRequest = if req.body.is_empty() {
        SubmitRequest::default()
    } else {
        let Ok(text) = std::str::from_utf8(&req.body) else {
            return sync_answer(conn, 400, err_body("body is not UTF-8", "bad_request"));
        };
        match serde_json::from_str(text) {
            Ok(b) => b,
            Err(e) => {
                return sync_answer(
                    conn,
                    400,
                    err_body(&format!("bad body: {e}"), "bad_request"),
                )
            }
        }
    };
    let process = body
        .process
        .unwrap_or_else(|| state.default_process.clone());
    let input = body.input.unwrap_or_else(Container::empty);

    let slot = conn.alloc_slot();
    let sink = {
        let shared = Arc::clone(shared);
        Box::new(move |reply: SubmitReply| {
            shared.post(Completion::Submit {
                conn: token,
                slot,
                reply,
                close,
            });
        })
    };
    match state.pool.submit_with(&process, input, tenant, sink) {
        SubmitDispatch::Dispatched => {}
        SubmitDispatch::Overloaded { depth, capacity } => {
            // The sink was dropped uncalled; fill the slot now. A 429
            // always closes (error-path rule) and names a retry
            // horizon — overload is measured in group-commit batches,
            // so one second is conservatively past it.
            let body = err_body(
                &format!("queue at high-water mark ({depth}/{capacity})"),
                "overloaded",
            );
            let mut bytes = Vec::with_capacity(128 + body.len());
            render_response(
                &mut bytes,
                429,
                JSON,
                &[("retry-after", "1")],
                body.as_bytes(),
                true,
            );
            conn.fill_slot(slot, bytes, true, false);
        }
    }
}

/// `POST /admin/reload-tenants`: re-reads the tenants file the server
/// was started with and swaps the live table. Synchronous — the file
/// is small and the swap is an `Arc` store.
fn reload_tenants(state: &Arc<ServerState>) -> Answer {
    let Some(path) = &state.tenants_path else {
        return Answer::json(
            400,
            err_body(
                "tenancy is not enabled on this server (start with --tenants)",
                "bad_request",
            ),
        );
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            return Answer::json(
                500,
                err_body(&format!("tenants file {}: {e}", path.display()), "internal"),
            )
        }
    };
    let specs = match parse_tenants(&text) {
        Ok(s) => s,
        Err(e) => {
            return Answer::json(
                400,
                err_body(&format!("tenants file rejected: {e}"), "bad_request"),
            )
        }
    };
    match state.pool.reload_tenants(&specs) {
        Ok(tenants) => Answer::json(
            200,
            serde_json::to_string(&ReloadTenantsResponse { tenants })
                .expect("reload body serializes"),
        ),
        Err(PoolError::Rejected(e)) => Answer::json(400, err_body(&e, "bad_request")),
        Err(e) => Answer::json(500, err_body(&e.to_string(), "internal")),
    }
}

/// `POST /admin/drain|stop`: runs on a helper thread (drain blocks on
/// per-shard FIFO barriers) and completes through the reactor queue.
fn dispatch_admin(
    state: &Arc<ServerState>,
    shared: &Arc<ReactorShared>,
    token: u64,
    conn: &mut Conn,
    close: bool,
    stop: bool,
) {
    let slot = conn.alloc_slot();
    if stop {
        // No more requests on this connection after a stop.
        conn.input_dead = true;
    }
    let state = Arc::clone(state);
    let shared = Arc::clone(shared);
    let _ = std::thread::Builder::new()
        .name("wfms-admin".to_owned())
        .spawn(move || {
            state.draining.store(true, Ordering::SeqCst);
            let result = state.pool.drain().map_err(|e| e.to_string());
            // A failed drain on the stop path still stops the server —
            // matching the old front end, which answered with the
            // drain result and stopped regardless.
            shared.post(Completion::Admin {
                conn: token,
                slot,
                result,
                close,
                stop,
            });
        });
}

/// `POST /admin/deploy`: parse and policy-check on the reactor, then
/// register + migrate on a helper thread (deploy blocks on journal
/// flushes) and complete through the reactor queue.
fn dispatch_deploy(
    state: &Arc<ServerState>,
    shared: &Arc<ReactorShared>,
    token: u64,
    conn: &mut Conn,
    req: &Request,
    close: bool,
) {
    let sync_answer = |conn: &mut Conn, status: u16, body: String| {
        let mut bytes = Vec::with_capacity(128 + body.len());
        render_response(&mut bytes, status, JSON, &[], body.as_bytes(), close);
        conn.push_ready(bytes, close);
    };
    if state.draining.load(Ordering::SeqCst) {
        return sync_answer(conn, 503, err_body("server is draining", "draining"));
    }
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return sync_answer(conn, 400, err_body("body is not UTF-8", "bad_request"));
    };
    let body: DeployRequest = match serde_json::from_str(text) {
        Ok(b) => b,
        Err(e) => {
            return sync_answer(
                conn,
                400,
                err_body(&format!("bad body: {e}"), "bad_request"),
            )
        }
    };
    let policy = match body.policy.as_deref() {
        None => MigrationPolicy::DrainOld,
        Some(s) => match MigrationPolicy::parse(s) {
            Some(p) => p,
            None => {
                return sync_answer(
                    conn,
                    400,
                    err_body(
                        &format!("unknown policy {s:?} (expected \"drain-old\" or \"migrate\")"),
                        "bad_request",
                    ),
                )
            }
        },
    };
    let slot = conn.alloc_slot();
    let state = Arc::clone(state);
    let shared = Arc::clone(shared);
    let _ = std::thread::Builder::new()
        .name("wfms-deploy".to_owned())
        .spawn(move || {
            let result = state.pool.deploy(body.definition, policy).map_err(|e| {
                let status = match &e {
                    PoolError::Rejected(_) => 400,
                    _ => 500,
                };
                (status, e.to_string())
            });
            shared.post(Completion::Deploy {
                conn: token,
                slot,
                result,
                close,
            });
        });
}

fn instance_status(state: &Arc<ServerState>, id: &str, tenant: Option<&Arc<Tenant>>) -> Answer {
    let Ok(ext) = id.parse::<u64>() else {
        return Answer::json(
            400,
            err_body("instance id must be an integer", "bad_request"),
        );
    };
    // Wrong-tenant reads are refused *before* resolution: the slot is
    // part of the id, so a mismatch is a cross-tenant probe, not a
    // lookup miss.
    if let Some(t) = tenant {
        if state.pool.slot_of(ext) != Some(t.slot) {
            return forbidden(&format!("instance {ext} belongs to another tenant"));
        }
    }
    match state.pool.status(ext) {
        Some((process, status, version, output)) => Answer::json(
            200,
            serde_json::to_string(&StatusResponse {
                id: ext,
                process,
                status: status_str(status).to_owned(),
                version,
                output,
            })
            .expect("status body serializes"),
        ),
        None => Answer::json(404, err_body(&format!("no instance {ext}"), "not_found")),
    }
}

fn worklist(state: &Arc<ServerState>, req: &Request, tenant: Option<&Arc<Tenant>>) -> Answer {
    let person = match req.query_param("person") {
        Ok(Some(p)) => p,
        Ok(None) => {
            return Answer::json(
                400,
                err_body("missing ?person= query parameter", "bad_request"),
            )
        }
        Err(e) => return Answer::json(400, err_body(&e.message(), "bad_request")),
    };
    let items = state
        .pool
        .worklist(&person, tenant.map(|t| t.slot))
        .into_iter()
        .map(|(id, instance, item)| ItemDto {
            id,
            instance,
            path: item.path,
            attempt: item.attempt,
            offered_to: item.offered_to,
        })
        .collect();
    Answer::json(
        200,
        serde_json::to_string(&WorklistResponse { items }).expect("worklist serializes"),
    )
}

fn complete(
    state: &Arc<ServerState>,
    req: &Request,
    item: &str,
    tenant: Option<&Arc<Tenant>>,
) -> Answer {
    let Ok(ext) = item.parse::<u64>() else {
        return Answer::json(
            400,
            err_body("work-item id must be an integer", "bad_request"),
        );
    };
    if let Some(t) = tenant {
        if state.pool.slot_of(ext) != Some(t.slot) {
            return forbidden(&format!("work item {ext} belongs to another tenant"));
        }
    }
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Answer::json(400, err_body("body is not UTF-8", "bad_request"));
    };
    let body: CompleteRequest = match serde_json::from_str(text) {
        Ok(b) => b,
        Err(e) => return Answer::json(400, err_body(&format!("bad body: {e}"), "bad_request")),
    };
    match state.pool.complete(ext, &body.person) {
        Ok(()) => Answer::json(200, "{}".to_owned()),
        Err(EngineError::Worklist(WorklistError::NoSuchItem(_))) => {
            Answer::json(404, err_body(&format!("no work item {ext}"), "not_found"))
        }
        Err(e @ EngineError::Worklist(_)) | Err(e @ EngineError::BadActivityState { .. }) => {
            Answer::json(409, err_body(&e.to_string(), "conflict"))
        }
        Err(EngineError::UnknownInstance(_)) => {
            Answer::json(404, err_body("owning instance is gone", "not_found"))
        }
        Err(e) => Answer::json(500, err_body(&e.to_string(), "internal")),
    }
}

/// Folds engine aggregates into gauges at scrape time — cheaper than
/// keeping them hot on the submit path. The `journal.*` and `db.wal_*`
/// levels are what the shards' logs hold right now, summed: the bound
/// on a long-lived server's memory, where an operator can see it. What
/// each shard engine counts on its own registry — journal faults,
/// recovery and migration fix-ups, released claims — is summed by name
/// the same way (the hot-path `nav.*` hooks are off under `serve`, so
/// those read 0).
fn publish_scrape_gauges(state: &Arc<ServerState>) {
    let registry = state.pool.registry();
    let shards = state.pool.engine_metrics();
    let publish = |name: &str, level: &dyn Fn(&EngineMetrics) -> u64| {
        let total: u64 = shards.iter().map(level).sum();
        registry.gauge(name).set(total as i64);
    };
    publish("server.instances.running", &|m| m.instances_running);
    publish("server.instances.finished", &|m| m.instances_finished);
    publish("server.instances.cancelled", &|m| m.instances_cancelled);
    publish("journal.resident_records", &|m| m.journal_resident_records);
    publish("journal.file_bytes", &|m| m.journal_file_bytes);
    publish("db.wal_resident_records", &|m| {
        m.federation.iter().map(|db| db.wal_resident_records).sum()
    });
    publish("db.wal_checkpoints", &|m| {
        m.federation.iter().map(|db| db.wal_checkpoints).sum()
    });
    let mut counted = std::collections::BTreeMap::<&str, u64>::new();
    for (name, n) in shards.iter().flat_map(|m| &m.counters) {
        *counted.entry(name).or_default() += n;
    }
    for (name, total) in counted {
        registry.gauge(name).set(total as i64);
    }
    registry
        .gauge("server.queue.depth")
        .set(state.pool.queue_depth());
    registry
        .gauge("server.recovered.instances")
        .set(state.pool.recovered_instances() as i64);
}
