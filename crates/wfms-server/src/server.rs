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
//! This module is the reactor and its connections; what each method
//! and path answers is the route table in `routes.rs`. Every route
//! produces an `Answer` and every answer leaves through one function,
//! `Conn::reply`, which renders it into the connection's slot FIFO.
//! Read-path routes (status, worklist, metrics, health) answer
//! synchronously on the reactor. Submissions are dispatched to the
//! owning shard through [`ShardPool::submit_with`], which fires a
//! completion **after the shard's group commit**; the completion
//! lands in the reactor's queue, fills its response slot, and is
//! written out together with every other reply from the same batch —
//! one flush, one wake, one write per connection. The worker posts
//! every reply of its batch under a [`WakeHold`] and writes each
//! reactor's `eventfd` once, when the last is posted; a reactor woken
//! by each post that found the queue empty would preempt the worker
//! and drain the batch a few replies at a time (≈ 7.0 wakes and 7.5
//! socket writes per `saga_commit_http` burst turn of 16 or 32
//! submissions, against ≈ 0.9 and 1.5 with the hold;
//! `docs/performance.md`, "A turn is one hand-off"). The other way
//! round, a reactor handles each `epoll_wait` pass under a hold too: a
//! parked shard worker it hands work to is notified once, when the
//! pass is done, and takes the pass's submissions as one batch. A
//! `201` on the wire still implies the start is on disk. Work-item
//! completions, deploys, tenant reloads and admin drain/stop travel
//! the same way — a job for the shard worker, a completion posted after
//! its flush — but run after the batch's hold and wake their reactor
//! on their own, as does every post made outside a worker's step (a
//! dying worker's abandoned replies). The process has reactors and
//! shard workers and no other thread.
//!
//! Lifecycle: [`Server::start`] binds and serves immediately;
//! [`Server::wait_stop`] blocks the caller until `POST /admin/stop`
//! (or [`Server::shutdown`] from another thread); shutdown drains the
//! pool — every queued submission is processed and flushed, shard
//! journals are checkpointed — unless the caller asks for an abrupt
//! stop to simulate a crash.

use std::cell::RefCell;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use txn_substrate::fast_hash::FastMap;

use crate::http::{self, render_response};
use crate::poll::{
    Epoll, Waker, EPOLLERR, EPOLLEXCLUSIVE, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::routes::{dispatch, submit_answer, Answer};
use crate::shard::{ShardPool, SubmitReply};

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
/// Idle keep-alive connections are closed after this long.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

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
            reactors: 0,
            tenants_path: None,
        }
    }
}

pub(crate) struct ServerState {
    pub(crate) pool: Arc<ShardPool>,
    pub(crate) draining: AtomicBool,
    stopping: AtomicBool,
    pub(crate) default_process: String,
    stop_tx: SyncSender<()>,
    pub(crate) tenants_path: Option<PathBuf>,
}

/// A deferred route's reply, produced off-reactor and delivered
/// through [`ReactorShared`] to the pending slot it was promised.
pub(crate) struct Completion {
    pub(crate) conn: u64,
    pub(crate) slot: u64,
    pub(crate) close: bool,
    /// Signal server stop once the reply is written.
    pub(crate) stop: bool,
    pub(crate) answer: Deferred,
}

/// What a completion carries: a finished [`Answer`], or a submit's
/// reply still to be rendered — on the reactor, so that the JSON work
/// stays off the shard worker.
pub(crate) enum Deferred {
    Answer(Answer),
    Submit(SubmitReply),
}

/// The cross-thread half of one reactor: completion queue + waker.
pub(crate) struct ReactorShared {
    completions: Mutex<Vec<Completion>>,
    pub(crate) waker: Waker,
}

thread_local! {
    /// The wakes this thread's open [`WakeHold`] owes; `None` while
    /// none is open.
    static OWED: RefCell<Option<Vec<Wake>>> = const { RefCell::new(None) };
}

impl ReactorShared {
    pub(crate) fn new() -> std::io::Result<Arc<ReactorShared>> {
        Ok(Arc::new(ReactorShared {
            completions: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        }))
    }

    pub(crate) fn post(self: &Arc<Self>, completion: Completion) {
        let was_empty = {
            let mut queue = self.completions.lock();
            let was_empty = queue.is_empty();
            queue.push(completion);
            was_empty
        };
        // One wake per drain cycle: siblings piling onto a non-empty
        // queue ride the wake already owed or in flight (the reactor
        // swaps the whole queue out, so nothing is stranded). Under a
        // hold the wake is owed until the hold closes.
        if was_empty {
            WakeHold::owe(Wake::Reactor(Arc::clone(self)));
        }
    }

    /// Swaps the queued completions into `spare`, an empty buffer the
    /// reactor keeps: the queue goes on with `spare`'s capacity, so once
    /// both buffers have held a batch, posts no longer regrow it.
    pub(crate) fn take(&self, spare: &mut Vec<Completion>) {
        std::mem::swap(&mut *self.completions.lock(), spare);
    }
}

/// A thread another one hands work to, and how it is woken.
pub(crate) enum Wake {
    /// A reactor, through its `eventfd`.
    Reactor(Arc<ReactorShared>),
    /// A parked shard worker, through the condition variable it sleeps
    /// on.
    Worker(Arc<Condvar>),
}

impl Wake {
    fn is(&self, other: &Wake) -> bool {
        match (self, other) {
            (Wake::Reactor(a), Wake::Reactor(b)) => Arc::ptr_eq(a, b),
            (Wake::Worker(a), Wake::Worker(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    fn wake(&self) {
        match self {
            Wake::Reactor(shared) => shared.waker.wake(),
            Wake::Worker(parked) => {
                parked.notify_one();
            }
        }
    }
}

/// Holds the wakes its thread owes while it is open, and wakes each
/// thread owed once, when it drops — also while unwinding, so a
/// panicking sink strands no reply. Both directions of the hand-off
/// use it: a shard worker answers a whole batch before any reactor
/// hears of it, and a reactor admits every submission of one
/// `epoll_wait` pass before any worker it handed work to is woken.
pub(crate) struct WakeHold(());

impl WakeHold {
    /// Opens a hold on this thread. Inside another, it joins that one,
    /// and whichever drops first wakes what both owe.
    pub(crate) fn open() -> WakeHold {
        OWED.with(|owed| {
            owed.borrow_mut().get_or_insert_with(Vec::new);
        });
        WakeHold(())
    }

    /// Owes `wake` to the hold open on this thread, once however often
    /// it is owed; with none open, wakes now.
    pub(crate) fn owe(wake: Wake) {
        let now = OWED.with(|owed| match owed.borrow_mut().as_mut() {
            Some(owed) => {
                if !owed.iter().any(|held| held.is(&wake)) {
                    owed.push(wake);
                }
                None
            }
            None => Some(wake),
        });
        if let Some(wake) = now {
            wake.wake();
        }
    }
}

#[cfg(test)]
impl WakeHold {
    /// How many wakes the hold open on this thread owes.
    pub(crate) fn owed() -> usize {
        OWED.with(|owed| owed.borrow().as_ref().map_or(0, Vec::len))
    }
}

impl Drop for WakeHold {
    fn drop(&mut self) {
        let owed = OWED.with(|owed| owed.borrow_mut().take());
        for wake in owed.into_iter().flatten() {
            wake.wake();
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
            let reactor_shared = ReactorShared::new()?;
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
            handles.push(
                std::thread::Builder::new()
                    .name(format!("wfms-reactor-{i}"))
                    .spawn(move || {
                        Reactor {
                            epoll,
                            listener,
                            shared: reactor_shared,
                            state,
                            conns: FastMap::default(),
                            next_token: TOKEN_FIRST_CONN,
                            read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
                            spare: Vec::new(),
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
    /// Waiting on a shard worker's completion.
    Pending { id: u64 },
}

pub(crate) struct Conn {
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
    pub(crate) input_dead: bool,
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

    pub(crate) fn alloc_slot(&mut self) -> u64 {
        let id = self.next_slot;
        self.next_slot += 1;
        self.slots.push_back(Slot::Pending { id });
        id
    }

    /// The one way out: renders `answer` into the pending slot `slot`,
    /// or into a new slot at the back of the FIFO.
    pub(crate) fn reply(&mut self, slot: Option<u64>, answer: Answer, close: bool, stop: bool) {
        let close = close || answer.force_close;
        let mut bytes = Vec::with_capacity(128 + answer.body.len());
        render_response(
            &mut bytes,
            answer.status,
            answer.content_type,
            &answer.extra,
            answer.body.as_bytes(),
            close,
        );
        let ready = Slot::Ready { bytes, close, stop };
        let Some(id) = slot else {
            return self.slots.push_back(ready);
        };
        for slot in &mut self.slots {
            if matches!(slot, Slot::Pending { id: p } if *p == id) {
                *slot = ready;
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
    conns: FastMap<u64, Conn>,
    next_token: u64,
    /// What every connection's socket is read into, filled once at
    /// start: a readiness event zero-fills nothing.
    read_buf: Box<[u8]>,
    /// What the completion queue is swapped with: empty between drains,
    /// it keeps the capacity of the batches it held.
    spare: Vec<Completion>,
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
            // One hand-off per pass: a worker this pass hands work to is
            // woken once, after the last event, not by the first
            // submission it is handed.
            let hold = WakeHold::open();
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
            drop(hold);
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
        let mut drained = std::mem::take(&mut self.spare);
        self.shared.take(&mut drained);
        let mut stop = false;
        let mut touched: Vec<u64> = Vec::with_capacity(drained.len());
        for done in drained.drain(..) {
            match self.conns.get_mut(&done.conn) {
                Some(conn) => {
                    let answer = match done.answer {
                        Deferred::Answer(answer) => answer,
                        Deferred::Submit(reply) => submit_answer(reply),
                    };
                    conn.reply(Some(done.slot), answer, done.close, done.stop);
                    conn.last_activity = Instant::now();
                    touched.push(done.conn);
                }
                // The stop requester vanished; honor the stop anyway —
                // the drain already happened.
                None => stop |= done.stop,
            }
        }
        self.spare = drained;
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
            loop {
                if !conn.wants_read() {
                    break;
                }
                match conn.stream.read(&mut self.read_buf) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.decoder.push(&self.read_buf[..n]);
                        conn.last_activity = Instant::now();
                        if n < self.read_buf.len() {
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
                    let mut turn = Turn {
                        state: &self.state,
                        shared: &self.shared,
                        token,
                        conn: &mut *conn,
                    };
                    dispatch(&mut turn, &req);
                    if conn.input_dead {
                        break;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let refusal = Answer::error(e.status(), "bad_request", &e.message());
                    conn.reply(None, refusal, true, false);
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
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| now.duration_since(c.last_activity) > IDLE_TIMEOUT)
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            self.close(token);
        }
    }
}

/// One parsed request's turn on its connection: what a route needs to
/// answer it now ([`Conn::reply`]) or from another thread later
/// ([`Conn::alloc_slot`], then [`ReactorShared::post`]).
pub(crate) struct Turn<'a> {
    pub(crate) state: &'a Arc<ServerState>,
    pub(crate) shared: &'a Arc<ReactorShared>,
    pub(crate) token: u64,
    pub(crate) conn: &'a mut Conn,
}

#[cfg(test)]
mod tests {
    use super::{Completion, Deferred, ReactorShared};

    /// The reactor swaps the completion queue with a spare it keeps, so
    /// the queue's buffer is one of two that take turns. Each grows to a
    /// batch once; from the batch after that on, 32 posts find their
    /// capacity there and regrow nothing under the queue's lock (the
    /// queue taken with `std::mem::take` grew 4 → 8 → 16 → 32 in every
    /// batch).
    #[test]
    fn the_completion_queue_keeps_its_capacity() {
        let shared = ReactorShared::new().unwrap();
        let mut spare = Vec::new();
        for batch in 0..4 {
            let before = shared.completions.lock().capacity();
            for slot in 0..32 {
                shared.post(Completion {
                    conn: 0,
                    slot,
                    close: false,
                    stop: false,
                    answer: Deferred::Submit(Err((String::new(), false))),
                });
            }
            let after = shared.completions.lock().capacity();
            if batch >= 2 {
                assert!(before >= 32, "batch {batch} found capacity {before}");
                assert_eq!(after, before, "batch {batch} regrew the queue");
            }
            shared.take(&mut spare);
            assert_eq!(spare.len(), 32);
            spare.clear();
        }
    }
}
