//! A minimal HTTP/1.1 client and the `fmtm load` generator.
//!
//! [`Http1Client`] keeps one keep-alive connection and reconnects
//! transparently when the server closes it; [`Http1Client::pipelined`]
//! writes a burst of requests before reading any response, exercising
//! the server's pipelining path. [`run_load`] drives N connection
//! threads against `POST /instances` with optional request-rate
//! pacing and reports achieved throughput plus latency percentiles
//! (recorded in a [`wfms_observe::Histogram`], so the percentiles are
//! log-linear-bucket estimates, same as the engine's own latency
//! metrics). With [`LoadOptions::open_loop`] the generator keeps an
//! open-loop arrival schedule: latency is measured from each
//! request's *scheduled* send time and the schedule never resets when
//! the server falls behind, so queueing delay is charged to the
//! server rather than silently absorbed (no coordinated omission).
//! [`latency_curve`] sweeps offered rates and reports
//! latency-under-load at each.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use wfms_observe::Histogram;

use crate::api::{StatusResponse, SubmitResponse};

/// Strips an `http://` prefix and any trailing path, leaving
/// `host:port`.
fn host_of(url: &str) -> &str {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    rest.split('/').next().unwrap_or(rest)
}

/// One keep-alive HTTP/1.1 connection with automatic reconnect.
pub struct Http1Client {
    host: String,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
    /// Rendered `authorization` header line, empty when unset.
    auth_header: String,
}

impl Http1Client {
    /// A client for `url` (`http://host:port` or bare `host:port`).
    pub fn new(url: &str) -> Self {
        Self {
            host: host_of(url).to_owned(),
            timeout: Duration::from_secs(10),
            conn: None,
            auth_header: String::new(),
        }
    }

    /// Sends `authorization: Bearer <key>` with every request — how a
    /// tenant authenticates against a `--tenants` server.
    pub fn with_api_key(mut self, key: Option<&str>) -> Self {
        self.auth_header = match key {
            Some(k) => format!("authorization: Bearer {k}\r\n"),
            None => String::new(),
        };
        self
    }

    fn connect(&mut self) -> std::io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.host)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().expect("connected above"))
    }

    /// Sends one request and reads the response, reconnecting and
    /// retrying once if the pooled connection turned out dead.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        for attempt in 0..2 {
            match self.try_request(method, path, body) {
                Ok(answer) => return Ok(answer),
                Err(e) => {
                    self.conn = None;
                    if attempt == 1 {
                        return Err(e);
                    }
                }
            }
        }
        unreachable!("loop returns on success or second failure")
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        let host = self.host.clone();
        let auth = self.auth_header.clone();
        let conn = self.connect()?;
        let payload = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {host}\r\n{auth}content-length: {}\r\n\r\n",
            payload.len()
        );
        let stream = conn.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(payload.as_bytes())?;
        stream.flush()?;
        read_response(conn)
    }

    /// Writes `n` copies of the same request back-to-back, then reads
    /// the `n` responses in order — a pipelined burst. No reconnect
    /// retry: a dead connection fails the whole burst.
    pub fn pipelined(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        n: usize,
    ) -> std::io::Result<Vec<(u16, String)>> {
        let host = self.host.clone();
        let auth = self.auth_header.clone();
        self.connect()?;
        let mut conn = self.conn.take().expect("connected above");
        let payload = body.unwrap_or("");
        let one = format!(
            "{method} {path} HTTP/1.1\r\nhost: {host}\r\n{auth}content-length: {}\r\n\r\n{payload}",
            payload.len()
        );
        let mut burst = Vec::with_capacity(one.len() * n);
        for _ in 0..n {
            burst.extend_from_slice(one.as_bytes());
        }
        let stream = conn.get_mut();
        stream.write_all(&burst)?;
        stream.flush()?;
        let mut answers = Vec::with_capacity(n);
        for _ in 0..n {
            answers.push(read_response(&mut conn)?);
        }
        // Only a fully-read burst leaves the connection reusable.
        self.conn = Some(conn);
        Ok(answers)
    }
}

/// Reads one `Content-Length`-framed response.
fn read_response(r: &mut BufReader<TcpStream>) -> std::io::Result<(u16, String)> {
    let mut status_line = String::new();
    if r.read_line(&mut status_line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before response",
        ));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed in headers",
            ));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
    Ok((status, body))
}

/// Options for [`run_load`].
#[derive(Clone)]
pub struct LoadOptions {
    /// Target, `http://host:port` or `host:port`.
    pub url: String,
    /// Process to start (server default when `None`).
    pub process: Option<String>,
    /// Stop after this many requests (across all connections).
    pub count: Option<u64>,
    /// Stop after this long (whichever of count/duration hits first;
    /// at least one must be set).
    pub duration: Option<Duration>,
    /// Target request rate across all connections (unpaced if
    /// `None` — as fast as the server answers).
    pub rps: Option<f64>,
    /// Concurrent connections (threads).
    pub connections: usize,
    /// Collect accepted instance ids (for later verification).
    pub collect_ids: bool,
    /// Open-loop mode (needs `rps`): latency is measured from each
    /// request's *scheduled* arrival time and the schedule never
    /// resets when the server lags, so percentiles include the
    /// queueing delay a real open population would see.
    pub open_loop: bool,
    /// Bearer API key sent with every request (tenancy-enabled
    /// servers refuse unauthenticated submissions with 401).
    pub api_key: Option<String>,
}

/// What [`run_load`] measured.
#[derive(Debug)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// `201 Accepted` answers.
    pub accepted: u64,
    /// `429 Overloaded` rejections.
    pub overloaded: u64,
    /// Transport errors and non-201/429 answers.
    pub errors: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Latency percentiles over accepted requests, microseconds.
    pub p50_us: u64,
    /// 95th percentile, microseconds.
    pub p95_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Accepted instance ids (only when `collect_ids` was set).
    pub ids: Vec<u64>,
}

impl LoadReport {
    /// Accepted starts per second.
    pub fn rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.accepted as f64 / secs
        } else {
            0.0
        }
    }
}

/// Drives `POST /instances` from `connections` threads and measures.
pub fn run_load(opts: &LoadOptions) -> LoadReport {
    let connections = opts.connections.max(1);
    let body = opts
        .process
        .as_ref()
        .map(|p| format!("{{\"process\":\"{p}\"}}"));
    let sent = AtomicU64::new(0);
    let accepted = AtomicU64::new(0);
    let overloaded = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let latency = Histogram::new();
    let ids: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let deadline = opts.duration.map(|d| Instant::now() + d);
    // Per-thread pacing interval: each of C threads sends at rps/C.
    let interval = opts
        .rps
        .filter(|r| *r > 0.0)
        .map(|r| Duration::from_secs_f64(connections as f64 / r));
    let started = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..connections {
            scope.spawn(|| {
                let mut client = Http1Client::new(&opts.url).with_api_key(opts.api_key.as_deref());
                let mut next_send = Instant::now();
                let mut local_ids = Vec::new();
                loop {
                    if let Some(limit) = opts.count {
                        if sent.fetch_add(1, Ordering::Relaxed) >= limit {
                            sent.fetch_sub(1, Ordering::Relaxed);
                            break;
                        }
                    } else {
                        sent.fetch_add(1, Ordering::Relaxed);
                    }
                    if let Some(end) = deadline {
                        if Instant::now() >= end {
                            sent.fetch_sub(1, Ordering::Relaxed);
                            break;
                        }
                    }
                    // `scheduled` is the arrival the rate schedule
                    // prescribed; under open loop the clock for this
                    // request starts there even if the connection was
                    // still busy with the previous one.
                    let mut scheduled = Instant::now();
                    if let Some(step) = interval {
                        let now = Instant::now();
                        if next_send > now {
                            std::thread::sleep(next_send - now);
                        }
                        scheduled = next_send;
                        next_send += step;
                    }
                    let sent_at = Instant::now();
                    let t0 = if opts.open_loop { scheduled } else { sent_at };
                    match client.request("POST", "/instances", body.as_deref()) {
                        Ok((201, answer)) => {
                            latency.record(t0.elapsed().as_micros() as u64);
                            accepted.fetch_add(1, Ordering::Relaxed);
                            if opts.collect_ids {
                                if let Ok(resp) = serde_json::from_str::<SubmitResponse>(&answer) {
                                    local_ids.push(resp.id);
                                }
                            }
                        }
                        Ok((429, _)) => {
                            overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) | Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                if !local_ids.is_empty() {
                    ids.lock().extend(local_ids);
                }
            });
        }
    });

    let snap = latency.snapshot();
    let mut ids = ids.into_inner();
    ids.sort_unstable();
    LoadReport {
        sent: sent.load(Ordering::Relaxed),
        accepted: accepted.load(Ordering::Relaxed),
        overloaded: overloaded.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        elapsed: started.elapsed(),
        p50_us: snap.p50,
        p95_us: snap.p95,
        p99_us: snap.p99,
        ids,
    }
}

/// One offered rate on a latency-under-load curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Offered rate (requests/s the schedule prescribed).
    pub offered_rps: f64,
    /// Achieved accepted rate.
    pub achieved_rps: f64,
    /// Requests sent at this point.
    pub sent: u64,
    /// `201` answers.
    pub accepted: u64,
    /// Transport errors and unexpected statuses.
    pub errors: u64,
    /// Open-loop (scheduled-arrival) latency percentiles, µs.
    pub p50_us: u64,
    /// 95th percentile, µs.
    pub p95_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
}

/// Sweeps the offered rates in `rates`, running an open-loop load of
/// `per_rate` duration at each, and returns latency-under-load per
/// rate. The base options' url/process/connections are reused; count
/// is cleared so each point is purely duration-bounded.
pub fn latency_curve(base: &LoadOptions, rates: &[f64], per_rate: Duration) -> Vec<CurvePoint> {
    let mut curve = Vec::with_capacity(rates.len());
    for &rate in rates {
        let mut opts = base.clone();
        opts.count = None;
        opts.duration = Some(per_rate);
        opts.rps = Some(rate);
        opts.open_loop = true;
        opts.collect_ids = false;
        let report = run_load(&opts);
        curve.push(CurvePoint {
            offered_rps: rate,
            achieved_rps: report.rps(),
            sent: report.sent,
            accepted: report.accepted,
            errors: report.errors,
            p50_us: report.p50_us,
            p95_us: report.p95_us,
            p99_us: report.p99_us,
        });
    }
    curve
}

/// Polls `GET /healthz` until the server answers or `timeout` passes.
pub fn wait_ready(url: &str, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    let mut client = Http1Client::new(url);
    while Instant::now() < deadline {
        if matches!(client.request("GET", "/healthz", None), Ok((200, _))) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    false
}

/// Polls every id's status until all are `finished` (or `timeout`
/// passes). Returns the ids that never finished, with the last
/// observation (`"missing"` for ids the server does not know). With
/// `api_key` the polls authenticate as a tenant — the ids must then
/// carry that tenant's slot or the server answers 403.
pub fn verify_ids(
    url: &str,
    api_key: Option<&str>,
    ids: &[u64],
    timeout: Duration,
) -> Vec<(u64, String)> {
    let deadline = Instant::now() + timeout;
    let mut client = Http1Client::new(url).with_api_key(api_key);
    let mut pending: Vec<u64> = ids.to_vec();
    let mut last: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
    while !pending.is_empty() && Instant::now() < deadline {
        pending.retain(
            |id| match client.request("GET", &format!("/instances/{id}"), None) {
                Ok((200, body)) => match serde_json::from_str::<StatusResponse>(&body) {
                    Ok(resp) if resp.status == "finished" => false,
                    Ok(resp) => {
                        last.insert(*id, resp.status);
                        true
                    }
                    Err(_) => {
                        last.insert(*id, "unparseable".to_owned());
                        true
                    }
                },
                Ok((code, _)) => {
                    last.insert(*id, format!("missing ({code})"));
                    true
                }
                Err(e) => {
                    last.insert(*id, format!("unreachable ({e})"));
                    true
                }
            },
        );
        if !pending.is_empty() {
            std::thread::sleep(Duration::from_millis(100));
        }
    }
    pending
        .into_iter()
        .map(|id| {
            let state = last.remove(&id).unwrap_or_else(|| "unknown".to_owned());
            (id, state)
        })
        .collect()
}

/// `POST /admin/deploy` with a serialized
/// [`crate::api::DeployRequest`] body. Returns the raw
/// `(status, body)` so callers can render either the
/// [`crate::api::DeployResponse`] or the error detail.
pub fn deploy(url: &str, body: &str) -> std::io::Result<(u16, String)> {
    Http1Client::new(url).request("POST", "/admin/deploy", Some(body))
}

/// `POST /admin/drain`; true on 200.
pub fn drain(url: &str) -> bool {
    matches!(
        Http1Client::new(url).request("POST", "/admin/drain", None),
        Ok((200, _))
    )
}

/// `POST /admin/stop`; true on 200.
pub fn stop(url: &str) -> bool {
    matches!(
        Http1Client::new(url).request("POST", "/admin/stop", None),
        Ok((200, _))
    )
}
