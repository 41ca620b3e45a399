//! The load generator: seeded operation scripts, request rendering,
//! a response framer, and closed-loop blocking connections.
//!
//! Everything here is the benchmark's own code. The program under
//! test sees only the bytes this module writes to its socket; what
//! comes back is framed and kept verbatim for the checker.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

use crate::host::process_cpu;
use crate::stats::Samples;

/// A socket that stays silent this long fails the operation instead
/// of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// Pipelined operations per burst in the capacity phase.
pub const BURST: usize = 16;

/// A small seeded generator (splitmix64): the benchmark's inputs are a
/// pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `label` under `seed`; distinct labels give
    /// independent streams.
    pub fn new(seed: u64, label: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in label.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A six-digit `order` input: fixed width, so journal and request
    /// bytes do not depend on the seed.
    pub fn order(&mut self) -> u32 {
        100_000 + self.below(900_000) as u32
    }
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /instances` as tenant index `tenant`, carrying an
    /// [`Rng::order`] input.
    Submit { tenant: u8, order: u32 },
    /// `GET /instances/:id` of the `pick % accepted`-th instance this
    /// connection knows to be accepted.
    Read { pick: u32 },
}

/// `writes` submits, each followed by `reads_per_write` reads.
pub fn script(rng: &mut Rng, writes: usize, reads_per_write: usize, tenants: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(writes * (1 + reads_per_write));
    for _ in 0..writes {
        ops.push(Op::Submit {
            tenant: rng.below(tenants.max(1) as u64) as u8,
            order: rng.order(),
        });
        for _ in 0..reads_per_write {
            ops.push(Op::Read {
                pick: rng.next_u64() as u32,
            });
        }
    }
    ops
}

/// An instance a connection knows to be accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accepted {
    pub id: u64,
    pub tenant: u8,
}

/// How operations become request bytes.
#[derive(Debug, Clone)]
pub struct Wire {
    pub host: String,
    pub process: &'static str,
    /// Bearer keys by tenant index; empty when tenancy is off.
    pub keys: Vec<String>,
}

impl Wire {
    fn auth(&self, tenant: u8) -> String {
        match self.keys.get(usize::from(tenant)) {
            Some(key) => format!("authorization: Bearer {key}\r\n"),
            None => String::new(),
        }
    }

    /// Appends the request for `op` to `out`. A read resolves its pick
    /// against `accepted` and returns the index it chose.
    pub fn render(&self, op: Op, accepted: &[Accepted], out: &mut Vec<u8>) -> Option<usize> {
        match op {
            Op::Submit { tenant, order } => {
                let body = format!(
                    r#"{{"process":"{}","input":{{"values":{{"order":{{"Int":{order}}}}}}}}}"#,
                    self.process
                );
                out.extend_from_slice(
                    format!(
                        "POST /instances HTTP/1.1\r\nhost: {}\r\n{}content-length: {}\r\n\r\n{body}",
                        self.host,
                        self.auth(tenant),
                        body.len()
                    )
                    .as_bytes(),
                );
                None
            }
            Op::Read { pick } => {
                let at = pick as usize % accepted.len();
                let target = accepted[at];
                out.extend_from_slice(
                    format!(
                        "GET /instances/{} HTTP/1.1\r\nhost: {}\r\n{}\r\n",
                        target.id,
                        self.host,
                        self.auth(target.tenant)
                    )
                    .as_bytes(),
                );
                Some(at)
            }
        }
    }
}

/// A malformed response.
#[derive(Debug, PartialEq, Eq)]
pub struct FrameError(pub &'static str);

/// Incremental `Content-Length` response framer: bytes arrive in
/// whatever pieces the socket delivers, complete responses come out.
#[derive(Debug, Default)]
pub struct Framer {
    buf: Vec<u8>,
    start: usize,
}

impl Framer {
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops one complete response: its status code, with the body
    /// appended to `arena` at the returned range. `None` when more
    /// bytes are needed.
    pub fn next(&mut self, arena: &mut Vec<u8>) -> Result<Option<(u16, Range<usize>)>, FrameError> {
        let hay = &self.buf[self.start..];
        let Some(head_end) = hay.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head =
            std::str::from_utf8(&hay[..head_end]).map_err(|_| FrameError("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.strip_prefix("HTTP/1.1 "))
            .and_then(|l| l.get(..3))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or(FrameError("malformed status line"))?;
        let mut length = None;
        for line in lines {
            let (name, value) = line.split_once(':').ok_or(FrameError("malformed header"))?;
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            }
        }
        let length = length.ok_or(FrameError("no content-length"))?;
        let body_at = head_end + 4;
        if hay.len() < body_at + length {
            return Ok(None);
        }
        let from = arena.len();
        arena.extend_from_slice(&hay[body_at..body_at + length]);
        self.start += body_at + length;
        Ok(Some((status, from..arena.len())))
    }
}

/// The `"id":N` of a response body, read without parsing the rest:
/// the generator needs it on the hot path to address later reads; the
/// checker parses every body in full after the phase.
pub fn scan_id(body: &[u8]) -> Option<u64> {
    let at = body.windows(5).position(|w| w == b"\"id\":")? + 5;
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&body[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// What came back for one operation.
#[derive(Debug, Clone)]
pub struct Answer {
    pub op: Op,
    /// For reads: index into the connection's accepted list.
    pub target: Option<usize>,
    /// 0 when the connection failed before an answer arrived.
    pub status: u16,
    pub body: Range<usize>,
}

/// One stretch of a phase: a fixed number of operations, so window
/// `k` of every round covers the same work.
#[derive(Debug, Default)]
pub struct Window {
    /// Per-operation latencies (depth 1 only).
    pub submit_ns: Samples,
    pub read_ns: Samples,
    pub ops: usize,
    pub writes: usize,
    pub wall: Duration,
    /// CPU the whole process used while the window ran.
    pub cpu: Duration,
    /// How slow the machine was while the window ran: the mean of the
    /// ruler samples taken at its two ends.
    pub ruler: f64,
}

/// Everything one connection did in one phase.
#[derive(Debug, Default)]
pub struct Transcript {
    pub answers: Vec<Answer>,
    pub arena: Vec<u8>,
    pub accepted: Vec<Accepted>,
    pub windows: Vec<Window>,
}

impl Transcript {
    pub fn body(&self, answer: &Answer) -> &[u8] {
        &self.arena[answer.body.clone()]
    }

    /// Submit latencies of the whole phase.
    pub fn submits(&self) -> Samples {
        let mut all = Samples::default();
        for w in &self.windows {
            all.extend(&w.submit_ns);
        }
        all
    }
}

/// One blocking keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    framer: Framer,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Self {
            stream,
            framer: Framer::default(),
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    pub fn recv(&mut self, arena: &mut Vec<u8>) -> io::Result<(u16, Range<usize>)> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.framer.next(arena) {
                Ok(Some(frame)) => return Ok(frame),
                Ok(None) => {}
                Err(FrameError(why)) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, why));
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.framer.push(&chunk[..n]);
        }
    }

    /// Runs `ops` closed-loop with `depth` operations in flight:
    /// `depth` requests are written in one piece, then their answers
    /// read in order. At depth 1 each operation is timed from the
    /// write to its answer parsed. A window closes at the first burst
    /// boundary `window` or more operations after it opened. `known`
    /// seeds the accepted list, which must not be empty when the
    /// first burst holds a read. A connection error fails every
    /// operation not yet answered.
    ///
    /// `ruler` is called before the first window and after each, with
    /// no operation in flight and no window open, and answers how slow
    /// the machine is just then (`|| 1.0` where nobody asks).
    pub fn run(
        &mut self,
        wire: &Wire,
        ops: &[Op],
        depth: usize,
        window: usize,
        known: &[Accepted],
        ruler: &mut dyn FnMut() -> f64,
    ) -> Transcript {
        let mut t = Transcript {
            answers: Vec::with_capacity(ops.len()),
            accepted: known.to_vec(),
            ..Transcript::default()
        };
        let mut out = Vec::with_capacity(512 * depth);
        let mut broken = false;
        let mut open = Window::default();
        let mut before = ruler();
        let mut opened = (Instant::now(), process_cpu());
        for burst in ops.chunks(depth) {
            out.clear();
            let targets: Vec<Option<usize>> = burst
                .iter()
                .map(|&op| wire.render(op, &t.accepted, &mut out))
                .collect();
            let sent = Instant::now();
            broken = broken || self.send(&out).is_err();
            for (&op, target) in burst.iter().zip(targets) {
                let (status, body) = match (broken, self.recv(&mut t.arena)) {
                    (false, Ok(frame)) => frame,
                    _ => {
                        broken = true;
                        (0, 0..0)
                    }
                };
                if let (Op::Submit { tenant, .. }, 201) = (op, status) {
                    if let Some(id) = scan_id(&t.arena[body.clone()]) {
                        t.accepted.push(Accepted { id, tenant });
                    }
                }
                if depth == 1 && !broken {
                    match op {
                        Op::Submit { .. } => open.submit_ns.push(sent.elapsed()),
                        Op::Read { .. } => open.read_ns.push(sent.elapsed()),
                    }
                }
                open.ops += 1;
                open.writes += usize::from(matches!(op, Op::Submit { .. }));
                t.answers.push(Answer {
                    op,
                    target,
                    status,
                    body,
                });
            }
            if open.ops >= window || t.answers.len() == ops.len() {
                open.wall = opened.0.elapsed();
                open.cpu = process_cpu() - opened.1;
                let after = ruler();
                open.ruler = (before + after) / 2.0;
                t.windows.push(std::mem::take(&mut open));
                before = after;
                opened = (Instant::now(), process_cpu());
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(keys: &[&str]) -> Wire {
        Wire {
            host: "127.0.0.1:1".to_owned(),
            process: "figure3",
            keys: keys.iter().map(|k| (*k).to_owned()).collect(),
        }
    }

    /// Renders a script the way a connection would, answering every
    /// submit with the next id; returns the bytes and the read picks.
    fn stream_of(seed: u64) -> (Vec<u8>, Vec<usize>) {
        let ops = script(&mut Rng::new(seed, "flex_mix_http"), 200, 2, 2);
        let wire = wire(&["key-aaaa", "key-bbbb"]);
        let mut accepted = Vec::new();
        let mut bytes = Vec::new();
        let mut picks = Vec::new();
        for op in ops {
            if let Some(at) = wire.render(op, &accepted, &mut bytes) {
                picks.push(at);
            }
            if let Op::Submit { tenant, .. } = op {
                accepted.push(Accepted {
                    id: accepted.len() as u64 + 1,
                    tenant,
                });
            }
        }
        (bytes, picks)
    }

    #[test]
    fn same_seed_same_stream_and_picks() {
        assert_eq!(stream_of(1996), stream_of(1996));
    }

    #[test]
    fn different_seed_different_stream() {
        let (a, picks_a) = stream_of(1996);
        let (b, picks_b) = stream_of(1997);
        assert_ne!(a, b);
        assert_ne!(picks_a, picks_b);
    }

    #[test]
    fn script_shape_and_request_bytes() {
        let ops = script(&mut Rng::new(7, "x"), 3, 2, 1);
        assert_eq!(ops.len(), 9);
        assert!(
            matches!(ops[0], Op::Submit { tenant: 0, order } if (100_000..1_000_000).contains(&order))
        );
        assert!(matches!(ops[1], Op::Read { .. }) && matches!(ops[2], Op::Read { .. }));
        assert!(matches!(ops[3], Op::Submit { .. }));

        let mut out = Vec::new();
        wire(&[]).render(
            Op::Submit {
                tenant: 0,
                order: 123_456,
            },
            &[],
            &mut out,
        );
        let text = String::from_utf8(out).unwrap();
        let body = r#"{"process":"figure3","input":{"values":{"order":{"Int":123456}}}}"#;
        assert_eq!(
            text,
            format!(
                "POST /instances HTTP/1.1\r\nhost: 127.0.0.1:1\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
        );

        let mut out = Vec::new();
        let known = [Accepted { id: 42, tenant: 1 }];
        let at = wire(&["ka", "kb"]).render(Op::Read { pick: 9 }, &known, &mut out);
        assert_eq!(at, Some(0));
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "GET /instances/42 HTTP/1.1\r\nhost: 127.0.0.1:1\r\nauthorization: Bearer kb\r\n\r\n"
        );
    }

    const TWO: &[u8] = b"HTTP/1.1 201 Created\r\ncontent-type: application/json\r\ncontent-length: 8\r\nconnection: keep-alive\r\n\r\n{\"id\":7}HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";

    #[test]
    fn framer_handles_every_split_point() {
        for cut in 0..=TWO.len() {
            let mut framer = Framer::default();
            let mut arena = Vec::new();
            let mut frames = Vec::new();
            for piece in [&TWO[..cut], &TWO[cut..]] {
                framer.push(piece);
                while let Some(frame) = framer.next(&mut arena).unwrap() {
                    frames.push(frame);
                }
            }
            assert_eq!(frames, vec![(201, 0..8), (404, 8..8)], "cut at {cut}");
            assert_eq!(arena, b"{\"id\":7}");
        }
    }

    #[test]
    fn framer_byte_at_a_time_and_errors() {
        let mut framer = Framer::default();
        let mut arena = Vec::new();
        let mut seen = 0;
        for b in TWO {
            framer.push(&[*b]);
            while framer.next(&mut arena).unwrap().is_some() {
                seen += 1;
            }
        }
        assert_eq!(seen, 2);

        let mut bad = Framer::default();
        bad.push(b"HTTP/1.1 200 OK\r\nconnection: close\r\n\r\n");
        assert_eq!(bad.next(&mut arena), Err(FrameError("no content-length")));
        let mut bad = Framer::default();
        bad.push(b"SPDY/9 200 OK\r\ncontent-length: 0\r\n\r\n");
        assert_eq!(
            bad.next(&mut arena),
            Err(FrameError("malformed status line"))
        );
    }

    #[test]
    fn scan_id_reads_leading_id() {
        assert_eq!(
            scan_id(br#"{"id":72057594037927937,"status":"finished"}"#),
            Some(72057594037927937)
        );
        assert_eq!(scan_id(br#"{"error":"overloaded"}"#), None);
    }
}
