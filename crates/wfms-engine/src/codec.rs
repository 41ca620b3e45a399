//! The journal's on-disk format: one binary codec, used only by
//! [`crate::journal`].
//!
//! ```text
//! file    := "WFJL" version:u8  frame*
//! frame   := len:u32le  !len:u32le  crc:u32le  payload[len]
//! payload := tag:u8 field*          (one Event; tags 1..=16)
//! ```
//!
//! `crc` is CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of
//! the payload; `!len` is the bitwise complement of `len`, so a damaged
//! length is recognised without trusting it. Fields are written in
//! declaration order with no names: integers as LEB128 varints (`i64`
//! zig-zagged first), `bool` as one byte, strings and byte strings as a
//! varint length plus the bytes (strings are UTF-8, checked on decode),
//! `Option` as a `0`/`1` byte plus the value, sequences and containers
//! as a varint count plus the items.
//!
//! Frames are self-contained — encoding an event never depends on the
//! events before it — so the bytes of N single appends equal the bytes
//! of one batch, and any prefix of a journal file that ends on a frame
//! boundary is itself a journal. Decoding shares one `Arc<str>` per
//! distinct activity path across the whole file.
//!
//! **Torn tails.** A crash mid-append leaves a prefix of a frame (or of
//! the file header) at the end of the file. A frame that is short or
//! fails a check is the torn tail iff no intact frame starts anywhere
//! after it; otherwise it is mid-file corruption and decoding fails
//! with the frame's byte offset.

use crate::event::{Event, InstanceId, InstanceSnapshot, PathStr, WorkItemId};
use crate::state::{ActState, ActivityRt, InstanceStatus, ScopeState};
use crate::worklist::{WorkItem, WorkItemState};
use std::collections::HashSet;
use std::sync::Arc;
use txn_substrate::Value;
use wfms_model::Container;

/// The file header: four magic bytes, then the format version.
pub(crate) const FILE_HEADER: [u8; 5] = *b"WFJL\x01";
const MAGIC_LEN: usize = 4;
/// `len`, `!len`, `crc`.
const FRAME_HEADER: usize = 12;
/// Nesting bound for checkpointed scope trees (blocks within blocks);
/// deeper input is refused rather than recursed into.
const MAX_SCOPE_DEPTH: u32 = 128;

// ---- CRC-32 ----------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---- encoding --------------------------------------------------------

/// Appends `event` to `out` as one complete frame.
///
/// # Panics
/// If the payload exceeds `u32::MAX` bytes (a single event of 4 GiB).
pub(crate) fn encode_frame(event: &Event, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    put_event(out, event);
    let payload = start + FRAME_HEADER;
    let len = u32::try_from(out.len() - payload).expect("journal frame exceeds 4 GiB");
    let crc = crc32(&out[payload..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&(!len).to_le_bytes());
    out[start + 8..payload].copy_from_slice(&crc.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn put_strs(out: &mut Vec<u8>, items: &[String]) {
    put_u64(out, items.len() as u64);
    for s in items {
        put_str(out, s);
    }
}

fn put_container(out: &mut Vec<u8>, c: &Container) {
    put_u64(out, c.len() as u64);
    for (name, value) in c.iter() {
        put_str(out, name);
        match value {
            Value::Int(i) => {
                out.push(0);
                put_i64(out, *i);
            }
            Value::Str(s) => {
                out.push(1);
                put_str(out, s);
            }
            Value::Bool(b) => {
                out.push(2);
                out.push(*b as u8);
            }
            Value::Bytes(b) => {
                out.push(3);
                put_bytes(out, b);
            }
        }
    }
}

fn put_scope(out: &mut Vec<u8>, s: &ScopeState) {
    put_u64(out, s.activities.len() as u64);
    for a in &s.activities {
        out.push(match a.state {
            ActState::Waiting => 0,
            ActState::Ready => 1,
            ActState::Running => 2,
            ActState::Finished => 3,
            ActState::Terminated => 4,
        });
        out.push(a.executed as u8);
        put_u64(out, a.attempt as u64);
        put_container(out, &a.input);
        put_container(out, &a.output);
        match a.ready_since {
            None => out.push(0),
            Some(t) => {
                out.push(1);
                put_u64(out, t);
            }
        }
        out.push(a.notified as u8);
    }
    put_u64(out, s.connectors.len() as u64);
    for c in &s.connectors {
        out.push(match c {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
    }
    put_container(out, &s.input);
    put_container(out, &s.output);
    put_u64(out, s.children.len() as u64);
    for (act, child) in &s.children {
        put_u64(out, *act as u64);
        put_scope(out, child);
    }
}

fn put_event(out: &mut Vec<u8>, event: &Event) {
    match event {
        Event::InstanceStarted {
            instance,
            process,
            tenant,
            input,
            at,
        } => {
            out.push(1);
            put_u64(out, instance.0);
            put_str(out, process);
            put_opt_str(out, tenant);
            put_container(out, input);
            put_u64(out, *at);
        }
        Event::ActivityReady {
            instance,
            path,
            attempt,
            at,
        } => {
            out.push(2);
            put_u64(out, instance.0);
            put_str(out, path);
            put_u64(out, *attempt as u64);
            put_u64(out, *at);
        }
        Event::ActivityStarted {
            instance,
            path,
            attempt,
            by,
            input,
            at,
        } => {
            out.push(3);
            put_u64(out, instance.0);
            put_str(out, path);
            put_u64(out, *attempt as u64);
            put_opt_str(out, by);
            put_container(out, input);
            put_u64(out, *at);
        }
        Event::ActivityFinished {
            instance,
            path,
            attempt,
            output,
            at,
        } => {
            out.push(4);
            put_u64(out, instance.0);
            put_str(out, path);
            put_u64(out, *attempt as u64);
            put_container(out, output);
            put_u64(out, *at);
        }
        Event::ActivityRescheduled {
            instance,
            path,
            next_attempt,
            at,
        } => {
            out.push(5);
            put_u64(out, instance.0);
            put_str(out, path);
            put_u64(out, *next_attempt as u64);
            put_u64(out, *at);
        }
        Event::ActivityTerminated {
            instance,
            path,
            executed,
            at,
        } => {
            out.push(6);
            put_u64(out, instance.0);
            put_str(out, path);
            out.push(*executed as u8);
            put_u64(out, *at);
        }
        Event::ConnectorEvaluated {
            instance,
            scope,
            from,
            to,
            value,
            at,
        } => {
            out.push(7);
            put_u64(out, instance.0);
            put_str(out, scope);
            put_str(out, from);
            put_str(out, to);
            out.push(*value as u8);
            put_u64(out, *at);
        }
        Event::WorkItemOffered {
            instance,
            path,
            item,
            persons,
            at,
        } => {
            out.push(8);
            put_u64(out, instance.0);
            put_str(out, path);
            put_u64(out, item.0);
            put_strs(out, persons);
            put_u64(out, *at);
        }
        Event::WorkItemClaimed { item, person, at } => {
            out.push(9);
            put_u64(out, item.0);
            put_str(out, person);
            put_u64(out, *at);
        }
        Event::NotificationSent {
            instance,
            path,
            person,
            at,
        } => {
            out.push(10);
            put_u64(out, instance.0);
            put_str(out, path);
            put_str(out, person);
            put_u64(out, *at);
        }
        Event::UserIntervention {
            instance,
            path,
            action,
            at,
        } => {
            out.push(11);
            put_u64(out, instance.0);
            put_str(out, path);
            put_str(out, action);
            put_u64(out, *at);
        }
        Event::InstanceFinished {
            instance,
            output,
            at,
        } => {
            out.push(12);
            put_u64(out, instance.0);
            put_container(out, output);
            put_u64(out, *at);
        }
        Event::InstanceCancelled { instance, at } => {
            out.push(13);
            put_u64(out, instance.0);
            put_u64(out, *at);
        }
        Event::TemplateDeployed {
            process,
            version,
            at,
        } => {
            out.push(14);
            put_str(out, process);
            put_str(out, version);
            put_u64(out, *at);
        }
        Event::Migrated {
            instance,
            from,
            to,
            at,
        } => {
            out.push(15);
            put_u64(out, instance.0);
            put_str(out, from);
            put_str(out, to);
            put_u64(out, *at);
        }
        Event::EngineCheckpoint {
            instances,
            items,
            next_instance,
            next_item,
            at,
        } => {
            out.push(16);
            put_u64(out, instances.len() as u64);
            for snap in instances {
                put_u64(out, snap.id.0);
                put_str(out, &snap.process);
                put_opt_str(out, &snap.tenant);
                out.push(match snap.status {
                    InstanceStatus::Running => 0,
                    InstanceStatus::Finished => 1,
                    InstanceStatus::Cancelled => 2,
                });
                put_str(out, &snap.version);
                put_scope(out, &snap.root);
            }
            put_u64(out, items.len() as u64);
            for item in items {
                put_u64(out, item.id.0);
                put_u64(out, item.instance.0);
                put_str(out, &item.path);
                put_u64(out, item.attempt as u64);
                put_strs(out, &item.offered_to);
                match &item.state {
                    WorkItemState::Offered => out.push(0),
                    WorkItemState::Claimed(by) => {
                        out.push(1);
                        put_str(out, by);
                    }
                    WorkItemState::Closed => out.push(2),
                }
                put_u64(out, item.offered_at);
            }
            put_u64(out, *next_instance);
            put_u64(out, *next_item);
            put_u64(out, *at);
        }
    }
}

// ---- decoding --------------------------------------------------------

/// Why a journal file could not be decoded.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum DecodeError {
    /// The file does not open with the journal magic (a JSON-lines
    /// journal from before this format, or not a journal at all).
    NotAJournal,
    /// The magic is right but the version byte is not this build's.
    UnsupportedVersion(u8),
    /// The frame at `offset` is damaged and intact frames follow it, or
    /// its checks pass and its payload is not an event.
    Corrupt { offset: usize, detail: String },
}

/// How the frame at some offset failed its checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameFault {
    /// Fewer bytes remain than a file or frame header has.
    ShortHeader,
    /// `len` and `!len` disagree.
    LengthCheck,
    /// The file ends before the payload does.
    ShortPayload,
    /// The payload's CRC-32 is not the recorded one.
    Checksum,
}

impl FrameFault {
    /// True for the faults a torn write alone cannot explain.
    pub(crate) fn is_checksum(self) -> bool {
        matches!(self, FrameFault::LengthCheck | FrameFault::Checksum)
    }
}

impl std::fmt::Display for FrameFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FrameFault::ShortHeader => "short header",
            FrameFault::LengthCheck => "frame length check mismatch",
            FrameFault::ShortPayload => "short frame",
            FrameFault::Checksum => "frame checksum mismatch",
        })
    }
}

/// A decoded journal file.
#[derive(Debug)]
pub(crate) struct Decoded {
    /// The events of every intact frame, in file order.
    pub(crate) events: Vec<Event>,
    /// Length of the intact prefix: where a torn tail starts (0 when
    /// even the file header is incomplete), else the file length.
    pub(crate) valid_len: usize,
    /// Why the bytes after `valid_len` were dropped, if any were.
    pub(crate) torn: Option<FrameFault>,
}

/// The payload of the frame starting at `pos`, if it passes every check.
fn frame_at(bytes: &[u8], pos: usize) -> Result<&[u8], FrameFault> {
    let rest = &bytes[pos..];
    let Some(header) = rest.first_chunk::<FRAME_HEADER>() else {
        return Err(FrameFault::ShortHeader);
    };
    let word =
        |i: usize| u32::from_le_bytes([header[i], header[i + 1], header[i + 2], header[i + 3]]);
    let len = word(0);
    if word(4) != !len {
        return Err(FrameFault::LengthCheck);
    }
    let payload = rest[FRAME_HEADER..]
        .get(..len as usize)
        .ok_or(FrameFault::ShortPayload)?;
    if crc32(payload) != word(8) {
        return Err(FrameFault::Checksum);
    }
    Ok(payload)
}

/// Decodes a whole journal file. See the module documentation for the
/// torn-tail rule.
pub(crate) fn decode_file(bytes: &[u8]) -> Result<Decoded, DecodeError> {
    let Some(header) = bytes.first_chunk::<{ FILE_HEADER.len() }>() else {
        // Empty, or a crash tore the header of a brand-new journal.
        return if FILE_HEADER.starts_with(bytes) {
            Ok(Decoded {
                events: Vec::new(),
                valid_len: 0,
                torn: (!bytes.is_empty()).then_some(FrameFault::ShortHeader),
            })
        } else {
            Err(DecodeError::NotAJournal)
        };
    };
    if header[..MAGIC_LEN] != FILE_HEADER[..MAGIC_LEN] {
        return Err(DecodeError::NotAJournal);
    }
    if header[MAGIC_LEN] != FILE_HEADER[MAGIC_LEN] {
        return Err(DecodeError::UnsupportedVersion(header[MAGIC_LEN]));
    }
    let mut events = Vec::new();
    let mut paths = HashSet::new();
    let mut pos = FILE_HEADER.len();
    let mut torn = None;
    while pos < bytes.len() {
        match frame_at(bytes, pos) {
            Ok(payload) => {
                let mut r = Reader {
                    buf: payload,
                    paths: &mut paths,
                };
                let event = r
                    .event()
                    .and_then(|e| {
                        if r.buf.is_empty() {
                            Ok(e)
                        } else {
                            Err("trailing bytes")
                        }
                    })
                    .map_err(|detail| DecodeError::Corrupt {
                        offset: pos,
                        detail: format!("undecodable event: {detail}"),
                    })?;
                events.push(event);
                pos += FRAME_HEADER + payload.len();
            }
            Err(fault) => {
                if (pos + 1..bytes.len()).any(|p| frame_at(bytes, p).is_ok()) {
                    return Err(DecodeError::Corrupt {
                        offset: pos,
                        detail: fault.to_string(),
                    });
                }
                torn = Some(fault);
                break;
            }
        }
    }
    Ok(Decoded {
        events,
        valid_len: pos,
        torn,
    })
}

type Field<T> = Result<T, &'static str>;

/// Cursor over one frame's payload.
struct Reader<'a> {
    buf: &'a [u8],
    /// One shared `Arc<str>` per distinct path in the file.
    paths: &'a mut HashSet<Arc<str>>,
}

impl<'a> Reader<'a> {
    fn byte(&mut self) -> Field<u8> {
        let (&b, rest) = self.buf.split_first().ok_or("truncated payload")?;
        self.buf = rest;
        Ok(b)
    }

    fn bool(&mut self) -> Field<bool> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("bool is neither 0 nor 1"),
        }
    }

    fn u64(&mut self) -> Field<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let bits = (b & 0x7F) as u64;
            if shift == 63 && bits > 1 {
                return Err("varint overflows u64");
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("varint longer than 10 bytes")
    }

    fn u32(&mut self) -> Field<u32> {
        u32::try_from(self.u64()?).map_err(|_| "integer overflows u32")
    }

    fn i64(&mut self) -> Field<i64> {
        let z = self.u64()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// A count of items that each take at least one byte: bounded by
    /// what is left, so it is safe to allocate for.
    fn count(&mut self) -> Field<usize> {
        let n = self.u64()?;
        if n > self.buf.len() as u64 {
            return Err("count exceeds payload");
        }
        Ok(n as usize)
    }

    fn bytes(&mut self) -> Field<&'a [u8]> {
        let n = self.count()?;
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn str(&mut self) -> Field<&'a str> {
        std::str::from_utf8(self.bytes()?).map_err(|_| "string is not UTF-8")
    }

    fn string(&mut self) -> Field<String> {
        self.str().map(str::to_owned)
    }

    fn path(&mut self) -> Field<PathStr> {
        let s = self.str()?;
        if let Some(shared) = self.paths.get(s) {
            return Ok(PathStr::from(shared));
        }
        let shared: Arc<str> = Arc::from(s);
        self.paths.insert(Arc::clone(&shared));
        Ok(PathStr::from(shared))
    }

    fn opt_string(&mut self) -> Field<Option<String>> {
        Ok(if self.bool()? {
            Some(self.string()?)
        } else {
            None
        })
    }

    fn strings(&mut self) -> Field<Vec<String>> {
        (0..self.count()?).map(|_| self.string()).collect()
    }

    fn container(&mut self) -> Field<Container> {
        let n = self.count()?;
        if n == 0 {
            return Ok(Container::empty());
        }
        (0..n)
            .map(|_| {
                let name = self.string()?;
                let value = match self.byte()? {
                    0 => Value::Int(self.i64()?),
                    1 => Value::Str(self.string()?),
                    2 => Value::Bool(self.bool()?),
                    3 => Value::Bytes(self.bytes()?.to_vec()),
                    _ => return Err("unknown value tag"),
                };
                Ok((name, value))
            })
            .collect()
    }

    fn scope(&mut self, depth: u32) -> Field<ScopeState> {
        if depth > MAX_SCOPE_DEPTH {
            return Err("scope nesting too deep");
        }
        let activities = (0..self.count()?)
            .map(|_| {
                Ok(ActivityRt {
                    state: match self.byte()? {
                        0 => ActState::Waiting,
                        1 => ActState::Ready,
                        2 => ActState::Running,
                        3 => ActState::Finished,
                        4 => ActState::Terminated,
                        _ => return Err("unknown activity state"),
                    },
                    executed: self.bool()?,
                    attempt: self.u32()?,
                    input: self.container()?,
                    output: self.container()?,
                    ready_since: if self.bool()? {
                        Some(self.u64()?)
                    } else {
                        None
                    },
                    notified: self.bool()?,
                })
            })
            .collect::<Field<_>>()?;
        let connectors = (0..self.count()?)
            .map(|_| match self.byte()? {
                0 => Ok(None),
                1 => Ok(Some(false)),
                2 => Ok(Some(true)),
                _ => Err("unknown connector value"),
            })
            .collect::<Field<_>>()?;
        let input = self.container()?;
        let output = self.container()?;
        let children = (0..self.count()?)
            .map(|_| Ok((self.u32()?, self.scope(depth + 1)?)))
            .collect::<Field<_>>()?;
        Ok(ScopeState {
            activities,
            connectors,
            input,
            output,
            children,
        })
    }

    fn snapshot(&mut self) -> Field<InstanceSnapshot> {
        Ok(InstanceSnapshot {
            id: InstanceId(self.u64()?),
            process: self.string()?,
            tenant: self.opt_string()?,
            status: match self.byte()? {
                0 => InstanceStatus::Running,
                1 => InstanceStatus::Finished,
                2 => InstanceStatus::Cancelled,
                _ => return Err("unknown instance status"),
            },
            version: self.string()?,
            root: self.scope(0)?,
        })
    }

    fn work_item(&mut self) -> Field<WorkItem> {
        Ok(WorkItem {
            id: WorkItemId(self.u64()?),
            instance: InstanceId(self.u64()?),
            path: self.string()?,
            attempt: self.u32()?,
            offered_to: self.strings()?,
            state: match self.byte()? {
                0 => WorkItemState::Offered,
                1 => WorkItemState::Claimed(self.string()?),
                2 => WorkItemState::Closed,
                _ => return Err("unknown work item state"),
            },
            offered_at: self.u64()?,
        })
    }

    fn event(&mut self) -> Field<Event> {
        Ok(match self.byte()? {
            1 => Event::InstanceStarted {
                instance: InstanceId(self.u64()?),
                process: self.string()?,
                tenant: self.opt_string()?,
                input: self.container()?,
                at: self.u64()?,
            },
            2 => Event::ActivityReady {
                instance: InstanceId(self.u64()?),
                path: self.path()?,
                attempt: self.u32()?,
                at: self.u64()?,
            },
            3 => Event::ActivityStarted {
                instance: InstanceId(self.u64()?),
                path: self.path()?,
                attempt: self.u32()?,
                by: self.opt_string()?,
                input: self.container()?,
                at: self.u64()?,
            },
            4 => Event::ActivityFinished {
                instance: InstanceId(self.u64()?),
                path: self.path()?,
                attempt: self.u32()?,
                output: self.container()?,
                at: self.u64()?,
            },
            5 => Event::ActivityRescheduled {
                instance: InstanceId(self.u64()?),
                path: self.path()?,
                next_attempt: self.u32()?,
                at: self.u64()?,
            },
            6 => Event::ActivityTerminated {
                instance: InstanceId(self.u64()?),
                path: self.path()?,
                executed: self.bool()?,
                at: self.u64()?,
            },
            7 => Event::ConnectorEvaluated {
                instance: InstanceId(self.u64()?),
                scope: self.path()?,
                from: self.path()?,
                to: self.path()?,
                value: self.bool()?,
                at: self.u64()?,
            },
            8 => Event::WorkItemOffered {
                instance: InstanceId(self.u64()?),
                path: self.path()?,
                item: WorkItemId(self.u64()?),
                persons: self.strings()?,
                at: self.u64()?,
            },
            9 => Event::WorkItemClaimed {
                item: WorkItemId(self.u64()?),
                person: self.string()?,
                at: self.u64()?,
            },
            10 => Event::NotificationSent {
                instance: InstanceId(self.u64()?),
                path: self.path()?,
                person: self.string()?,
                at: self.u64()?,
            },
            11 => Event::UserIntervention {
                instance: InstanceId(self.u64()?),
                path: self.path()?,
                action: self.string()?,
                at: self.u64()?,
            },
            12 => Event::InstanceFinished {
                instance: InstanceId(self.u64()?),
                output: self.container()?,
                at: self.u64()?,
            },
            13 => Event::InstanceCancelled {
                instance: InstanceId(self.u64()?),
                at: self.u64()?,
            },
            14 => Event::TemplateDeployed {
                process: self.string()?,
                version: self.string()?,
                at: self.u64()?,
            },
            15 => Event::Migrated {
                instance: InstanceId(self.u64()?),
                from: self.string()?,
                to: self.string()?,
                at: self.u64()?,
            },
            16 => Event::EngineCheckpoint {
                instances: (0..self.count()?)
                    .map(|_| self.snapshot())
                    .collect::<Field<_>>()?,
                items: (0..self.count()?)
                    .map(|_| self.work_item())
                    .collect::<Field<_>>()?,
                next_instance: self.u64()?,
                next_item: self.u64()?,
                at: self.u64()?,
            },
            _ => return Err("unknown event tag"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready(n: u64) -> Event {
        Event::ActivityReady {
            instance: InstanceId(n),
            path: "Forward/S1".into(),
            attempt: 0,
            at: n,
        }
    }

    fn file(events: &[Event]) -> Vec<u8> {
        let mut out = FILE_HEADER.to_vec();
        for e in events {
            encode_frame(e, &mut out);
        }
        out
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn varints_and_zigzag_round_trip_at_the_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_u64(&mut out, v);
            let mut paths = HashSet::new();
            let mut r = Reader {
                buf: &out,
                paths: &mut paths,
            };
            assert_eq!(r.u64(), Ok(v));
            assert!(r.buf.is_empty());
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            let mut out = Vec::new();
            put_i64(&mut out, v);
            let mut paths = HashSet::new();
            let mut r = Reader {
                buf: &out,
                paths: &mut paths,
            };
            assert_eq!(r.i64(), Ok(v));
        }
        // Eleven continuation bytes, and a tenth byte with high bits.
        let mut paths = HashSet::new();
        let mut r = Reader {
            buf: &[0xFF; 11],
            paths: &mut paths,
        };
        assert!(r.u64().is_err());
    }

    #[test]
    fn decoded_paths_share_one_allocation() {
        let decoded = decode_file(&file(&[ready(1), ready(2)])).unwrap();
        let [Event::ActivityReady { path: a, .. }, Event::ActivityReady { path: b, .. }] =
            decoded.events.as_slice()
        else {
            panic!("two ready events");
        };
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn zero_filled_tail_is_not_a_run_of_empty_events() {
        // Some file systems leave zero pages after a crash. `len = 0`
        // never passes the `!len` check, so zeros are a torn tail.
        let mut bytes = file(&[ready(1)]);
        let intact = bytes.len();
        bytes.extend_from_slice(&[0; 64]);
        let decoded = decode_file(&bytes).unwrap();
        assert_eq!(decoded.events.len(), 1);
        assert_eq!(decoded.valid_len, intact);
        assert_eq!(decoded.torn, Some(FrameFault::LengthCheck));
    }

    #[test]
    fn intact_frame_with_a_foreign_payload_is_corruption_not_a_tail() {
        let mut bytes = FILE_HEADER.to_vec();
        let payload = [200u8, 1, 2];
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&(!(payload.len() as u32)).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let err = decode_file(&bytes).unwrap_err();
        assert!(
            matches!(&err, DecodeError::Corrupt { offset: 5, detail } if detail.contains("unknown event tag")),
            "{err:?}"
        );
    }

    #[test]
    fn header_rules() {
        assert_eq!(decode_file(b"").unwrap().torn, None);
        let torn = decode_file(b"WFJ").unwrap();
        assert_eq!(
            (torn.valid_len, torn.torn),
            (0, Some(FrameFault::ShortHeader))
        );
        assert_eq!(
            decode_file(b"{\"InstanceStarted\":{}}\n").unwrap_err(),
            DecodeError::NotAJournal
        );
        assert_eq!(decode_file(b"{\"I").unwrap_err(), DecodeError::NotAJournal);
        assert_eq!(
            decode_file(b"WFJL\x02").unwrap_err(),
            DecodeError::UnsupportedVersion(2)
        );
    }

    // ---- property tests ----------------------------------------------

    use proptest::prelude::*;

    /// Empty, ASCII, multi-byte, astral-plane, NUL and quote-bearing
    /// strings.
    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop_oneof![
                Just('a'),
                Just('/'),
                Just('"'),
                Just('\0'),
                Just('λ'),
                Just('—'),
                Just('日'),
                Just('\u{1F600}'),
            ],
            0..6,
        )
        .prop_map(|cs| cs.into_iter().collect())
    }

    fn container() -> impl Strategy<Value = Container> {
        let value = prop_oneof![
            any::<i64>().prop_map(Value::Int),
            text().prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
            prop::collection::vec(any::<u8>(), 0..5).prop_map(Value::Bytes),
        ];
        prop::collection::vec((text(), value), 0..4).prop_map(|kv| kv.into_iter().collect())
    }

    fn scope() -> BoxedStrategy<ScopeState> {
        let activity = (
            0u8..5,
            any::<bool>(),
            any::<u32>(),
            container(),
            container(),
            prop::option::of(any::<u64>()),
            any::<bool>(),
        )
            .prop_map(
                |(state, executed, attempt, input, output, ready_since, notified)| ActivityRt {
                    state: [
                        ActState::Waiting,
                        ActState::Ready,
                        ActState::Running,
                        ActState::Finished,
                        ActState::Terminated,
                    ][state as usize],
                    executed,
                    attempt,
                    input,
                    output,
                    ready_since,
                    notified,
                },
            );
        let flat = (
            prop::collection::vec(activity, 0..3),
            prop::collection::vec(prop::option::of(any::<bool>()), 0..4),
            container(),
            container(),
        );
        let leaf = flat.prop_map(|(activities, connectors, input, output)| ScopeState {
            activities,
            connectors,
            input,
            output,
            children: Vec::new(),
        });
        leaf.boxed().prop_recursive(3, 8, 2, |inner| {
            (
                inner.clone(),
                prop::collection::vec((any::<u32>(), inner), 1..3),
            )
                .prop_map(|(mut scope, children)| {
                    scope.children = children;
                    scope
                })
        })
    }

    fn checkpoint() -> impl Strategy<Value = Event> {
        let snapshot = (
            any::<u64>(),
            text(),
            prop::option::of(text()),
            0u8..3,
            text(),
            scope(),
        )
            .prop_map(
                |(id, process, tenant, status, version, root)| InstanceSnapshot {
                    id: InstanceId(id),
                    process,
                    tenant,
                    status: [
                        InstanceStatus::Running,
                        InstanceStatus::Finished,
                        InstanceStatus::Cancelled,
                    ][status as usize],
                    version,
                    root,
                },
            );
        let state = prop_oneof![
            Just(WorkItemState::Offered),
            text().prop_map(WorkItemState::Claimed),
            Just(WorkItemState::Closed),
        ];
        let item = (
            any::<u64>(),
            any::<u64>(),
            text(),
            any::<u32>(),
            prop::collection::vec(text(), 0..3),
            state,
            any::<u64>(),
        )
            .prop_map(
                |(id, instance, path, attempt, offered_to, state, offered_at)| WorkItem {
                    id: WorkItemId(id),
                    instance: InstanceId(instance),
                    path,
                    attempt,
                    offered_to,
                    state,
                    offered_at,
                },
            );
        (
            prop::collection::vec(snapshot, 0..3),
            prop::collection::vec(item, 0..3),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(|(instances, items, next_instance, next_item, at)| {
                Event::EngineCheckpoint {
                    instances,
                    items,
                    next_instance,
                    next_item,
                    at,
                }
            })
    }

    /// Any of the 16 variants, every optional field both ways.
    fn event() -> impl Strategy<Value = Event> {
        // Every variant draws the same raw material and keeps what it
        // has fields for.
        let raw = (
            (any::<u64>(), any::<u64>(), any::<u32>(), any::<bool>()),
            (text(), text(), text()),
            prop::option::of(text()),
            container(),
            prop::collection::vec(text(), 0..3),
        );
        let plain = (0u8..15, raw).prop_map(|(variant, raw)| {
            let ((id, at, attempt, flag), (a, b, c), opt, container, persons) = raw;
            let instance = InstanceId(id);
            let path = PathStr::from(a.as_str());
            match variant {
                0 => Event::InstanceStarted {
                    instance,
                    process: a,
                    tenant: opt,
                    input: container,
                    at,
                },
                1 => Event::ActivityReady {
                    instance,
                    path,
                    attempt,
                    at,
                },
                2 => Event::ActivityStarted {
                    instance,
                    path,
                    attempt,
                    by: opt,
                    input: container,
                    at,
                },
                3 => Event::ActivityFinished {
                    instance,
                    path,
                    attempt,
                    output: container,
                    at,
                },
                4 => Event::ActivityRescheduled {
                    instance,
                    path,
                    next_attempt: attempt,
                    at,
                },
                5 => Event::ActivityTerminated {
                    instance,
                    path,
                    executed: flag,
                    at,
                },
                6 => Event::ConnectorEvaluated {
                    instance,
                    scope: path,
                    from: b.into(),
                    to: c.into(),
                    value: flag,
                    at,
                },
                7 => Event::WorkItemOffered {
                    instance,
                    path,
                    item: WorkItemId(attempt as u64),
                    persons,
                    at,
                },
                8 => Event::WorkItemClaimed {
                    item: WorkItemId(id),
                    person: b,
                    at,
                },
                9 => Event::NotificationSent {
                    instance,
                    path,
                    person: b,
                    at,
                },
                10 => Event::UserIntervention {
                    instance,
                    path,
                    action: b,
                    at,
                },
                11 => Event::InstanceFinished {
                    instance,
                    output: container,
                    at,
                },
                12 => Event::InstanceCancelled { instance, at },
                13 => Event::TemplateDeployed {
                    process: a,
                    version: b,
                    at,
                },
                _ => Event::Migrated {
                    instance,
                    from: b,
                    to: c,
                    at,
                },
            }
        });
        let plain = plain.boxed();
        prop_oneof![plain.clone(), plain.clone(), plain, checkpoint().boxed()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every event survives encode → decode, alone and in a file.
        #[test]
        fn events_round_trip(events in prop::collection::vec(event(), 0..6)) {
            let bytes = file(&events);
            let decoded = decode_file(&bytes).unwrap();
            prop_assert_eq!(&decoded.events, &events);
            prop_assert_eq!(decoded.valid_len, bytes.len());
            prop_assert_eq!(decoded.torn, None);
        }

        /// Every byte prefix of a file decodes to a prefix of its
        /// events: whole frames survive, at most one partial frame is
        /// reported torn, nothing is ever an error.
        #[test]
        fn byte_prefixes_decode_to_event_prefixes(events in prop::collection::vec(event(), 1..4)) {
            let bytes = file(&events);
            let ends: Vec<usize> = (0..=events.len()).map(|k| file(&events[..k]).len()).collect();
            for cut in 0..bytes.len() {
                let decoded = decode_file(&bytes[..cut]).unwrap();
                let k = ends.iter().filter(|&&end| end <= cut).count().saturating_sub(1);
                prop_assert_eq!(&decoded.events, &events[..k]);
                let boundary = cut == 0 || ends.contains(&cut);
                prop_assert_eq!(decoded.torn.is_none(), boundary);
                prop_assert_eq!(decoded.valid_len, if cut < ends[0] { 0 } else { ends[k] });
            }
        }

        /// Any single flipped bit after the file header: in the last
        /// frame it is a torn tail at that frame, in an earlier frame
        /// it is corruption at that frame's offset.
        #[test]
        fn flipped_bits_are_torn_or_corrupt_never_silent(
            events in prop::collection::vec(event(), 1..4),
            at in any::<usize>(),
            bit in 0u8..8,
        ) {
            let mut bytes = file(&events);
            let starts: Vec<usize> = (0..events.len()).map(|k| file(&events[..k]).len()).collect();
            let at = starts[0] + at % (bytes.len() - starts[0]);
            bytes[at] ^= 1 << bit;
            let frame = starts.iter().rposition(|&s| s <= at).unwrap();
            match decode_file(&bytes) {
                Ok(decoded) => {
                    prop_assert_eq!(frame, events.len() - 1);
                    prop_assert_eq!(&decoded.events, &events[..frame]);
                    prop_assert_eq!(decoded.valid_len, starts[frame]);
                    prop_assert!(decoded.torn.is_some_and(FrameFault::is_checksum));
                }
                Err(DecodeError::Corrupt { offset, .. }) => {
                    prop_assert!(frame < events.len() - 1);
                    prop_assert_eq!(offset, starts[frame]);
                }
                Err(other) => prop_assert!(false, "unexpected {other:?}"),
            }
        }
    }
}
