//! The on-disk format of every log in the workspace: a file header,
//! then checksummed frames, each holding the records of one group
//! commit.
//!
//! ```text
//! file    := magic[4] version:u8  frame*      version = 2 (1 still read)
//! frame   := len:u32le  !len:u32le  crc:u32le  payload[len]
//! payload := record+                          one policy group; a checkpoint opens a frame
//! name    := varint x   x = 2·len → literal, becomes the frame's next name
//!                       x = 2·i+1 → the frame's i-th name
//! ```
//!
//! `crc` is CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of
//! the payload; `!len` is the bitwise complement of `len`, so a damaged
//! length is recognised without trusting it. What a record holds is the
//! record type's business ([`Record`]); this module supplies the
//! primitives records are built from: integers as LEB128 varints
//! (`i64` zig-zagged first), `bool` as one byte, strings and byte
//! strings as a varint length plus the bytes (strings are UTF-8,
//! checked on decode), `Option` as a `0`/`1` byte plus the value,
//! [`Value`] as a tag byte plus its payload, and names.
//!
//! **A frame is a group commit.** The [`Encoder`] puts every record
//! appended between two barriers of the log into one frame (exactly
//! one record under `PerEvent`); under `Batched` frames split nowhere
//! else but at openers and at the writer's byte cap. A checkpoint
//! record always opens a frame, so the frame a checkpoint starts is
//! where compaction's byte copy begins; so does a record that says it
//! opens one ([`Record::opens_frame`]: the journal's `InstanceStarted`),
//! so that how barriers happened to group whole units of work does not
//! change their bytes. Until it is written, a log's buffer of frames is
//! all it keeps of those records. [`file_bytes`] writes one record per
//! frame, as `PerEvent` does.
//!
//! **Names are frame-local.** A name ([`put_name`], [`Reader::name`]) is
//! spelled out the first time a frame holds it and referred to by its
//! index after that; the encoder finds it in a fixed open-addressing
//! table cleared per frame, keyed by the name's bytes, so a frame's
//! bytes depend only on its records. Once the table is full, later
//! names are spelled out. A frame decodes without any other frame.
//!
//! **Version 1** wrote one record per frame and every name spelled out
//! as a plain string. It is still read — the only difference is one
//! branch in [`Reader::name`] — and never written: a log opened for
//! append is rewritten in the current version first.
//!
//! **Sharing on decode.** What repeats across a file — activity paths,
//! member names, whole containers — is built once per pass: the pass
//! keeps one table keyed by encoded bytes ([`Reader::shared_str`],
//! [`Reader::shared_params`]), and every later occurrence of the same
//! bytes is a reference-count bump, with no UTF-8 check (those bytes
//! were checked when first seen). The table's keys are slices of the
//! file and it lives for one pass, so it is bounded by the file. A
//! name's literal goes through the same table.
//!
//! **Torn tails.** A crash mid-append leaves a prefix of a frame (or of
//! the file header) at the end of the file. A frame that is short or
//! fails a check is the torn tail iff no intact frame starts anywhere
//! after it; otherwise it is mid-file corruption and decoding fails
//! with the frame's byte offset. A torn frame loses all its records,
//! never some of them.

use crate::params::{no_params, Params};
use crate::value::Value;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

const MAGIC_LEN: usize = 4;
/// Four magic bytes, then the format version.
pub const FILE_HEADER_LEN: usize = MAGIC_LEN + 1;
/// `len`, `!len`, `crc`.
pub(crate) const FRAME_HEADER: usize = 12;
/// The format before frames were groups and names frame-local: read,
/// never written.
const VERSION_1: u8 = 1;

/// One kind of log record: its file's header and its payload codec.
pub trait Record: Sized {
    /// The file header: four magic bytes, then the format version.
    const HEADER: [u8; FILE_HEADER_LEN];
    /// What a file of these records is called in error messages.
    const NAME: &'static str;
    /// The error text for a file at `path` that does not open with
    /// [`Record::HEADER`]'s magic.
    fn not_this_log(path: &Path) -> String;
    /// Appends this record to `out`, the payload of an open frame whose
    /// names so far are `names` ([`put_name`]).
    fn encode(&self, out: &mut Vec<u8>, names: &mut Names);
    /// Reads one record from a frame's payload.
    fn decode(r: &mut Reader<'_, '_>) -> Field<Self>;
    /// True for a record that makes every record before it redundant:
    /// compaction drops everything before the last one. It opens a frame.
    fn is_checkpoint(&self) -> bool;
    /// True for a record that opens a frame wherever the flushes fall —
    /// the first record of a unit of work, such as the journal's
    /// `InstanceStarted` — so that how a flush grouped such units does
    /// not change the bytes they are written as.
    fn opens_frame(&self) -> bool {
        false
    }
}

// ---- CRC-32 ----------------------------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the byte-at-a-time table,
/// `CRC_TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes —
/// eight lookups then advance the checksum by eight bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks of 8")) ^ c as u64;
        c = (0..8).fold(0, |c, i| c ^ t[7 - i][(word >> (8 * i)) as usize & 0xFF]);
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---- encoding --------------------------------------------------------

/// Most names a frame spells once and refers back to.
const MAX_NAMES: usize = 128;
/// Slots of the name table: twice [`MAX_NAMES`], a power of two, so a
/// probe always ends at an empty slot.
const SLOTS: usize = 2 * MAX_NAMES;

/// The names the open frame has spelled out, found by their bytes: a
/// fixed open-addressing table over the frame's own buffer, cleared
/// when the next frame opens. Looking a name up allocates nothing.
pub struct Names {
    /// `0` for an empty slot, else the name's index plus one.
    slots: [u8; SLOTS],
    /// Each name's bytes, from `base`, and its slot.
    spans: [Span; MAX_NAMES],
    len: usize,
    /// Where the frame's payload starts in the buffer being encoded.
    base: usize,
}

#[derive(Clone, Copy, Default)]
struct Span {
    start: usize,
    len: usize,
    slot: usize,
}

impl Default for Names {
    fn default() -> Self {
        Self {
            slots: [0; SLOTS],
            spans: [Span::default(); MAX_NAMES],
            len: 0,
            base: 0,
        }
    }
}

impl std::fmt::Debug for Names {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Names").field("len", &self.len).finish()
    }
}

impl Names {
    /// Forgets every name: the frame whose payload starts at `base`
    /// spells its own.
    fn clear(&mut self, base: usize) {
        for span in &self.spans[..self.len] {
            self.slots[span.slot] = 0;
        }
        (self.len, self.base) = (0, base);
    }
}

/// FNV-1a.
fn hash(bytes: &[u8]) -> usize {
    bytes.iter().fold(0x811C_9DC5u32, |h, &b| {
        (h ^ b as u32).wrapping_mul(0x0100_0193)
    }) as usize
}

/// A name — an activity path, a process, a user — into `out`, the
/// payload of the frame whose names are `names`: `2·i + 1` if it is the
/// frame's `i`-th name, else `2·len` and its UTF-8 bytes, which makes it
/// the frame's next name while the table has room.
pub fn put_name(out: &mut Vec<u8>, names: &mut Names, name: &str) {
    let bytes = name.as_bytes();
    let mut slot = hash(bytes) & (SLOTS - 1);
    while let Some(i) = names.slots[slot].checked_sub(1) {
        let span = names.spans[i as usize];
        let start = names.base + span.start;
        if out.get(start..start + span.len) == Some(bytes) {
            put_u64(out, 2 * i as u64 + 1);
            return;
        }
        slot = (slot + 1) & (SLOTS - 1);
    }
    put_u64(out, 2 * bytes.len() as u64);
    let start = out.len() - names.base;
    out.extend_from_slice(bytes);
    if names.len < MAX_NAMES {
        names.spans[names.len] = Span {
            start,
            len: bytes.len(),
            slot,
        };
        names.len += 1;
        names.slots[slot] = names.len as u8;
    }
}

/// Frames records into a byte buffer: a record joins the open frame
/// unless it opens one ([`Record::is_checkpoint`],
/// [`Record::opens_frame`]) or the frame is full, and `Encoder::seal`
/// closes the frame at a barrier, writing its header.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
    /// The open frame: where its header starts in `buf`, and how many
    /// records it holds.
    open: Option<(usize, usize)>,
    /// Boxed: only a log with a file encodes, and the table is 3 KiB.
    names: Box<Names>,
}

impl Encoder {
    /// An encoder whose buffer starts with `head` (a file header, or
    /// nothing).
    pub fn new(head: &[u8]) -> Self {
        Self {
            buf: head.to_vec(),
            ..Self::default()
        }
    }

    /// Encodes `rec` into the open frame, opening one first if none is
    /// open, if `rec` opens one or if the open frame holds `most`
    /// records already. Returns the byte offset in the buffer of the
    /// frame `rec` went into.
    pub fn push<R: Record>(&mut self, rec: &R, most: usize) -> usize {
        let opens = rec.is_checkpoint() || rec.opens_frame();
        if opens || self.open_records() >= most {
            self.seal();
        }
        let (start, records) = *self.open.get_or_insert_with(|| {
            self.buf.extend_from_slice(&[0; FRAME_HEADER]);
            self.names.clear(self.buf.len());
            (self.buf.len() - FRAME_HEADER, 0)
        });
        rec.encode(&mut self.buf, &mut self.names);
        self.open = Some((start, records + 1));
        start
    }

    /// Closes the open frame, if there is one: writes its header.
    pub(crate) fn seal(&mut self) {
        if let Some((start, _)) = self.open.take() {
            seal_at(&mut self.buf, start);
        }
    }

    /// Records in the open frame (0 if none is open).
    fn open_records(&self) -> usize {
        self.open.map_or(0, |(_, records)| records)
    }

    /// The buffer: sealed frames, then the open one (its header not yet
    /// written).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// `head`, then a copy of the buffer with the open frame sealed in
    /// the copy: the frames as a file would hold them, while this
    /// encoder keeps its frame open.
    pub(crate) fn sealed_copy(&self, head: &[u8]) -> Vec<u8> {
        let mut copy = Vec::with_capacity(head.len() + self.buf.len());
        copy.extend_from_slice(head);
        copy.extend_from_slice(&self.buf);
        if let Some((start, _)) = self.open {
            seal_at(&mut copy, head.len() + start);
        }
        copy
    }

    /// Drops every frame, keeping the buffer's allocation.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.open = None;
    }

    /// Seals the open frame and hands over the buffer.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        self.seal();
        self.buf
    }
}

/// Writes the header of the frame whose header starts at `start` in
/// `buf` and whose payload runs to the end of `buf`.
///
/// # Panics
/// If the payload exceeds `u32::MAX` bytes (a frame of 4 GiB).
fn seal_at(buf: &mut [u8], start: usize) {
    let payload = start + FRAME_HEADER;
    let len = u32::try_from(buf.len() - payload).expect("log frame exceeds 4 GiB");
    let crc = crc32(&buf[payload..]);
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..start + 8].copy_from_slice(&(!len).to_le_bytes());
    buf[start + 8..payload].copy_from_slice(&crc.to_le_bytes());
}

/// Appends `rec` to `out` as a frame of its own.
pub fn encode_frame<R: Record>(rec: &R, out: &mut Vec<u8>) {
    let mut frames = Encoder {
        buf: std::mem::take(out),
        ..Encoder::default()
    };
    frames.push(rec, 1);
    *out = frames.finish();
}

/// The bytes of a log file holding exactly `records`, one frame each,
/// as a log under `PerEvent` writes them. Any prefix of `records`
/// encodes to a prefix of these bytes.
pub fn file_bytes<R: Record>(records: &[R]) -> Vec<u8> {
    let mut frames = Encoder::new(&R::HEADER);
    for rec in records {
        frames.push(rec, 1);
    }
    frames.finish()
}

/// LEB128 varint.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Zig-zag, then varint.
fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Varint length, then the bytes.
fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Varint length, then the UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A `0` byte, or a `1` byte and then whatever `put` writes.
pub fn put_opt<T>(out: &mut Vec<u8>, v: &Option<T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put(out, v);
        }
    }
}

/// A tag byte (`Int` 0, `Str` 1, `Bool` 2, `Bytes` 3), then the value.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
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

// ---- decoding --------------------------------------------------------

/// Why a log file could not be decoded.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The file does not open with the record type's magic.
    NotThisLog,
    /// The magic is right but the version byte is neither this build's
    /// nor version 1.
    UnsupportedVersion(u8),
    /// The frame at `offset` is damaged and intact frames follow it, or
    /// its checks pass and its payload is not a record.
    Corrupt {
        /// Byte offset of the frame in the file.
        offset: usize,
        /// What failed.
        detail: String,
    },
}

/// How the frame at some offset failed its checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
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
    pub fn is_checksum(self) -> bool {
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

/// A decoded log file.
#[derive(Debug, Default)]
pub struct Decoded<T> {
    /// The records of every intact frame, in file order: themselves
    /// from [`decode_file`], their number from [`visit_file`], which
    /// keeps none.
    pub records: T,
    /// Length of the intact prefix: where a torn tail starts (0 when
    /// even the file header is incomplete), else the file length.
    pub valid_len: usize,
    /// Why the bytes after `valid_len` were dropped, if any were.
    pub torn: Option<FrameFault>,
    /// The file is in version 1 of the format: readable, but a log
    /// rewrites it before appending.
    pub older: bool,
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

/// Decodes a whole log file frame by frame, handing each record and its
/// frame's byte offset to `visit` as it is decoded — nothing is kept.
/// See the module documentation for the torn-tail rule: a torn frame
/// gives none of its records.
pub fn visit_file<R: Record>(
    bytes: &[u8],
    mut visit: impl FnMut(usize, R),
) -> Result<Decoded<usize>, DecodeError> {
    let Some(header) = bytes.first_chunk::<FILE_HEADER_LEN>() else {
        // Empty, or a crash tore the header of a brand-new log.
        return if R::HEADER.starts_with(bytes) {
            Ok(Decoded {
                torn: (!bytes.is_empty()).then_some(FrameFault::ShortHeader),
                ..Decoded::default()
            })
        } else {
            Err(DecodeError::NotThisLog)
        };
    };
    if header[..MAGIC_LEN] != R::HEADER[..MAGIC_LEN] {
        return Err(DecodeError::NotThisLog);
    }
    let version = header[MAGIC_LEN];
    if version != R::HEADER[MAGIC_LEN] && version != VERSION_1 {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let mut shared = Shared {
        v1: version == VERSION_1,
        ..Shared::default()
    };
    let mut found = Decoded {
        valid_len: FILE_HEADER_LEN,
        older: shared.v1,
        ..Decoded::default()
    };
    while found.valid_len < bytes.len() {
        let pos = found.valid_len;
        match frame_at(bytes, pos) {
            Ok(payload) => {
                shared.names.clear();
                let mut r = Reader::new(payload, &mut shared);
                loop {
                    let rec = R::decode(&mut r).map_err(|detail| DecodeError::Corrupt {
                        offset: pos,
                        detail: format!("undecodable record: {detail}"),
                    })?;
                    visit(pos, rec);
                    found.records += 1;
                    if r.is_empty() {
                        break;
                    }
                }
                found.valid_len += FRAME_HEADER + payload.len();
            }
            Err(fault) => {
                if (pos + 1..bytes.len()).any(|p| frame_at(bytes, p).is_ok()) {
                    return Err(DecodeError::Corrupt {
                        offset: pos,
                        detail: fault.to_string(),
                    });
                }
                found.torn = Some(fault);
                break;
            }
        }
    }
    Ok(found)
}

/// [`visit_file`], keeping every record.
pub fn decode_file<R: Record>(bytes: &[u8]) -> Result<Decoded<Vec<R>>, DecodeError> {
    let mut records = Vec::new();
    let found = visit_file(bytes, |_, rec| records.push(rec))?;
    Ok(Decoded {
        records,
        valid_len: found.valid_len,
        torn: found.torn,
        older: found.older,
    })
}

/// What reading one field of a payload gives: the value, or why the
/// payload is not a record.
pub type Field<T> = Result<T, &'static str>;

/// What one pass over a file has built of its repeated values, by
/// their encoded bytes (see the module documentation), and the names
/// of the frame it is in.
#[derive(Default)]
struct Shared<'f> {
    strs: HashMap<&'f [u8], Arc<str>>,
    params: HashMap<&'f [u8], Params>,
    /// The current frame's names, in the order it spelled them out.
    names: Vec<Arc<str>>,
    /// The file is in version 1: names are plain strings.
    v1: bool,
}

/// Cursor over one frame's payload, a slice of a file (`'f`) read with
/// the pass's table of shared values.
pub struct Reader<'f, 't> {
    buf: &'f [u8],
    shared: &'t mut Shared<'f>,
}

impl<'f, 't> Reader<'f, 't> {
    /// A cursor at the start of `payload`; `shared` outlives the
    /// payloads of one file.
    fn new(payload: &'f [u8], shared: &'t mut Shared<'f>) -> Self {
        Self {
            buf: payload,
            shared,
        }
    }

    /// True once every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One byte.
    pub fn byte(&mut self) -> Field<u8> {
        let (&b, rest) = self.buf.split_first().ok_or("truncated payload")?;
        self.buf = rest;
        Ok(b)
    }

    /// One byte, `0` or `1`.
    pub fn bool(&mut self) -> Field<bool> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("bool is neither 0 nor 1"),
        }
    }

    /// A varint.
    pub fn u64(&mut self) -> Field<u64> {
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

    /// A varint that fits `u32`.
    pub fn u32(&mut self) -> Field<u32> {
        u32::try_from(self.u64()?).map_err(|_| "integer overflows u32")
    }

    /// A zig-zagged varint.
    pub fn i64(&mut self) -> Field<i64> {
        let z = self.u64()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// A count of items that each take at least one byte: bounded by
    /// what is left, so it is safe to allocate for.
    pub fn count(&mut self) -> Field<usize> {
        let n = self.u64()?;
        if n > self.buf.len() as u64 {
            return Err("count exceeds payload");
        }
        Ok(n as usize)
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self) -> Field<&'f [u8]> {
        let n = self.u64()?;
        self.take(n)
    }

    /// The next `n` bytes.
    fn take(&mut self, n: u64) -> Field<&'f [u8]> {
        if n > self.buf.len() as u64 {
            return Err("count exceeds payload");
        }
        let (head, rest) = self.buf.split_at(n as usize);
        self.buf = rest;
        Ok(head)
    }

    /// A length-prefixed UTF-8 string, borrowed from the payload.
    pub fn str(&mut self) -> Field<&'f str> {
        std::str::from_utf8(self.bytes()?).map_err(|_| "string is not UTF-8")
    }

    /// A length-prefixed UTF-8 string, owned.
    pub fn string(&mut self) -> Field<String> {
        self.str().map(str::to_owned)
    }

    /// A string that repeats across the file: every occurrence of the
    /// same bytes shares one allocation, and only the first is checked
    /// for UTF-8.
    pub fn shared_str(&mut self) -> Field<Arc<str>> {
        let bytes = self.bytes()?;
        self.share(bytes)
    }

    /// A name ([`put_name`]): a back-reference resolves to the frame's
    /// name of that index, a literal is a [`Reader::shared_str`] that
    /// becomes the frame's next name. In a version-1 file a name is a
    /// plain string.
    pub fn name(&mut self) -> Field<Arc<str>> {
        let x = self.u64()?;
        if self.shared.v1 {
            let bytes = self.take(x)?;
            return self.share(bytes);
        }
        if x & 1 == 1 {
            let i = usize::try_from(x >> 1).map_err(|_| "name index out of range")?;
            return self
                .shared
                .names
                .get(i)
                .cloned()
                .ok_or("name index out of range");
        }
        let bytes = self.take(x >> 1)?;
        let name = self.share(bytes)?;
        self.shared.names.push(Arc::clone(&name));
        Ok(name)
    }

    /// The one `Arc<str>` of the pass for `bytes`, checked for UTF-8 the
    /// first time they are seen.
    fn share(&mut self, bytes: &'f [u8]) -> Field<Arc<str>> {
        if let Some(shared) = self.shared.strs.get(bytes) {
            return Ok(Arc::clone(shared));
        }
        let shared: Arc<str> = std::str::from_utf8(bytes)
            .map_err(|_| "string is not UTF-8")?
            .into();
        self.shared.strs.insert(bytes, Arc::clone(&shared));
        Ok(shared)
    }

    /// Named values — a varint count, then each name (a
    /// [`Reader::shared_str`]) and its [`Value`] — that repeat across
    /// the file: every occurrence of the same encoded map shares one
    /// [`Params`], built the first time, and an empty map is
    /// [`no_params`].
    pub fn shared_params(&mut self) -> Field<Params> {
        let start = self.buf;
        let n = self.count()?;
        if n == 0 {
            return Ok(no_params());
        }
        for _ in 0..n {
            self.bytes()?;
            self.skip_value()?;
        }
        let encoded = &start[..start.len() - self.buf.len()];
        if let Some(shared) = self.shared.params.get(encoded) {
            return Ok(shared.clone());
        }
        let mut r = Reader::new(encoded, self.shared);
        r.count()?;
        // Encoders write maps in name order, which `collect` takes as
        // it is; any other order is sorted, the last of a name winning.
        let shared: Params = (0..n)
            .map(|_| Ok((r.shared_str()?, r.value()?)))
            .collect::<Field<_>>()?;
        self.shared.params.insert(encoded, shared.clone());
        Ok(shared)
    }

    /// A presence byte, then what `get` reads if it is `1`.
    pub fn opt<T>(&mut self, get: impl FnOnce(&mut Self) -> Field<T>) -> Field<Option<T>> {
        Ok(if self.bool()? { Some(get(self)?) } else { None })
    }

    /// A tagged [`Value`].
    pub fn value(&mut self) -> Field<Value> {
        Ok(match self.byte()? {
            0 => Value::Int(self.i64()?),
            1 => Value::Str(self.string()?),
            2 => Value::Bool(self.bool()?),
            3 => Value::Bytes(self.bytes()?.to_vec()),
            _ => return Err("unknown value tag"),
        })
    }

    /// Steps over a tagged [`Value`], checking only its extent.
    fn skip_value(&mut self) -> Field<()> {
        match self.byte()? {
            0 => self.u64().map(drop),
            1 | 3 => self.bytes().map(drop),
            2 => self.byte().map(drop),
            _ => Err("unknown value tag"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest record type: one varint.
    #[derive(Debug, PartialEq)]
    struct Num(u64);

    impl Record for Num {
        const HEADER: [u8; FILE_HEADER_LEN] = *b"NUMS\x02";
        const NAME: &'static str = "number log";
        fn not_this_log(path: &Path) -> String {
            format!("{} is not a number log", path.display())
        }
        fn encode(&self, out: &mut Vec<u8>, _: &mut Names) {
            put_u64(out, self.0);
        }
        fn decode(r: &mut Reader<'_, '_>) -> Field<Self> {
            r.u64().map(Num)
        }
        fn is_checkpoint(&self) -> bool {
            false
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop `crc32` replaced, kept as its reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Eight bytes at a time computes what one byte at a time does,
        /// at every length and every alignment of the slice.
        #[test]
        fn crc32_by_slices_equals_crc32_by_bytes(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4097 + 7),
        ) {
            for skip in 0..8.min(bytes.len() + 1) {
                let slice = &bytes[skip..];
                proptest::prop_assert_eq!(crc32(slice), crc32_bytewise(slice), "skip {}", skip);
            }
        }
    }

    #[test]
    fn varints_and_zigzag_round_trip_at_the_edges() {
        /// What `get` reads from `bytes`, and whether that was all.
        fn read<T>(
            bytes: &[u8],
            get: impl Fn(&mut Reader<'_, '_>) -> Field<T>,
        ) -> Field<(T, bool)> {
            let mut shared = Shared::default();
            let mut r = Reader::new(bytes, &mut shared);
            get(&mut r).map(|v| (v, r.is_empty()))
        }
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_u64(&mut out, v);
            assert_eq!(read(&out, |r| r.u64()), Ok((v, true)));
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            let mut out = Vec::new();
            put_i64(&mut out, v);
            assert_eq!(read(&out, |r| r.i64()), Ok((v, true)));
        }
        // Eleven continuation bytes, and a tenth byte with high bits.
        assert!(read(&[0xFF; 11], |r| r.u64()).is_err());
    }

    #[test]
    fn zero_filled_tail_is_not_a_run_of_empty_records() {
        // Some file systems leave zero pages after a crash. `len = 0`
        // never passes the `!len` check, so zeros are a torn tail.
        let mut bytes = file_bytes(&[Num(1)]);
        let intact = bytes.len();
        bytes.extend_from_slice(&[0; 64]);
        let decoded = decode_file::<Num>(&bytes).unwrap();
        assert_eq!(decoded.records, [Num(1)]);
        assert_eq!(decoded.valid_len, intact);
        assert_eq!(decoded.torn, Some(FrameFault::LengthCheck));
    }

    #[test]
    fn intact_frame_with_a_foreign_payload_is_corruption_not_a_tail() {
        let mut bytes = Num::HEADER.to_vec();
        let payload = [0x80u8, 0x80];
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&(!(payload.len() as u32)).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let err = decode_file::<Num>(&bytes).unwrap_err();
        assert!(
            matches!(&err, DecodeError::Corrupt { offset: 5, detail } if detail.contains("truncated payload")),
            "{err:?}"
        );
    }

    #[test]
    fn header_rules() {
        assert_eq!(decode_file::<Num>(b"").unwrap().torn, None);
        let torn = decode_file::<Num>(b"NUM").unwrap();
        assert_eq!(
            (torn.valid_len, torn.torn),
            (0, Some(FrameFault::ShortHeader))
        );
        assert_eq!(
            decode_file::<Num>(b"{\"Begin\":{}}\n").unwrap_err(),
            DecodeError::NotThisLog
        );
        assert_eq!(
            decode_file::<Num>(b"{\"B").unwrap_err(),
            DecodeError::NotThisLog
        );
        assert_eq!(
            decode_file::<Num>(b"NUMS\x03").unwrap_err(),
            DecodeError::UnsupportedVersion(3)
        );
        assert!(decode_file::<Num>(b"NUMS\x01").unwrap().older);
        assert!(!decode_file::<Num>(b"NUMS\x02").unwrap().older);
    }

    /// A list of names; `[]` is a checkpoint.
    #[derive(Debug, PartialEq)]
    struct Said(Vec<String>);

    impl Record for Said {
        const HEADER: [u8; FILE_HEADER_LEN] = *b"SAID\x02";
        const NAME: &'static str = "name log";
        fn not_this_log(path: &Path) -> String {
            format!("{} is not a name log", path.display())
        }
        fn encode(&self, out: &mut Vec<u8>, names: &mut Names) {
            put_u64(out, self.0.len() as u64);
            for name in &self.0 {
                put_name(out, names, name);
            }
        }
        fn decode(r: &mut Reader<'_, '_>) -> Field<Self> {
            let n = r.count()?;
            (0..n)
                .map(|_| r.name().map(|s| s.to_string()))
                .collect::<Field<_>>()
                .map(Said)
        }
        fn is_checkpoint(&self) -> bool {
            self.0.is_empty()
        }
    }

    fn said(names: &[&str]) -> Said {
        Said(names.iter().map(|&s| s.to_owned()).collect())
    }

    /// Records in one frame spell a name once; a frame of its own
    /// spells it again, and a checkpoint always opens a frame.
    #[test]
    fn a_frame_spells_each_name_once() {
        let mut frames = Encoder::new(&Said::HEADER);
        assert_eq!(
            frames.push(&said(&["Forward/S1", "x"]), 64),
            FILE_HEADER_LEN
        );
        assert_eq!(frames.push(&said(&["Forward/S1"]), 64), FILE_HEADER_LEN);
        let checkpoint = frames.push(&said(&[]), 64);
        assert_eq!(frames.push(&said(&["Forward/S1"]), 64), checkpoint);
        let bytes = frames.finish();
        let header = FILE_HEADER_LEN + FRAME_HEADER;
        // count, 2·10 "Forward/S1", 2·1 "x"; count, ref 0 (2·0 + 1).
        let mut first = vec![2, 20];
        first.extend_from_slice(b"Forward/S1");
        first.extend_from_slice(&[2, b'x', 1, 1]);
        assert_eq!(bytes[header..header + first.len()], first);
        assert_eq!(checkpoint, header + first.len());
        let decoded = decode_file::<Said>(&bytes).unwrap();
        let expect = [
            said(&["Forward/S1", "x"]),
            said(&["Forward/S1"]),
            said(&[]),
            said(&["Forward/S1"]),
        ];
        assert_eq!(decoded.records, expect);
        assert_eq!(
            file_bytes(&expect).len(),
            bytes.len() + 2 * FRAME_HEADER + 10,
            "four frames, not two: two more headers, and the second record spells the path"
        );
    }

    /// Empty, non-ASCII and long names round-trip, and so does a frame
    /// with more distinct names than the table holds: those past it are
    /// spelled out every time.
    #[test]
    fn names_round_trip_past_the_table() {
        let long = "λ".repeat(40);
        let odd = [
            String::new(),
            "日本".to_owned(),
            long.clone(),
            "\u{1F600}".to_owned(),
        ];
        let many: Vec<String> = (0..3 * MAX_NAMES)
            .map(|i| format!("Forward/S{i}"))
            .collect();
        let records = [
            Said(odd.to_vec()),
            Said(odd.to_vec()),
            Said(many.clone()),
            Said(many),
        ];
        let mut frames = Encoder::new(&Said::HEADER);
        for rec in &records {
            frames.push(rec, usize::MAX);
        }
        let bytes = frames.finish();
        assert_eq!(decode_file::<Said>(&bytes).unwrap().records, records);
        assert_eq!(
            decode_file::<Said>(&file_bytes(&records)).unwrap().records,
            records
        );
    }

    /// Version 1 spelled every name as a plain string, one record per
    /// frame; it reads as it did.
    #[test]
    fn version_1_names_are_plain_strings() {
        let mut bytes = b"SAID\x01".to_vec();
        for rec in [said(&["a", "a"]), said(&["a"])] {
            let mut payload = Vec::new();
            put_u64(&mut payload, rec.0.len() as u64);
            for name in &rec.0 {
                put_str(&mut payload, name);
            }
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&(!(payload.len() as u32)).to_le_bytes());
            bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        let decoded = decode_file::<Said>(&bytes).unwrap();
        assert!(decoded.older);
        assert_eq!(decoded.records, [said(&["a", "a"]), said(&["a"])]);
    }

    /// A back-reference past the frame's names, or into another frame's,
    /// is not a record.
    #[test]
    fn a_name_refers_only_into_its_own_frame() {
        let mut bytes = file_bytes(&[said(&["a"])]);
        let mut payload = vec![1, 1];
        let at = bytes.len();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&(!(payload.len() as u32)).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.append(&mut payload);
        let err = decode_file::<Said>(&bytes).unwrap_err();
        assert!(
            matches!(&err, DecodeError::Corrupt { offset, detail }
                if *offset == at && detail.contains("name index out of range")),
            "{err:?}"
        );
    }
}
