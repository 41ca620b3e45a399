//! The on-disk format of every log in the workspace: a file header,
//! then self-contained checksummed frames, one per record.
//!
//! ```text
//! file    := magic[4] version:u8  frame*
//! frame   := len:u32le  !len:u32le  crc:u32le  payload[len]
//! payload := one record, as its `Record::encode` wrote it
//! ```
//!
//! `crc` is CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of
//! the payload; `!len` is the bitwise complement of `len`, so a damaged
//! length is recognised without trusting it. What a payload holds is
//! the record type's business ([`Record`]); this module supplies the
//! primitives payloads are built from: integers as LEB128 varints
//! (`i64` zig-zagged first), `bool` as one byte, strings and byte
//! strings as a varint length plus the bytes (strings are UTF-8,
//! checked on decode), `Option` as a `0`/`1` byte plus the value,
//! [`Value`] as a tag byte plus its payload.
//!
//! Frames are self-contained — encoding a record never depends on the
//! records before it — so the bytes of N single appends equal the bytes
//! of one batch, and any prefix of a log file that ends on a frame
//! boundary is itself a log file.
//!
//! **Sharing on decode.** What repeats across a file — activity paths,
//! member names, whole containers — is built once per pass: the pass
//! keeps one table keyed by encoded bytes ([`Reader::shared_str`],
//! [`Reader::shared_params`]), and every later occurrence of the same
//! bytes is a reference-count bump, with no UTF-8 check (those bytes
//! were checked when first seen). The table's keys are slices of the
//! file and it lives for one pass, so it is bounded by the file.
//!
//! **Torn tails.** A crash mid-append leaves a prefix of a frame (or of
//! the file header) at the end of the file. A frame that is short or
//! fails a check is the torn tail iff no intact frame starts anywhere
//! after it; otherwise it is mid-file corruption and decoding fails
//! with the frame's byte offset.

use crate::params::{no_params, Params};
use crate::value::Value;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

const MAGIC_LEN: usize = 4;
/// Four magic bytes, then the format version.
pub const FILE_HEADER_LEN: usize = MAGIC_LEN + 1;
/// `len`, `!len`, `crc`.
const FRAME_HEADER: usize = 12;

/// One kind of log record: its file's header and its payload codec.
pub trait Record: Sized {
    /// The file header: four magic bytes, then the format version.
    const HEADER: [u8; FILE_HEADER_LEN];
    /// What a file of these records is called in error messages.
    const NAME: &'static str;
    /// The error text for a file at `path` that does not open with
    /// [`Record::HEADER`]'s magic.
    fn not_this_log(path: &Path) -> String;
    /// Appends this record's payload to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Reads one record from a frame's payload.
    fn decode(r: &mut Reader<'_, '_>) -> Field<Self>;
    /// True for a record that makes every record before it redundant:
    /// compaction drops everything before the last one.
    fn is_checkpoint(&self) -> bool;
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

/// Appends `rec` to `out` as one complete frame.
///
/// # Panics
/// If the payload exceeds `u32::MAX` bytes (a single record of 4 GiB).
pub fn encode_frame<R: Record>(rec: &R, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    rec.encode(out);
    let payload = start + FRAME_HEADER;
    let len = u32::try_from(out.len() - payload).expect("log frame exceeds 4 GiB");
    let crc = crc32(&out[payload..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&(!len).to_le_bytes());
    out[start + 8..payload].copy_from_slice(&crc.to_le_bytes());
}

/// The bytes of a log file holding exactly `records`: the file header,
/// then one frame per record. Any prefix of `records` encodes to a
/// prefix of these bytes.
pub fn file_bytes<R: Record>(records: &[R]) -> Vec<u8> {
    let mut bytes = R::HEADER.to_vec();
    for rec in records {
        encode_frame(rec, &mut bytes);
    }
    bytes
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
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Varint length, then the bytes.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
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
    /// The magic is right but the version byte is not this build's.
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
/// See the module documentation for the torn-tail rule.
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
    if header[MAGIC_LEN] != R::HEADER[MAGIC_LEN] {
        return Err(DecodeError::UnsupportedVersion(header[MAGIC_LEN]));
    }
    let mut shared = Shared::default();
    let mut found = Decoded {
        valid_len: FILE_HEADER_LEN,
        ..Decoded::default()
    };
    while found.valid_len < bytes.len() {
        let pos = found.valid_len;
        match frame_at(bytes, pos) {
            Ok(payload) => {
                let mut r = Reader::new(payload, &mut shared);
                let rec = R::decode(&mut r)
                    .and_then(|rec| {
                        if r.is_empty() {
                            Ok(rec)
                        } else {
                            Err("trailing bytes")
                        }
                    })
                    .map_err(|detail| DecodeError::Corrupt {
                        offset: pos,
                        detail: format!("undecodable record: {detail}"),
                    })?;
                visit(pos, rec);
                found.records += 1;
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
    })
}

/// What reading one field of a payload gives: the value, or why the
/// payload is not a record.
pub type Field<T> = Result<T, &'static str>;

/// What one pass over a file has built of its repeated values, by
/// their encoded bytes (see the module documentation).
#[derive(Default)]
struct Shared<'f> {
    strs: HashMap<&'f [u8], Arc<str>>,
    params: HashMap<&'f [u8], Params>,
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
        let n = self.count()?;
        let (head, rest) = self.buf.split_at(n);
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
        const HEADER: [u8; FILE_HEADER_LEN] = *b"NUMS\x01";
        const NAME: &'static str = "number log";
        fn not_this_log(path: &Path) -> String {
            format!("{} is not a number log", path.display())
        }
        fn encode(&self, out: &mut Vec<u8>) {
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
            decode_file::<Num>(b"NUMS\x02").unwrap_err(),
            DecodeError::UnsupportedVersion(2)
        );
    }
}
