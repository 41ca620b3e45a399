//! What must hold for every record type's codec, written once over
//! [`Record`] and instantiated by each type's tests — `LogRecord`'s in
//! this crate, `Event`'s in `wfms-engine`, which is why this module is
//! compiled outside `cfg(test)`. Each function panics where the
//! property fails.
//!
//! The checks run over two kinds of file: [`file_bytes`], one record a
//! frame, and [`grouped_frames`]'s, written through a [`Log`] under
//! `Batched` with barriers at given points, whose frames hold a whole
//! group commit each.

use crate::durability::DurabilityPolicy;
use crate::frame::{
    decode_file, file_bytes, visit_file, DecodeError, FrameFault, Record, FILE_HEADER_LEN,
    FRAME_HEADER,
};
use crate::log::Log;
use std::fmt::Debug;

/// The frames of the log file `bytes`: where each starts, read from the
/// frame headers alone, and how many records the decoder found in it.
/// Every frame holds at least one record.
fn frames<R: Record>(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut frames = Vec::new();
    let mut at = FILE_HEADER_LEN;
    while at < bytes.len() {
        frames.push((at, 0));
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("a length"));
        at += FRAME_HEADER + len as usize;
    }
    assert_eq!(at, bytes.len(), "the frames end where the file does");
    visit_file::<R>(bytes, |offset, _| {
        let frame = frames.iter_mut().find(|(start, _)| *start == offset);
        frame.expect("every record is in a frame").1 += 1;
    })
    .unwrap();
    assert!(
        frames.iter().all(|&(_, records)| records > 0),
        "no empty frame"
    );
    frames
}

/// Every record survives encode → decode, alone and in a file.
pub fn round_trips<R: Record + PartialEq + Debug>(records: &[R]) {
    let bytes = file_bytes(records);
    let decoded = decode_file::<R>(&bytes).unwrap();
    assert_eq!(decoded.records, records);
    assert_eq!(decoded.valid_len, bytes.len());
    assert_eq!(decoded.torn, None);
}

/// Every byte prefix of a file of `records`, one a frame, decodes to a
/// prefix of its records: whole frames survive, at most one partial
/// frame is reported torn, nothing is ever an error.
pub fn byte_prefixes_decode_to_record_prefixes<R: Record + PartialEq + Debug>(records: &[R]) {
    let bytes = file_bytes(records);
    let frames = frames::<R>(&bytes);
    for cut in 0..bytes.len() {
        let decoded = decode_file::<R>(&bytes[..cut]).unwrap();
        let (k, valid, boundary) = whole_frames(&frames, bytes.len(), cut);
        assert_eq!(decoded.records, records[..k], "cut at byte {cut}");
        assert_eq!(decoded.torn.is_none(), boundary, "cut at byte {cut}");
        assert_eq!(decoded.valid_len, valid, "cut at byte {cut}");
    }
}

/// What survives a cut of a file of `frames` and `len` bytes at byte
/// `cut`: the records of its whole frames, where they end (0 if even
/// the file header is cut), and whether the cut is on a frame boundary.
fn whole_frames(frames: &[(usize, usize)], len: usize, cut: usize) -> (usize, usize, bool) {
    let ends = frames.iter().skip(1).map(|&(start, _)| start).chain([len]);
    let whole = ends.take_while(|&end| end <= cut).count();
    let records = frames[..whole].iter().map(|&(_, n)| n).sum();
    let valid = match whole {
        _ if cut < FILE_HEADER_LEN => 0,
        0 => FILE_HEADER_LEN,
        k => frames.get(k).map_or(len, |&(start, _)| start),
    };
    (records, valid, cut == 0 || cut == valid)
}

/// One flipped bit (bit `bit` of the byte `at` positions — modulo the
/// frames' length — past the file header; `records` is not empty), in
/// a file of `records` one a frame: in the last frame it is a torn tail
/// that loses the whole frame, in an earlier frame it is corruption at
/// that frame's offset. Never silent.
pub fn flipped_bit_is_torn_or_corrupt<R: Record + PartialEq + Debug>(
    records: &[R],
    at: usize,
    bit: u8,
) {
    flip(&file_bytes(records), records, at, bit);
}

/// [`flipped_bit_is_torn_or_corrupt`] in `bytes`, the file of `records`.
fn flip<R: Record + PartialEq + Debug>(bytes: &[u8], records: &[R], at: usize, bit: u8) {
    let frames = frames::<R>(bytes);
    let mut bytes = bytes.to_vec();
    let at = FILE_HEADER_LEN + at % (bytes.len() - FILE_HEADER_LEN);
    bytes[at] ^= 1 << bit;
    let frame = frames.iter().rposition(|&(start, _)| start <= at).unwrap();
    let before: usize = frames[..frame].iter().map(|&(_, n)| n).sum();
    match decode_file::<R>(&bytes) {
        Ok(decoded) => {
            assert_eq!(frame, frames.len() - 1, "byte {at}");
            assert_eq!(decoded.records, records[..before]);
            assert_eq!(decoded.valid_len, frames[frame].0);
            assert!(decoded.torn.is_some_and(FrameFault::is_checksum));
        }
        Err(DecodeError::Corrupt { offset, .. }) => {
            assert!(frame < frames.len() - 1, "byte {at}");
            assert_eq!(offset, frames[frame].0);
        }
        Err(other) => panic!("byte {at}: unexpected {other:?}"),
    }
}

/// `records` appended through a [`Log`] under `Batched { n }`, flushed
/// after record `i` wherever `flush_after[i]` says so and at the end,
/// in a file of their own: the file holds every record once, a frame
/// per flush — however many records it holds, as `n` is read by
/// nothing — a record that opens a frame opening one; every byte
/// prefix of it reopens to exactly
/// the records of its whole frames, each with its frame's offset, and
/// counts one torn tail if it cuts a frame; and a flipped bit (as [`flipped_bit_is_torn_or_corrupt`]'s
/// `at` and `bit`) is a torn last frame or corruption at its frame.
pub fn grouped_frames<R: Record + Clone + PartialEq + Debug>(
    records: &[R],
    flush_after: &[bool],
    n: usize,
    at: usize,
    bit: u8,
) {
    let dir = std::env::temp_dir().join(format!(
        "txn-substrate-grouped-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("log");
    let _ = std::fs::remove_file(&path);
    let policy = DurabilityPolicy::Batched { n };
    {
        let (mut log, _) = Log::<R>::open(&path, policy, |_, _| {}).unwrap();
        for (i, rec) in records.iter().enumerate() {
            log.append(rec.clone(), false);
            if flush_after.get(i) == Some(&true) {
                log.flush();
            }
        }
        log.flush();
    }
    let bytes = std::fs::read(&path).unwrap();
    let decoded = decode_file::<R>(&bytes).unwrap();
    assert_eq!(decoded.records, records);
    assert_eq!((decoded.valid_len, decoded.torn), (bytes.len(), None));
    // A frame per flush asked for, whatever `n` is; a record that opens
    // a frame does.
    let (mut sizes, mut open) = (Vec::<usize>::new(), false);
    for (i, rec) in records.iter().enumerate() {
        if !open || rec.is_checkpoint() || rec.opens_frame() {
            sizes.push(0);
        }
        *sizes.last_mut().unwrap() += 1;
        open = flush_after.get(i) != Some(&true);
    }
    let frames = frames::<R>(&bytes);
    let held: Vec<usize> = frames.iter().map(|&(_, records)| records).collect();
    assert_eq!(held, sizes, "records per frame");

    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (mut seen, mut offsets) = (Vec::new(), Vec::new());
        let (log, report) = Log::<R>::open(&path, policy, |offset, rec| {
            offsets.push(offset);
            seen.push(rec);
        })
        .unwrap();
        let (k, valid, boundary) = whole_frames(&frames, bytes.len(), cut);
        assert_eq!(seen, records[..k], "cut at byte {cut}");
        // Each record comes with the offset of the frame it is in.
        let starts = frames
            .iter()
            .flat_map(|&(start, n)| std::iter::repeat_n(start, n));
        assert!(
            offsets.iter().copied().eq(starts.take(k)),
            "cut at byte {cut}"
        );
        assert_eq!(report.torn_tail.is_none(), boundary, "cut at byte {cut}");
        let torn = log.faults().torn_tails_truncated.get();
        assert_eq!(torn, !boundary as u64, "cut at byte {cut}");
        if let Some(tail) = &report.torn_tail {
            assert_eq!(tail.offset, valid as u64, "cut at byte {cut}");
        }
    }
    if !records.is_empty() {
        flip(&bytes, records, at, bit);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
