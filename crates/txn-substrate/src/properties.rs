//! What must hold for every record type's codec, written once over
//! [`Record`] and instantiated by each type's tests — `LogRecord`'s in
//! this crate, `Event`'s in `wfms-engine`, which is why this module is
//! compiled outside `cfg(test)`. Each function panics where the
//! property fails.

use crate::frame::{decode_file, file_bytes, DecodeError, FrameFault, Record};
use std::fmt::Debug;

/// Byte offset at which the frame of each of `records` ends, preceded
/// by the end of the file header.
fn frame_ends<R: Record>(records: &[R]) -> Vec<usize> {
    (0..=records.len())
        .map(|k| file_bytes(&records[..k]).len())
        .collect()
}

/// Every record survives encode → decode, alone and in a file.
pub fn round_trips<R: Record + PartialEq + Debug>(records: &[R]) {
    let bytes = file_bytes(records);
    let decoded = decode_file::<R>(&bytes).unwrap();
    assert_eq!(decoded.records, records);
    assert_eq!(decoded.valid_len, bytes.len());
    assert_eq!(decoded.torn, None);
}

/// Every byte prefix of a file decodes to a prefix of its records:
/// whole frames survive, at most one partial frame is reported torn,
/// nothing is ever an error.
pub fn byte_prefixes_decode_to_record_prefixes<R: Record + PartialEq + Debug>(records: &[R]) {
    let bytes = file_bytes(records);
    let ends = frame_ends(records);
    for cut in 0..bytes.len() {
        let decoded = decode_file::<R>(&bytes[..cut]).unwrap();
        let k = ends
            .iter()
            .filter(|&&end| end <= cut)
            .count()
            .saturating_sub(1);
        assert_eq!(decoded.records, records[..k], "cut at byte {cut}");
        let boundary = cut == 0 || ends.contains(&cut);
        assert_eq!(decoded.torn.is_none(), boundary, "cut at byte {cut}");
        let valid = if cut < ends[0] { 0 } else { ends[k] };
        assert_eq!(decoded.valid_len, valid, "cut at byte {cut}");
    }
}

/// One flipped bit (bit `bit` of the byte `at` positions — modulo the
/// frames' length — past the file header; `records` is not empty): in
/// the last frame it is a torn tail at that frame, in an earlier frame
/// it is corruption at that frame's offset. Never silent.
pub fn flipped_bit_is_torn_or_corrupt<R: Record + PartialEq + Debug>(
    records: &[R],
    at: usize,
    bit: u8,
) {
    let mut bytes = file_bytes(records);
    let starts = &frame_ends(records)[..records.len()];
    let at = starts[0] + at % (bytes.len() - starts[0]);
    bytes[at] ^= 1 << bit;
    let frame = starts.iter().rposition(|&s| s <= at).unwrap();
    match decode_file::<R>(&bytes) {
        Ok(decoded) => {
            assert_eq!(frame, records.len() - 1, "byte {at}");
            assert_eq!(decoded.records, records[..frame]);
            assert_eq!(decoded.valid_len, starts[frame]);
            assert!(decoded.torn.is_some_and(FrameFault::is_checksum));
        }
        Err(DecodeError::Corrupt { offset, .. }) => {
            assert!(frame < records.len() - 1, "byte {at}");
            assert_eq!(offset, starts[frame]);
        }
        Err(other) => panic!("byte {at}: unexpected {other:?}"),
    }
}
