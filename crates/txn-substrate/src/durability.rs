//! Durability policies and the file-side helpers of mirrored logs.
//!
//! Every log in this workspace — each database's [`Wal`](crate::Wal)
//! and the engine journal (`wfms_engine::Journal`) — is a
//! [`Log`](crate::log::Log) whose records collect in one buffer until
//! they are written. *When* the buffered bytes actually reach the file
//! (and the disk) is a policy decision with a real trade-off:
//! flushing more often narrows the window of work lost in a crash,
//! syncing pushes the durability point through the OS page cache at a
//! per-record `fdatasync` cost, and batching amortises both over group
//! commits the way high-throughput WAL implementations do. The policy
//! also draws the [frames](crate::frame): the records of one group
//! commit share one frame — one header, one checksum, names spelled
//! once — so `PerEvent` writes a frame per record and `Batched { n }`
//! one per flush, of at most `n` records, and one more wherever a
//! record opens a frame (a checkpoint; the journal's `InstanceStarted`).
//!
//! The torn-tail rule of [`crate::frame`] holds under every policy: a
//! crash can leave at most one partially written frame at the end of
//! the file, and reopen truncates it, with all of that frame's records.
//! What the policy changes is how many *complete* records may be lost:
//! under `PerEvent`/`PerEventSync` none that the appender returned
//! from; under `Batched { n }` those since the last flush, up to
//! `n - 1` — the frame a flush was writing when the process died is
//! lost whole, and it holds exactly the records no flush had returned
//! from.

use crate::frame::{Encoder, Record};
use std::fs::File;
use std::io::Write;

/// When a file-mirrored log makes appended records durable.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// Flush the writer to the OS after every append. A process crash
    /// loses nothing that was appended; an OS crash may lose records
    /// still in the page cache. This is the default and what the
    /// recovery tests' notion of "crash after event *k*" assumes.
    #[default]
    PerEvent,
    /// Flush **and** `fdatasync` after every append: the record is on
    /// stable storage before the append returns. Survives OS/power
    /// failure at the cost of a sync per event.
    PerEventSync,
    /// Group commit: flush once every `n` appends (and at forced
    /// barriers such as transaction commit records or an explicit
    /// [`crate::log::Log::flush`]). Up to `n - 1` trailing records may be
    /// lost in a crash; throughput-oriented sweeps use this.
    Batched {
        /// Flush interval in appended records (`0` is treated as `1`).
        n: usize,
    },
}

/// A log file, the frames it has not been handed yet, and the policy
/// state deciding when they are: the buffer leaves in one `write_all`
/// at the policy's flush points and at no other time. A barrier closes
/// the open frame; the count of `Batched { n }` writes the frames closed
/// so far and leaves the open one buffered unless it is full.
#[derive(Debug)]
pub struct DurableWriter {
    file: File,
    policy: DurabilityPolicy,
    /// Frames the file does not hold yet; the last one may be open.
    frames: Encoder,
    /// Records pushed since the last write (only meaningful for
    /// `Batched`).
    pending: usize,
}

impl DurableWriter {
    /// Wraps `file` (positioned at its end, append mode) under `policy`.
    pub fn new(file: File, policy: DurabilityPolicy) -> Self {
        Self {
            file,
            policy,
            frames: Encoder::default(),
            pending: 0,
        }
    }

    /// Records a frame holds: one under `PerEvent` and `PerEventSync`,
    /// `n` under `Batched { n }`.
    fn most(&self) -> usize {
        match self.policy {
            DurabilityPolicy::PerEvent | DurabilityPolicy::PerEventSync => 1,
            DurabilityPolicy::Batched { n } => n.max(1),
        }
    }

    /// Encodes `rec` once, straight into the bytes the file is handed:
    /// into the open frame, or a new one when the open one is full (one
    /// record under `PerEvent`, `n` under `Batched { n }`) or `rec` opens one
    /// ([`Record::is_checkpoint`], [`Record::opens_frame`]). Returns the
    /// byte offset in the buffer of the frame `rec` went into. Follow
    /// with [`DurableWriter::commit`].
    pub fn push<R: Record>(&mut self, rec: &R) -> usize {
        self.frames.push(rec, self.most())
    }

    /// Records pushed and not yet written: those of the open frame once
    /// a write has returned.
    pub(crate) fn unwritten(&self) -> usize {
        self.pending
    }

    /// Counts the `records` just pushed against the policy and writes
    /// out what it, or `barrier` (commit records, the end of a group
    /// commit), says: everything at a barrier and under `PerEvent`; the
    /// closed frames — and the open one if it is full — once
    /// `Batched { n }` has `n` records unwritten, which leaves fewer
    /// than `n`. Returns the bytes that left for the file — 0 while the
    /// policy is still batching — or the I/O error, without panicking:
    /// callers decide whether a log that cannot be written is fatal.
    pub fn commit(&mut self, records: usize, barrier: bool) -> std::io::Result<usize> {
        self.pending += records;
        if barrier || self.most() == 1 {
            return self.flush();
        }
        if self.pending < self.most() {
            return Ok(0);
        }
        if self.frames.open_records() >= self.most() {
            self.frames.seal();
        }
        self.write()
    }

    /// Closes the open frame and hands the buffered frames to the OS
    /// (and to disk under `PerEventSync`); returns how many bytes that
    /// was.
    pub fn flush(&mut self) -> std::io::Result<usize> {
        self.frames.seal();
        self.write()
    }

    /// Hands the closed frames to the OS, keeping the open one. They
    /// leave the buffer either way: a failed write may have left a
    /// prefix of them in the file, and sending them again would repeat
    /// that prefix. A failed write discards the open frame too, so that
    /// nothing, not even `Drop`, writes behind the torn bytes; the
    /// records of both are still in the log's memory.
    fn write(&mut self) -> std::io::Result<usize> {
        let sealed = self.frames.sealed();
        let len = sealed.len();
        let written = self.file.write_all(sealed).and_then(|()| {
            if self.policy == DurabilityPolicy::PerEventSync {
                self.file.sync_data()?;
            }
            Ok(len)
        });
        if written.is_ok() {
            self.frames.drop_sealed();
        } else {
            self.frames = Encoder::default();
        }
        self.pending = self.frames.open_records();
        written
    }

    /// Replaces the underlying file (after an atomic rewrite swapped a
    /// new file into place).
    pub fn replace_file(&mut self, file: File) {
        self.file = file;
    }
}

/// A writer going away hands the OS what it still buffers, as closing a
/// file does; an error here has no one left to go to
/// ([`DurableWriter::flush`] is the call that reports it).
impl Drop for DurableWriter {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// A cloneable capture of the first I/O error a log mirror hit.
///
/// `std::io::Error` is not `Clone`, but the sticky-error pattern the
/// logs use ("remember the first failure, keep serving from memory,
/// surface the failure at the API boundary") needs to hand the error
/// out repeatedly — so the kind and rendered message are kept instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirrorError {
    /// The `ErrorKind` of the original error.
    pub kind: std::io::ErrorKind,
    /// Rendered message of the original error, with context.
    pub message: String,
}

impl MirrorError {
    /// Captures `err` with a short `context` ("append", "compact", …).
    pub fn new(context: &str, err: &std::io::Error) -> Self {
        Self {
            kind: err.kind(),
            message: format!("log mirror {context} failed: {err}"),
        }
    }
}

impl std::fmt::Display for MirrorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for MirrorError {}

/// What the reopen path found at the end of an existing log file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TailReport {
    /// Complete records loaded.
    pub records: usize,
    /// A torn (partially written) final record was found and truncated
    /// away: its byte offset and the prefix that was discarded.
    pub torn_tail: Option<TornTail>,
}

/// Diagnostic describing a truncated torn tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset at which the file was truncated.
    pub offset: u64,
    /// What was discarded: the byte count and which check failed.
    pub discarded: String,
    /// The tail was complete enough to fail a length check or CRC,
    /// rather than merely short.
    pub checksum_failed: bool,
}

/// Atomically replaces the log at `path` with `contents`: writes a
/// sibling temp file, syncs it, and renames it over the original — a
/// crash during compaction leaves either the old complete file or the
/// new complete file, never a half-rewritten one. Returns the reopened
/// (append-positioned) file.
pub fn atomic_rewrite(path: &std::path::Path, contents: &[u8]) -> std::io::Result<File> {
    let tmp_path = path.with_extension("rewrite-tmp");
    {
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(contents)?;
        tmp.sync_data()?;
    }
    std::fs::rename(&tmp_path, path)?;
    std::fs::OpenOptions::new().append(true).open(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{visit_file, Field, Names, Reader, FILE_HEADER_LEN, FRAME_HEADER};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wftx-durability-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// One byte; `0` is a checkpoint.
    #[derive(Debug)]
    struct Byte(u8);

    impl Record for Byte {
        const HEADER: [u8; FILE_HEADER_LEN] = *b"BYTE\x02";
        const NAME: &'static str = "byte log";
        fn not_this_log(path: &std::path::Path) -> String {
            path.display().to_string()
        }
        fn encode(&self, out: &mut Vec<u8>, _: &mut Names) {
            out.push(self.0);
        }
        fn decode(r: &mut Reader<'_, '_>) -> Field<Self> {
            r.byte().map(Byte)
        }
        fn is_checkpoint(&self) -> bool {
            self.0 == 0
        }
    }

    /// A byte-log file at `path` and a writer appending to it.
    fn writer(path: &std::path::Path, policy: DurabilityPolicy) -> DurableWriter {
        std::fs::write(path, Byte::HEADER).unwrap();
        let file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        DurableWriter::new(file, policy)
    }

    /// The file's records, frame by frame.
    fn frames(path: &std::path::Path) -> Vec<Vec<u8>> {
        let mut frames: Vec<(usize, Vec<u8>)> = Vec::new();
        visit_file::<Byte>(&std::fs::read(path).unwrap(), |at, Byte(b)| {
            match frames.last_mut() {
                Some((start, records)) if *start == at => records.push(b),
                _ => frames.push((at, vec![b])),
            }
        })
        .unwrap();
        frames.into_iter().map(|(_, records)| records).collect()
    }

    #[test]
    fn batched_policy_defers_flush() {
        let dir = tmp_dir("batch");
        let path = dir.join("log");
        let mut w = writer(&path, DurabilityPolicy::Batched { n: 3 });
        let mut append = |records: &[u8], barrier| {
            for &b in records {
                w.push(&Byte(b));
            }
            w.commit(records.len(), barrier).unwrap()
        };
        assert_eq!(append(&[1], false), 0);
        assert_eq!(append(&[2], false), 0);
        assert_eq!(frames(&path), [[0u8; 0]; 0], "still buffered");
        assert_eq!(append(&[3], false), FRAME_HEADER + 3);
        assert_eq!(frames(&path), [vec![1, 2, 3]], "group flushed as one frame");
        assert_eq!(append(&[4], true), FRAME_HEADER + 1);
        assert_eq!(frames(&path)[1], [4], "barrier flushes");
        assert_eq!(append(&[5, 6, 7], false), FRAME_HEADER + 3);
        assert_eq!(
            frames(&path)[2],
            [5, 6, 7],
            "a chunk counts each of its records"
        );
        append(&[8, 0, 9], true);
        assert_eq!(
            frames(&path)[3..],
            [vec![8], vec![0, 9]],
            "a checkpoint opens a frame"
        );
        append(&[1, 2, 3, 4], true);
        assert_eq!(
            frames(&path)[5..],
            [vec![1, 2, 3], vec![4]],
            "at most n a frame"
        );
        // Three records unwritten: the closed frame leaves, the open one
        // stays until it is full or a barrier comes.
        assert_eq!(append(&[1, 0, 2], false), FRAME_HEADER + 1);
        assert_eq!(frames(&path)[7..], [vec![1]]);
        assert_eq!(append(&[3], false), FRAME_HEADER + 3);
        assert_eq!(frames(&path)[8..], [vec![0, 2, 3]]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A writer whose write failed writes nothing more: not the frame
    /// it held open, not even when it is dropped over a file that would
    /// take it. A frame written there would land intact behind the torn
    /// one, where reopening refuses it as mid-file corruption.
    #[test]
    fn a_failed_write_leaves_no_frame_to_drop() {
        let dir = tmp_dir("failed");
        let (read_only, writable) = (dir.join("ro"), dir.join("rw"));
        std::fs::write(&read_only, Byte::HEADER).unwrap();
        std::fs::write(&writable, "").unwrap();
        let file = std::fs::File::open(&read_only).unwrap();
        let mut w = DurableWriter::new(file, DurabilityPolicy::Batched { n: 4 });
        for b in 1..=5 {
            w.push(&Byte(b));
        }
        assert!(w.commit(5, false).is_err(), "a read-only file");
        let file = std::fs::OpenOptions::new().append(true).open(&writable);
        w.replace_file(file.unwrap());
        drop(w);
        assert_eq!(std::fs::read(&writable).unwrap(), b"", "no fifth frame");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_rewrite_replaces_contents() {
        let dir = tmp_dir("rewrite");
        let path = dir.join("log");
        std::fs::write(&path, "123").unwrap();
        let mut f = atomic_rewrite(&path, b"9").unwrap();
        f.write_all(b"10").unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"910",
            "rewritten file accepts appends"
        );
        assert!(!dir.join("log.rewrite-tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn per_event_sync_policy_syncs_every_append() {
        let dir = tmp_dir("sync");
        let path = dir.join("log");
        let mut w = writer(&path, DurabilityPolicy::PerEventSync);
        w.push(&Byte(4));
        w.push(&Byte(2));
        assert_eq!(w.commit(2, false).unwrap(), 2 * (FRAME_HEADER + 1));
        assert_eq!(frames(&path), [[4], [2]], "a frame per record");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
