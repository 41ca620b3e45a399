//! Durability policies and the file-side helpers of mirrored logs.
//!
//! Every log in this workspace — each database's [`Wal`](crate::Wal)
//! and the engine journal (`wfms_engine::Journal`) — is a
//! [`Log`](crate::log::Log) whose records collect as encoded frames in
//! one buffer until they are written. *When* the buffered bytes reach
//! the file (and the disk) is a policy decision with a real trade-off:
//! writing more often narrows the window of work lost in a crash,
//! syncing pushes the durability point through the OS page cache at a
//! per-record `fdatasync` cost, and a group commit amortises both over
//! everything appended between two barriers, the way high-throughput
//! WAL implementations do. The policy also draws the
//! [frames](crate::frame): the records of one group commit share one
//! frame — one header, one checksum, names spelled once — so
//! `PerEvent` writes a frame per record and `Batched` one per barrier,
//! and one more wherever a record opens a frame (a checkpoint; the
//! journal's `InstanceStarted`).
//!
//! A barrier is a commit record, [`Log::flush`](crate::log::Log::flush)
//! (a server shard calls it at the end of each turn, before it
//! acknowledges anything of the turn) and the flush a checkpoint or a
//! compaction makes. Under `Batched` those are the only writes but one:
//! a buffer that passes a fixed cap (1 MiB) is written whole, so memory
//! stays bounded between barriers that are far apart.
//!
//! The torn-tail rule of [`crate::frame`] holds under every policy: a
//! crash can leave at most one partially written frame at the end of
//! the file, and reopen truncates it, with all of that frame's records.
//! What the policy changes is how many *complete* records may be lost:
//! under `PerEvent`/`PerEventSync` none that the appender returned
//! from; under `Batched` the records since the last barrier, and
//! nothing acknowledged — the frames a barrier was writing when the
//! process died hold exactly the records no barrier had returned from.

use crate::frame::{Encoder, Record};
use std::fs::File;
use std::io::Write;

/// Bytes a writer buffers before it writes them whatever the policy: a
/// bound on a log's memory between barriers. A server turn (at most 64
/// submissions, some 41 KB of journal for saga8) never reaches it.
pub const BUFFER_CAP: usize = 1 << 20;

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
    /// Group commit: write only at barriers — transaction commit
    /// records, an explicit [`crate::log::Log::flush`], a checkpoint —
    /// or once the buffer passes a fixed cap of 1 MiB. The records
    /// since the last barrier may be lost in a crash, nothing a barrier
    /// returned from; the server and throughput-oriented sweeps use
    /// this.
    Batched {
        /// Read by nothing: the group is what lies between two
        /// barriers. Kept so that existing spellings still build.
        n: usize,
    },
}

/// A log file, the frames it has not been handed yet, and the policy
/// deciding when they are: the buffer leaves in one `write_all` at a
/// barrier, after every record under `PerEvent`, or once it passes the
/// cap — and whole, every time, so after a write the writer holds
/// nothing.
#[derive(Debug)]
pub struct DurableWriter {
    file: File,
    policy: DurabilityPolicy,
    /// Frames the file does not hold yet; the last one may be open.
    frames: Encoder,
}

/// A write the file did not take: why, and the frames it was handed,
/// every one sealed. The writer holds none of them any more: a prefix
/// may be in the file, and sending them again would repeat it.
#[derive(Debug)]
pub struct Refused {
    /// The I/O error.
    pub error: std::io::Error,
    /// The frames that were to be written.
    pub frames: Vec<u8>,
}

impl DurableWriter {
    /// Wraps `file` (positioned at its end, append mode) under `policy`.
    pub fn new(file: File, policy: DurabilityPolicy) -> Self {
        Self {
            file,
            policy,
            frames: Encoder::default(),
        }
    }

    /// True under `PerEvent` and `PerEventSync`: a frame and a write per
    /// record.
    fn per_event(&self) -> bool {
        !matches!(self.policy, DurabilityPolicy::Batched { .. })
    }

    /// Encodes `rec` once, straight into the bytes the file is handed:
    /// into the open frame, or a new one when `rec` opens one
    /// ([`Record::is_checkpoint`], [`Record::opens_frame`]) or the
    /// policy writes a frame per record. Returns the byte offset in the
    /// buffer of the frame `rec` went into. Follow with
    /// [`DurableWriter::commit`].
    pub fn push<R: Record>(&mut self, rec: &R) -> usize {
        let most = if self.per_event() { 1 } else { usize::MAX };
        self.frames.push(rec, most)
    }

    /// Writes the buffer if `barrier` (commit records, the end of a
    /// group commit) or the policy says so: under `PerEvent`, or once
    /// the buffer has passed the cap. Returns the bytes that left for
    /// the file — 0 while the group is still open — or the refusal,
    /// without panicking: callers decide whether a log that cannot be
    /// written is fatal.
    pub fn commit(&mut self, barrier: bool) -> Result<usize, Refused> {
        if barrier || self.per_event() || self.frames.bytes().len() > BUFFER_CAP {
            return self.flush();
        }
        Ok(0)
    }

    /// Closes the open frame and hands every buffered frame to the OS
    /// (and to disk under `PerEventSync`); returns how many bytes that
    /// was. The frames leave the buffer either way: written, or handed
    /// back in the [`Refused`].
    pub fn flush(&mut self) -> Result<usize, Refused> {
        self.frames.seal();
        let bytes = self.frames.bytes();
        let written = self.file.write_all(bytes).and_then(|()| {
            if self.policy == DurabilityPolicy::PerEventSync {
                self.file.sync_data()?;
            }
            Ok(bytes.len())
        });
        match written {
            Ok(len) => {
                self.frames.clear();
                Ok(len)
            }
            Err(error) => Err(Refused {
                error,
                frames: self.take(),
            }),
        }
    }

    /// The buffered frames, the open one sealed, behind `head`: a copy,
    /// which decodes as a file would while the writer keeps them.
    pub fn unwritten(&self, head: &[u8]) -> Vec<u8> {
        self.frames.sealed_copy(head)
    }

    /// Hands over the buffered frames, the open one sealed, without
    /// writing them: the writer holds nothing after.
    pub fn take(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.frames).finish()
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

    /// Under `Batched` only a barrier writes, whatever `n` says: a
    /// frame per barrier, split nowhere but at a record that opens one.
    #[test]
    fn batched_policy_defers_flush() {
        let dir = tmp_dir("batch");
        let path = dir.join("log");
        let mut w = writer(&path, DurabilityPolicy::Batched { n: 3 });
        let mut append = |records: &[u8], barrier| {
            for &b in records {
                w.push(&Byte(b));
            }
            w.commit(barrier).unwrap()
        };
        assert_eq!(append(&[1], false), 0);
        assert_eq!(append(&[2, 3, 4, 5], false), 0, "n is read by nothing");
        assert_eq!(frames(&path), [[0u8; 0]; 0], "still buffered");
        assert_eq!(append(&[6], true), FRAME_HEADER + 6);
        assert_eq!(
            frames(&path),
            [vec![1, 2, 3, 4, 5, 6]],
            "one frame a barrier"
        );
        assert_eq!(append(&[7], true), FRAME_HEADER + 1);
        assert_eq!(frames(&path)[1], [7], "a barrier writes");
        append(&[8, 0, 9], true);
        assert_eq!(
            frames(&path)[2..],
            [vec![8], vec![0, 9]],
            "a checkpoint opens a frame"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Past the byte cap a commit writes whatever the policy: every
    /// frame, the open one sealed, and below it nothing.
    #[test]
    fn crossing_the_cap_writes_every_frame() {
        /// A record of `len` bytes, none of them `0`.
        #[derive(Debug)]
        struct Blob(Vec<u8>);
        impl Record for Blob {
            const HEADER: [u8; FILE_HEADER_LEN] = *b"BLOB\x02";
            const NAME: &'static str = "blob log";
            fn not_this_log(path: &std::path::Path) -> String {
                path.display().to_string()
            }
            fn encode(&self, out: &mut Vec<u8>, _: &mut Names) {
                crate::frame::put_u64(out, self.0.len() as u64);
                out.extend_from_slice(&self.0);
            }
            fn decode(r: &mut Reader<'_, '_>) -> Field<Self> {
                r.u64()
                    .and_then(|n| (0..n).map(|_| r.byte()).collect())
                    .map(Blob)
            }
            fn is_checkpoint(&self) -> bool {
                false
            }
        }
        let dir = tmp_dir("cap");
        let path = dir.join("log");
        std::fs::write(&path, Blob::HEADER).unwrap();
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        let mut w = DurableWriter::new(file, DurabilityPolicy::Batched { n: 64 });
        let blob = Blob(vec![7; BUFFER_CAP / 5]);
        for _ in 0..4 {
            w.push(&blob);
            assert_eq!(w.commit(false).unwrap(), 0, "below the cap");
        }
        assert_eq!(std::fs::read(&path).unwrap(), Blob::HEADER);
        w.push(&Blob(vec![1; BUFFER_CAP / 4]));
        let written = w.commit(false).unwrap();
        let file = std::fs::read(&path).unwrap();
        assert_eq!(written, file.len() - FILE_HEADER_LEN, "one write of it all");
        assert!(written > BUFFER_CAP);
        let mut records = 0;
        visit_file::<Blob>(&file, |_, _| records += 1).unwrap();
        assert_eq!(records, 5, "every frame, the open one sealed");
        assert_eq!(w.take(), b"", "the writer holds nothing after");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A writer whose barrier write failed writes nothing more: it
    /// hands the frames back and holds none, so not even `Drop` writes
    /// them over a file that would take them. A frame written there
    /// would land intact behind the torn one, where reopening refuses
    /// it as mid-file corruption.
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
        assert_eq!(w.commit(false).unwrap(), 0, "no barrier, nothing written");
        let refused = w.commit(true).expect_err("a read-only file");
        let mut handed_back = Byte::HEADER.to_vec();
        handed_back.extend_from_slice(&refused.frames);
        let mut back = Vec::new();
        visit_file::<Byte>(&handed_back, |_, Byte(b)| back.push(b)).unwrap();
        assert_eq!(back, [1, 2, 3, 4, 5], "every record handed back");
        let file = std::fs::OpenOptions::new().append(true).open(&writable);
        w.replace_file(file.unwrap());
        drop(w);
        assert_eq!(
            std::fs::read(&writable).unwrap(),
            b"",
            "no frame written twice"
        );
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
        assert_eq!(w.commit(false).unwrap(), FRAME_HEADER + 1);
        w.push(&Byte(2));
        assert_eq!(w.commit(false).unwrap(), FRAME_HEADER + 1);
        assert_eq!(frames(&path), [[4], [2]], "a frame per record");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
