//! Durability policies and the file-side helpers of mirrored logs.
//!
//! Every log in this workspace — each database's [`Wal`](crate::Wal)
//! and the engine journal (`wfms_engine::Journal`) — is a
//! [`Log`](crate::log::Log) whose [frames](crate::frame) collect in one
//! buffer until they are written. *When* the buffered bytes actually
//! reach the file (and the disk) is a policy decision with a real
//! trade-off:
//! flushing more often narrows the window of work lost in a crash,
//! syncing pushes the durability point through the OS page cache at a
//! per-record `fdatasync` cost, and batching amortises both over group
//! commits the way high-throughput WAL implementations do.
//!
//! The torn-tail rule of [`crate::frame`] holds under every policy: a
//! crash can leave at most one partially written frame at the end of
//! the file, and reopen truncates it. What the policy changes is how
//! many *complete* records may be lost (`PerEvent`/`PerEventSync`: none
//! that the appender returned from; `Batched { n }`: up to `n - 1`).

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
/// at the policy's flush points and at no other time.
#[derive(Debug)]
pub struct DurableWriter {
    file: File,
    policy: DurabilityPolicy,
    /// Whole frames the file does not hold yet.
    buf: Vec<u8>,
    /// Records framed in `buf` (only meaningful for `Batched`).
    pending: usize,
}

impl DurableWriter {
    /// Wraps `file` (positioned at its end, append mode) under `policy`.
    pub fn new(file: File, policy: DurabilityPolicy) -> Self {
        Self {
            file,
            policy,
            buf: Vec::new(),
            pending: 0,
        }
    }

    /// The buffer the next records are framed into — each is encoded
    /// once, straight into the bytes the file is handed. Follow with
    /// [`DurableWriter::commit`].
    pub fn buf(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Counts the `records` complete frames just added to the buffer
    /// against the policy and writes the buffer out if it, or `barrier`
    /// (commit records, the end of a group commit), says so. Returns
    /// the bytes that left for the file — 0 while the policy is still
    /// batching — or the I/O error, without panicking: callers decide
    /// whether a log that cannot be written is fatal.
    pub fn commit(&mut self, records: usize, barrier: bool) -> std::io::Result<usize> {
        self.pending += records;
        let flush_now = barrier
            || match self.policy {
                DurabilityPolicy::PerEvent | DurabilityPolicy::PerEventSync => true,
                DurabilityPolicy::Batched { n } => self.pending >= n.max(1),
            };
        if flush_now {
            self.flush()
        } else {
            Ok(0)
        }
    }

    /// Hands the buffered frames to the OS (and to disk under
    /// `PerEventSync`); returns how many bytes that was. The buffer is
    /// empty afterwards either way: a failed write may have left a
    /// prefix of it in the file, and sending it again would repeat that
    /// prefix.
    pub fn flush(&mut self) -> std::io::Result<usize> {
        let len = self.buf.len();
        let written = self.file.write_all(&self.buf);
        self.buf.clear();
        self.pending = 0;
        written?;
        if self.policy == DurabilityPolicy::PerEventSync {
            self.file.sync_data()?;
        }
        Ok(len)
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

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wftx-durability-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn batched_policy_defers_flush() {
        let dir = tmp_dir("batch");
        let path = dir.join("log");
        let file = File::create(&path).unwrap();
        let mut w = DurableWriter::new(file, DurabilityPolicy::Batched { n: 3 });
        let mut append = |chunk: &[u8], records, barrier| {
            w.buf().extend_from_slice(chunk);
            w.commit(records, barrier).unwrap()
        };
        assert_eq!(append(b"1", 1, false), 0);
        assert_eq!(append(b"2", 1, false), 0);
        assert_eq!(std::fs::read(&path).unwrap(), b"", "still buffered");
        assert_eq!(append(b"3", 1, false), 3);
        assert_eq!(std::fs::read(&path).unwrap(), b"123", "group flushed");
        assert_eq!(append(b"4", 1, true), 1);
        assert_eq!(std::fs::read(&path).unwrap(), b"1234", "barrier flushes");
        assert_eq!(append(b"567", 3, false), 3);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"1234567",
            "a chunk counts each of its records"
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
        let file = File::create(&path).unwrap();
        let mut w = DurableWriter::new(file, DurabilityPolicy::PerEventSync);
        w.buf().extend_from_slice(b"42");
        assert_eq!(w.commit(1, false).unwrap(), 2);
        assert_eq!(std::fs::read(&path).unwrap(), b"42");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
