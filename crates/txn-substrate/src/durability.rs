//! Durability policies for file-mirrored logs.
//!
//! Both logs in this workspace — the database [`Wal`](crate::Wal), a
//! JSON-lines file, and the engine journal (`wfms_engine::Journal`), a
//! file of binary frames — sit behind a `BufWriter`. *When* the
//! buffered bytes actually reach the file (and the disk) is a policy
//! decision with a real trade-off:
//! flushing more often narrows the window of work lost in a crash,
//! syncing pushes the durability point through the OS page cache at a
//! per-event `fdatasync` cost, and batching amortises both over group
//! commits the way high-throughput WAL implementations do.
//!
//! The torn-tail semantics documented on the reopen paths
//! ([`read_json_lines`] here, `Journal::with_file_report` in the
//! engine) hold under every policy: a crash can leave at
//! most one partially written record at the end of the file, and
//! reopen truncates it. What the policy changes is how many *complete*
//! records may be lost (`PerEvent`/`PerEventSync`: none that the
//! appender returned from; `Batched { n }`: up to `n - 1`).

use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{BufWriter, Write};

/// When a file-mirrored log makes appended records durable.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
    /// [`crate::Wal::flush`]). Up to `n - 1` trailing records may be
    /// lost in a crash; throughput-oriented sweeps use this.
    Batched {
        /// Flush interval in appended records (`0` is treated as `1`).
        n: usize,
    },
}

/// A `BufWriter<File>` plus the policy state deciding when to flush
/// and sync. Shared by the WAL and (re-exported) the engine journal.
#[derive(Debug)]
pub struct DurableWriter {
    writer: BufWriter<File>,
    policy: DurabilityPolicy,
    /// Appends since the last flush (only meaningful for `Batched`).
    pending: usize,
}

impl DurableWriter {
    /// Wraps `file` (positioned at its end, append mode) under `policy`.
    pub fn new(file: File, policy: DurabilityPolicy) -> Self {
        Self {
            writer: BufWriter::new(file),
            policy,
            pending: 0,
        }
    }

    /// The policy this writer enforces.
    pub fn policy(&self) -> DurabilityPolicy {
        self.policy
    }

    /// Writes one record as a newline-terminated line (the WAL's
    /// JSON-lines form). `barrier` forces a flush regardless of policy
    /// (commit records). Returns any I/O error without panicking —
    /// callers decide whether a log that cannot be written is fatal.
    pub fn append_line(&mut self, line: &[u8], barrier: bool) -> std::io::Result<()> {
        self.writer.write_all(line)?;
        self.append_chunk(b"\n", 1, barrier)
    }

    /// Writes a pre-assembled chunk of `records` complete records
    /// (already framed or newline-terminated by the caller) in one
    /// `write_all` — the group-commit form of
    /// [`DurableWriter::append_line`]. The policy sees `records`
    /// appends; `barrier` forces a flush at the chunk end regardless
    /// of policy.
    pub fn append_chunk(
        &mut self,
        chunk: &[u8],
        records: usize,
        barrier: bool,
    ) -> std::io::Result<()> {
        self.writer.write_all(chunk)?;
        self.pending += records;
        let flush_now = barrier
            || match self.policy {
                DurabilityPolicy::PerEvent | DurabilityPolicy::PerEventSync => true,
                DurabilityPolicy::Batched { n } => self.pending >= n.max(1),
            };
        if flush_now {
            self.flush()?;
        }
        Ok(())
    }

    /// Flushes buffered lines to the OS (and to disk under
    /// `PerEventSync`).
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()?;
        self.pending = 0;
        if self.policy == DurabilityPolicy::PerEventSync {
            self.writer.get_ref().sync_data()?;
        }
        Ok(())
    }

    /// Replaces the underlying file (after an atomic rewrite swapped a
    /// new file into place). Pending policy state resets.
    pub fn replace_file(&mut self, file: File) {
        self.writer = BufWriter::new(file);
        self.pending = 0;
    }

    /// The underlying file, flushing buffered lines first.
    pub fn file_mut(&mut self) -> std::io::Result<&mut File> {
        self.writer.flush()?;
        self.pending = 0;
        Ok(self.writer.get_mut())
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
    /// The discarded partial line (for the recovery log).
    pub discarded: String,
}

/// Reads a JSON-lines log file, tolerating a **torn tail**: if the
/// *final* line fails to parse (a crash interrupted an append), the
/// file is truncated back to the end of the last complete record and
/// reopen succeeds — recovery must work exactly when it is needed. A
/// parse failure on any *non-final* line is mid-file corruption, which
/// no amount of truncation can repair, and is still an
/// [`InvalidData`](std::io::ErrorKind::InvalidData) error (naming the
/// line number).
///
/// A final line that parses but lacks its trailing newline (the crash
/// hit between the record bytes and the `\n`) is kept; the missing
/// newline is re-written so subsequent appends don't fuse with it.
pub fn read_json_lines<T: serde::Deserialize>(
    path: &std::path::Path,
) -> std::io::Result<(Vec<T>, TailReport)> {
    let bytes = std::fs::read(path)?;
    let mut records = Vec::new();
    let mut report = TailReport::default();
    let mut offset = 0usize; // start of the current line
    let mut needs_newline_fix = false;
    let mut lines = bytes.split_inclusive(|&b| b == b'\n').peekable();
    let mut line_no = 0usize;
    while let Some(raw) = lines.next() {
        line_no += 1;
        let is_last = lines.peek().is_none();
        let line_len = raw.len();
        let line = match std::str::from_utf8(raw) {
            Ok(s) => s.trim_end_matches('\n').trim(),
            Err(_) if is_last => {
                // Torn mid-UTF-8: treat as a torn tail below.
                report.torn_tail = Some(TornTail {
                    offset: offset as u64,
                    discarded: String::from_utf8_lossy(raw).into_owned(),
                });
                break;
            }
            Err(e) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("corrupt record at line {line_no}: {e}"),
                ))
            }
        };
        if line.is_empty() {
            offset += line_len;
            continue;
        }
        match serde_json::from_str::<T>(line) {
            Ok(rec) => {
                records.push(rec);
                if is_last && !raw.ends_with(b"\n") {
                    needs_newline_fix = true;
                }
            }
            Err(_) if is_last => {
                report.torn_tail = Some(TornTail {
                    offset: offset as u64,
                    discarded: line.to_owned(),
                });
            }
            Err(e) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("corrupt record at line {line_no}: {e}"),
                ))
            }
        }
        offset += line_len;
    }
    if let Some(tail) = &report.torn_tail {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(tail.offset)?;
        f.sync_data()?;
    } else if needs_newline_fix {
        let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
        f.write_all(b"\n")?;
        f.sync_data()?;
    }
    report.records = records.len();
    Ok((records, report))
}

/// Atomically rewrites the log at `path` with whatever `write`
/// produces: writes a sibling temp file, syncs it, and renames it over
/// the original — a crash during compaction leaves either the old
/// complete file or the new complete file, never a half-rewritten one.
/// Returns the reopened (append-positioned) file.
pub fn atomic_rewrite(
    path: &std::path::Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> std::io::Result<File> {
    let tmp_path = path.with_extension("rewrite-tmp");
    {
        let mut tmp = BufWriter::new(File::create(&tmp_path)?);
        write(&mut tmp)?;
        tmp.flush()?;
        tmp.get_ref().sync_data()?;
    }
    std::fs::rename(&tmp_path, path)?;
    std::fs::OpenOptions::new().append(true).open(path)
}

/// Convenience used by tests and the reopen paths: does the reader
/// side consider this line a complete record?
pub fn is_complete_record<T: serde::Deserialize>(line: &str) -> bool {
    serde_json::from_str::<T>(line.trim()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

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
    fn torn_tail_is_truncated_and_reported() {
        let dir = tmp_dir("torn");
        let path = dir.join("log");
        std::fs::write(&path, "1\n2\n{\"truncat").unwrap();
        let (recs, report) = read_json_lines::<i64>(&path).unwrap();
        assert_eq!(recs, vec![1, 2]);
        let tail = report.torn_tail.expect("tail reported");
        assert_eq!(tail.offset, 4);
        assert_eq!(tail.discarded, "{\"truncat");
        // The file itself was repaired: a second reopen is clean.
        let (recs2, report2) = read_json_lines::<i64>(&path).unwrap();
        assert_eq!(recs2, vec![1, 2]);
        assert!(report2.torn_tail.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_final_newline_is_repaired() {
        let dir = tmp_dir("nl");
        let path = dir.join("log");
        std::fs::write(&path, "1\n2").unwrap();
        let (recs, report) = read_json_lines::<i64>(&path).unwrap();
        assert_eq!(recs, vec![1, 2]);
        assert!(report.torn_tail.is_none());
        let mut s = String::new();
        File::open(&path).unwrap().read_to_string(&mut s).unwrap();
        assert_eq!(s, "1\n2\n", "newline restored so appends don't fuse");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_still_errors() {
        let dir = tmp_dir("mid");
        let path = dir.join("log");
        std::fs::write(&path, "1\n{\"bad\n3\n").unwrap();
        let err = read_json_lines::<i64>(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_policy_defers_flush() {
        let dir = tmp_dir("batch");
        let path = dir.join("log");
        let file = File::create(&path).unwrap();
        let mut w = DurableWriter::new(file, DurabilityPolicy::Batched { n: 3 });
        w.append_line(b"1", false).unwrap();
        w.append_line(b"2", false).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"", "still buffered");
        w.append_line(b"3", false).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"1\n2\n3\n", "group flushed");
        w.append_line(b"4", true).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"1\n2\n3\n4\n",
            "barrier flushes"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_rewrite_replaces_contents() {
        let dir = tmp_dir("rewrite");
        let path = dir.join("log");
        std::fs::write(&path, "1\n2\n3\n").unwrap();
        let mut f = atomic_rewrite(&path, |w| w.write_all(b"9\n")).unwrap();
        writeln!(f, "10").unwrap();
        let (recs, _) = read_json_lines::<i64>(&path).unwrap();
        assert_eq!(recs, vec![9, 10], "rewritten file accepts appends");
        assert!(!dir.join("log.rewrite-tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn per_event_sync_policy_syncs_every_append() {
        let dir = tmp_dir("sync");
        let path = dir.join("log");
        let file = File::create(&path).unwrap();
        let mut w = DurableWriter::new(file, DurabilityPolicy::PerEventSync);
        w.append_line(b"42", false).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"42\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
