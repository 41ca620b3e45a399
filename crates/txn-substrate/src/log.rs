//! The one mirrored log: **a log is its file followed by its memory**.
//!
//! [`Wal`](crate::Wal) is this log instantiated for
//! [`LogRecord`](crate::LogRecord) and the engine journal
//! (`wfms_engine::Journal`) is it instantiated for `Event`; each adds
//! only its own queries. Everything the two have in common lives here
//! once:
//!
//! * **Memory holds what the file does not.** An unmirrored log has no
//!   file, so memory is all of it. A log mirrored to a file of
//!   [frames](crate::frame) under a [`DurabilityPolicy`] keeps a record
//!   only until the write that hands its frame to the OS succeeds: none
//!   under `PerEvent`/`PerEventSync`, at most `n - 1` under
//!   `Batched { n }`. A record is framed once, straight into the bytes
//!   the file is handed; an unmirrored log pays a `Vec` push per append.
//! * **Readers stream.** [`Log::for_each`] decodes the file's flushed
//!   prefix frame by frame and then walks memory; [`Log::open`]
//!   validates, repairs, counts and feeds a visitor in one pass over
//!   the file. Nothing hands out a list of records it keeps.
//! * **Torn tails.** Reopening truncates a half-written final frame,
//!   reports it in the [`TailReport`] and counts it; damage before an
//!   intact frame is refused with the frame's byte offset (the rule is
//!   [`crate::frame`]'s).
//! * **Sticky mirror errors.** Mirror I/O failures never panic: the
//!   first is remembered ([`Log::mirror_error`]) and counted, the file
//!   gets no further writes, and the log carries on in memory — the
//!   records of a failed write are still there — so its owner can
//!   surface the failure at its API boundary.
//! * **Compaction** drops everything before the last checkpoint record:
//!   the file's bytes from that frame on are copied behind a header
//!   and atomically swapped in. No record is encoded again.
//!
//! Faults are counted, never printed ([`FaultCounters`]).

use crate::durability::{
    atomic_rewrite, DurabilityPolicy, DurableWriter, MirrorError, TailReport, TornTail,
};
use crate::frame::{self, DecodeError, Record, FILE_HEADER_LEN};
use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wfms_observe::{Counter, Registry};

/// The file side of a mirrored [`Log`].
#[derive(Debug)]
struct Mirror {
    path: PathBuf,
    /// Frames the unflushed records into its buffer and writes them at
    /// the policy's flush points. `None` once a write failed: the file
    /// keeps its flushed prefix and gets nothing more.
    writer: Option<DurableWriter>,
    /// Length of the prefix of the file the log consists of: the header
    /// and every frame a successful write handed to the OS.
    flushed_len: u64,
    /// Records in that prefix.
    records: usize,
}

/// Where the last checkpoint record ([`Record::is_checkpoint`]) sits.
#[derive(Debug, Clone, Copy)]
struct Mark {
    /// Its index in the log.
    index: usize,
    /// Byte offset of its frame in the file (0 in an unmirrored log).
    offset: u64,
}

/// Faults a log absorbed instead of failing: counted, never printed.
/// Standalone until [`Log::adopt_fault_counters`] moves them into a
/// registry — a torn tail is found before any owner of the log exists.
#[derive(Debug, Default, Clone)]
pub struct FaultCounters {
    /// Reopens that found and truncated a half-written final frame.
    pub torn_tails_truncated: Arc<Counter>,
    /// Of those, tails complete enough to fail a length check or CRC
    /// rather than merely short.
    pub crc_failures: Arc<Counter>,
    /// Mirror I/O failures (the first stops the file being written).
    pub mirror_errors: Arc<Counter>,
}

/// An append-only log of `R` records.
///
/// Not synchronised: its owner keeps it behind one lock, held across
/// each call and so across the mirror write — the file's record order
/// is exactly the append order, and a compaction can never rewrite the
/// file while an append sits between "in memory" and "in file".
#[derive(Debug)]
pub struct Log<R> {
    /// The records no file holds: all of an unmirrored log, the
    /// unflushed tail of a mirrored one.
    memory: Vec<R>,
    mirror: Option<Mirror>,
    checkpoint: Option<Mark>,
    mirror_error: Option<MirrorError>,
    faults: FaultCounters,
}

impl<R> Default for Log<R> {
    /// An in-memory log.
    fn default() -> Self {
        Self {
            memory: Vec::new(),
            mirror: None,
            checkpoint: None,
            mirror_error: None,
            faults: FaultCounters::default(),
        }
    }
}

impl<R: Record + Clone> Log<R> {
    /// A log mirrored to `path` under `policy`, over whatever the file
    /// already holds: a torn tail is truncated away, and the
    /// [`TailReport`] says what was found. `visit` is handed every
    /// record the file holds, in order, as the one pass that validates
    /// the frames decodes it — how an owner rebuilds its state from the
    /// file without a list of its records ever existing.
    pub fn open(
        path: &Path,
        policy: DurabilityPolicy,
        visit: impl FnMut(R),
    ) -> std::io::Result<(Self, TailReport)> {
        let mut log = Self::default();
        let (mut flushed_len, mut report) = (0, TailReport::default());
        if path.exists() {
            (flushed_len, log.checkpoint, report) = Self::scan(path, visit)?;
            if let Some(tail) = &report.torn_tail {
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(tail.offset)?;
                f.sync_data()?;
                log.faults.torn_tails_truncated.inc();
                if tail.checksum_failed {
                    log.faults.crc_failures.inc();
                }
            }
        }
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if file.metadata()?.len() == 0 {
            file.write_all(&R::HEADER)?;
            flushed_len = FILE_HEADER_LEN as u64;
        }
        log.mirror = Some(Mirror {
            path: path.to_path_buf(),
            writer: Some(DurableWriter::new(file, policy)),
            flushed_len,
            records: report.records,
        });
        Ok((log, report))
    }

    /// Test-only: [`Log::open`] on `path`, but what is appended from
    /// here on is written to the already-open `file` instead (e.g. one
    /// opened read-only, to exercise the mirror-failure path).
    ///
    /// # Panics
    /// If `path` does not open as a log.
    #[doc(hidden)]
    pub fn with_injected_file(file: File, path: PathBuf, policy: DurabilityPolicy) -> Self {
        let (mut log, _) = Self::open(&path, policy, |_| {}).expect("the path opens as a log");
        if let Some(w) = log.mirror.as_mut().and_then(|m| m.writer.as_mut()) {
            w.replace_file(file);
        }
        log
    }

    /// Decodes the log file at `path` without opening it for append
    /// and without repairing it: a torn tail is reported, not
    /// truncated.
    pub fn read_file(path: &Path) -> std::io::Result<(Vec<R>, TailReport)> {
        let mut records = Vec::new();
        let (.., report) = Self::scan(path, |rec| records.push(rec))?;
        Ok((records, report))
    }

    /// One pass over the file at `path`: every frame validated, every
    /// record handed to `visit`. Returns the length of the intact
    /// prefix, where the last checkpoint is, and the report.
    fn scan(
        path: &Path,
        mut visit: impl FnMut(R),
    ) -> std::io::Result<(u64, Option<Mark>, TailReport)> {
        let bytes = std::fs::read(path)
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        let (mut index, mut checkpoint) = (0, None);
        let found = frame::visit_file::<R>(&bytes, |offset, rec| {
            if rec.is_checkpoint() {
                let offset = offset as u64;
                checkpoint = Some(Mark { index, offset });
            }
            index += 1;
            visit(rec);
        })
        .map_err(|e| {
            let (name, shown) = (R::NAME, path.display());
            let msg = match e {
                DecodeError::NotThisLog => R::not_this_log(path),
                DecodeError::UnsupportedVersion(v) => format!(
                    "{shown} has {name} format version {v}; this build reads version {}",
                    R::HEADER[FILE_HEADER_LEN - 1]
                ),
                DecodeError::Corrupt { offset, detail } => {
                    format!("corrupt {name} {shown}: frame at byte {offset}: {detail}")
                }
            };
            std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
        })?;
        let report = TailReport {
            records: found.records,
            torn_tail: found.torn.map(|fault| TornTail {
                offset: found.valid_len as u64,
                discarded: format!("{} bytes ({fault})", bytes.len() - found.valid_len),
                checksum_failed: fault.is_checksum(),
            }),
        };
        Ok((found.valid_len as u64, checkpoint, report))
    }

    /// The first mirror I/O error hit, if any. Once set, the file gets
    /// no further writes and the log grows in memory only.
    pub fn mirror_error(&self) -> Option<&MirrorError> {
        self.mirror_error.as_ref()
    }

    /// Records the first mirror failure and stops writing the file.
    /// Nothing is lost with the writer: the records it had buffered are
    /// still in memory, and the flushed prefix is still the file's.
    fn fail_mirror(&mut self, context: &str, e: &std::io::Error) {
        self.faults.mirror_errors.inc();
        self.mirror_error
            .get_or_insert_with(|| MirrorError::new(context, e));
        if let Some(m) = &mut self.mirror {
            m.writer = None;
        }
    }

    /// The counters of what this log has absorbed so far.
    pub fn faults(&self) -> &FaultCounters {
        &self.faults
    }

    /// Moves the fault counters into `reg` as
    /// `{prefix}.torn_tails_truncated`, `{prefix}.crc_failures` and
    /// `{prefix}.mirror_errors`, carrying over what was counted so far
    /// (the reopen that found a torn tail ran before the owner and its
    /// registry existed).
    pub fn adopt_fault_counters(&mut self, reg: &Registry, prefix: &str) {
        let adopt = |slot: &mut Arc<Counter>, name: &str| {
            let counter = reg.counter(&format!("{prefix}.{name}"));
            counter.add(slot.get());
            *slot = counter;
        };
        adopt(
            &mut self.faults.torn_tails_truncated,
            "torn_tails_truncated",
        );
        adopt(&mut self.faults.crc_failures, "crc_failures");
        adopt(&mut self.faults.mirror_errors, "mirror_errors");
    }

    /// Appends a record and returns its index. `barrier` forces the
    /// mirror to flush whatever the policy. Mirror I/O failures do not
    /// panic; they are reported through [`Log::mirror_error`].
    pub fn append(&mut self, rec: R, barrier: bool) -> usize {
        let index = self.len();
        self.frame(&rec, index);
        self.memory.push(rec);
        self.write(|w| w.commit(1, barrier), "append");
        index
    }

    /// Appends a batch with a single group commit of the mirror: the
    /// whole batch is framed into the mirror's one buffer and written
    /// with one `write_all` — the bytes are exactly the per-record
    /// frames in order — and the batch end is a flush barrier.
    pub fn append_batch(&mut self, batch: impl IntoIterator<Item = R>) {
        let before = self.memory.len();
        for rec in batch {
            self.frame(&rec, self.len());
            self.memory.push(rec);
        }
        let records = self.memory.len() - before;
        self.write(|w| w.commit(records, true), "append");
    }

    /// Frames `rec`, about to be record `index`, into the mirror's
    /// buffer if there is a file to write, and notes a checkpoint.
    fn frame(&mut self, rec: &R, index: usize) {
        let mut offset = 0;
        if let Some(m) = &mut self.mirror {
            if let Some(w) = &mut m.writer {
                offset = m.flushed_len + w.buf().len() as u64;
                frame::encode_frame(rec, w.buf());
            }
        }
        if rec.is_checkpoint() {
            self.checkpoint = Some(Mark { index, offset });
        }
    }

    /// Has the writer, if there is one, `write`. When that puts bytes
    /// in the file, the file holds the frames of everything in memory,
    /// so memory lets go of it; while the policy is still batching, and
    /// after a failure, memory keeps it.
    fn write(
        &mut self,
        write: impl FnOnce(&mut DurableWriter) -> std::io::Result<usize>,
        context: &str,
    ) {
        let Some(m) = &mut self.mirror else { return };
        let Some(w) = &mut m.writer else { return };
        match write(w) {
            Ok(0) => {}
            Ok(written) => {
                m.flushed_len += written as u64;
                m.records += self.memory.len();
                self.memory.clear();
            }
            Err(e) => self.fail_mirror(context, &e),
        }
    }

    /// Forces buffered mirror frames to the file (a durability barrier
    /// under any policy; a no-op for unmirrored logs).
    pub fn flush(&mut self) {
        self.write(DurableWriter::flush, "flush");
    }

    /// Number of records: a counter kept as the log appends.
    pub fn len(&self) -> usize {
        self.mirror.as_ref().map_or(0, |m| m.records) + self.memory.len()
    }

    /// True if the log holds no record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records held in memory right now: every record of an unmirrored
    /// log, those of a mirrored one whose frames no write has handed to
    /// the OS yet.
    pub fn resident(&self) -> usize {
        self.memory.len()
    }

    /// Bytes of the file the log consists of (header and flushed
    /// frames); 0 for an unmirrored log.
    pub fn file_len(&self) -> u64 {
        self.mirror.as_ref().map_or(0, |m| m.flushed_len)
    }

    /// Records from the last checkpoint on — all of them if there is
    /// none. What a replay would read.
    pub fn since_checkpoint(&self) -> usize {
        self.len() - self.checkpoint.map_or(0, |mark| mark.index)
    }

    /// Visits every record in log order — the one way to read them. The
    /// file's flushed prefix is read and decoded frame by frame, each
    /// record handed over owned and then dropped; memory is walked by
    /// reference. O(file) on a mirrored log: for recovery, repair and
    /// audit, not for serving.
    pub fn for_each(&mut self, mut visit: impl FnMut(Cow<'_, R>)) {
        self.file_records(|rec| visit(Cow::Owned(rec)));
        self.memory.iter().for_each(|rec| visit(Cow::Borrowed(rec)));
    }

    /// A copy of every record.
    pub fn records(&mut self) -> Vec<R> {
        let mut all = Vec::with_capacity(self.len());
        self.for_each(|rec| all.push(rec.into_owned()));
        all
    }

    /// Decodes the records of the file's flushed prefix into `visit`. A
    /// file that cannot be read back as the frames this log wrote is a
    /// mirror failure like any other: sticky, counted, and the visit
    /// sees what memory holds.
    fn file_records(&mut self, mut visit: impl FnMut(R)) {
        let Some(m) = self.mirror.as_ref().filter(|m| m.records > 0) else {
            return;
        };
        let mut bytes = Vec::with_capacity(m.flushed_len as usize);
        let read = File::open(&m.path)
            .and_then(|f| f.take(m.flushed_len).read_to_end(&mut bytes))
            .and_then(|_| match frame::visit_file(&bytes, |_, rec| visit(rec)) {
                Ok(found) if found.records == m.records && found.torn.is_none() => Ok(()),
                _ => Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{} no longer holds what was written", m.path.display()),
                )),
            });
        if let Err(e) = read {
            self.fail_mirror("read", &e);
        }
    }

    /// Drops every record before the last checkpoint
    /// ([`Record::is_checkpoint`]); a no-op when there is none. When
    /// mirrored to a file, the file is **atomically rewritten** (temp
    /// file + rename) as its header plus a byte copy of everything from
    /// the checkpoint's frame on: a crash during compaction leaves
    /// either the old or the new complete file, never a half-truncated
    /// one. A log whose mirror has failed compacts what memory holds,
    /// and only if the checkpoint is there. Returns the number of
    /// records dropped.
    pub fn compact(&mut self) -> usize {
        let Some(mark) = self.checkpoint.filter(|mark| mark.index > 0) else {
            return 0;
        };
        // The copy is of the file: everything appended must be in it.
        self.flush();
        if let Some(Mirror {
            path,
            writer: Some(w),
            flushed_len,
            records,
        }) = &mut self.mirror
        {
            let mut contents = R::HEADER.to_vec();
            let rewritten = File::open(&*path)
                .and_then(|mut f| {
                    f.seek(SeekFrom::Start(mark.offset))?;
                    f.take(*flushed_len - mark.offset)
                        .read_to_end(&mut contents)
                })
                .and_then(|_| atomic_rewrite(path, &contents));
            match rewritten {
                Ok(file) => {
                    w.replace_file(file);
                    (*flushed_len, *records) = (contents.len() as u64, *records - mark.index);
                }
                Err(e) => {
                    self.fail_mirror("compact", &e);
                    return 0;
                }
            }
        } else {
            // No file being written: memory is where the log can shrink.
            let on_file = self.mirror.as_ref().map_or(0, |m| m.records);
            let Some(in_memory) = mark.index.checked_sub(on_file) else {
                return 0;
            };
            self.memory.drain(..in_memory);
            if let Some(m) = &mut self.mirror {
                (m.flushed_len, m.records) = (0, 0);
            }
        }
        self.checkpoint = Some(Mark {
            index: 0,
            offset: FILE_HEADER_LEN as u64,
        });
        mark.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{put_u64, Field, Reader};
    use proptest::prelude::*;

    /// The smallest record type: one varint; `0` is a checkpoint.
    #[derive(Debug, Clone, PartialEq)]
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
            self.0 == 0
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wftx-log-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[derive(Debug, Clone)]
    enum Op {
        Append(u64, bool),
        Batch(Vec<u64>),
        Flush,
        Compact,
        /// Drop the log (which hands the OS what it buffers) and open
        /// the file again.
        Reopen,
        /// Lose the log without a drop, as a killed process does, and
        /// open the file again: the unflushed records are gone.
        Crash,
    }

    fn op() -> impl Strategy<Value = Op> {
        // Small values make `0`, the checkpoint, common; plain appends
        // are, so that a batching policy gets to its threshold.
        let append = |barrier| (0u64..4).prop_map(move |v| Op::Append(v, barrier));
        prop_oneof![
            append(false),
            append(false),
            append(false),
            append(false),
            append(true),
            prop::collection::vec(0u64..4, 0..4).prop_map(Op::Batch),
            Just(Op::Flush),
            Just(Op::Compact),
            Just(Op::Reopen),
            Just(Op::Crash),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever is done to a mirrored log, under each policy: its
        /// records are the model's, the file is exactly the frames of
        /// the flushed prefix, and memory holds exactly the rest.
        #[test]
        fn the_log_is_its_file_followed_by_its_memory(
            ops in prop::collection::vec(op(), 1..40),
            policy in prop_oneof![
                Just(DurabilityPolicy::PerEvent),
                Just(DurabilityPolicy::PerEventSync),
                Just(DurabilityPolicy::Batched { n: 3 }),
            ],
        ) {
            let dir = tmp_dir("model");
            let path = dir.join("log");
            let open = || Log::<Num>::open(&path, policy, |_| {}).unwrap().0;
            let batching = matches!(policy, DurabilityPolicy::Batched { .. });
            let mut log = open();
            // The whole log, how many of its records the file holds,
            // and how many appends the policy has seen since a flush.
            let (mut model, mut flushed, mut pending) = (Vec::<Num>::new(), 0, 0);
            for op in ops {
                match op.clone() {
                    Op::Append(v, barrier) => {
                        prop_assert_eq!(log.append(Num(v), barrier), model.len());
                        model.push(Num(v));
                        pending += 1;
                        if !batching || barrier || pending >= 3 {
                            (flushed, pending) = (model.len(), 0);
                        }
                    }
                    Op::Batch(vs) => {
                        model.extend(vs.iter().map(|&v| Num(v)));
                        log.append_batch(vs.into_iter().map(Num));
                        (flushed, pending) = (model.len(), 0);
                    }
                    Op::Flush => {
                        log.flush();
                        (flushed, pending) = (model.len(), 0);
                    }
                    Op::Compact => {
                        let start = model.iter().rposition(Num::is_checkpoint).unwrap_or(0);
                        prop_assert_eq!(log.compact(), start);
                        if start > 0 {
                            model.drain(..start);
                            (flushed, pending) = (model.len(), 0);
                        }
                    }
                    Op::Reopen => {
                        drop(log);
                        log = open();
                        (flushed, pending) = (model.len(), 0);
                    }
                    Op::Crash => {
                        std::mem::forget(log);
                        log = open();
                        model.truncate(flushed);
                        pending = 0;
                    }
                }
                prop_assert_eq!(log.records(), model.clone(), "after {:?}", op);
                prop_assert_eq!(log.len(), model.len());
                prop_assert_eq!(log.resident(), model.len() - flushed, "after {:?}", op);
                let file = std::fs::read(&path).unwrap();
                prop_assert_eq!(log.file_len(), file.len() as u64);
                prop_assert_eq!(file, frame::file_bytes(&model[..flushed]), "after {:?}", op);
            }
            prop_assert!(log.mirror_error().is_none());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A flush the disk refuses (`/dev/full` answers every write with
    /// `ENOSPC`) loses nothing: the log is still the frames the file
    /// held followed by the records the write did not take, the error
    /// is kept, and later appends are served from memory.
    #[test]
    fn failed_flush_keeps_the_unflushed_records_in_memory() {
        let dir = tmp_dir("full");
        let path = dir.join("log");
        let flushed = [Num(1), Num(0), Num(2)];
        std::fs::write(&path, frame::file_bytes(&flushed)).unwrap();
        let full = OpenOptions::new().write(true).open("/dev/full").unwrap();
        let mut log =
            Log::with_injected_file(full, path.clone(), DurabilityPolicy::Batched { n: 8 });
        assert_eq!((log.len(), log.resident()), (3, 0));

        assert_eq!(log.append(Num(3), false), 3);
        log.append(Num(4), false);
        assert!(log.mirror_error().is_none(), "nothing written yet");
        log.flush();
        let err = log
            .mirror_error()
            .cloned()
            .expect("the failed flush is remembered");
        assert!(err.message.contains("flush"), "{err}");
        assert_eq!(log.faults().mirror_errors.get(), 1);
        let mut all: Vec<Num> = flushed.to_vec();
        all.extend([Num(3), Num(4)]);
        assert_eq!(log.records(), all);
        assert_eq!((log.len(), log.resident()), (5, 2));

        // From here on the log grows in memory; the file is left alone.
        assert_eq!(log.append(Num(5), true), 5);
        all.push(Num(5));
        assert_eq!(log.records(), all);
        assert_eq!(log.mirror_error(), Some(&err), "first error wins");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            frame::file_bytes(&flushed),
            "the file keeps its flushed prefix"
        );
        // The checkpoint is in the file, which can no longer be
        // rewritten: nothing to compact. One in memory can be.
        assert_eq!(log.compact(), 0);
        log.append(Num(0), false);
        assert_eq!(log.compact(), 6);
        assert_eq!(log.records(), [Num(0)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
