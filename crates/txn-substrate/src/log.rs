//! The one mirrored log: **a log is its file followed by its unwritten
//! frames** — or by its memory, where it has no file to write.
//!
//! [`Wal`](crate::Wal) is this log instantiated for
//! [`LogRecord`](crate::LogRecord) and the engine journal
//! (`wfms_engine::Journal`) is it instantiated for `Event`; each adds
//! only its own queries. Everything the two have in common lives here
//! once:
//!
//! * **One copy of each record.** A log mirrored to a file of
//!   [frames](crate::frame) under a [`DurabilityPolicy`] encodes a
//!   record once, straight into the bytes the file is handed, and keeps
//!   nothing else of it: until a barrier writes them (every append
//!   under `PerEvent`/`PerEventSync`; under `Batched`, the records
//!   since the last barrier, at most a fixed cap of bytes) the
//!   writer's frames are the record. The records of one group commit
//!   share one frame ([`crate::frame`] says where else frames open).
//!   An unmirrored log has no file, so memory is all of it: it pays a
//!   `Vec` push per append.
//! * **Readers stream.** [`Log::for_each`] decodes the file's flushed
//!   prefix frame by frame, then the unwritten frames from a copy of
//!   the buffer, then walks memory; [`Log::open`] validates, repairs,
//!   counts and feeds a visitor in one pass over the file. Nothing
//!   hands out a list of records it keeps.
//! * **Torn tails.** Reopening truncates a half-written final frame —
//!   every record of it — reports it in the [`TailReport`] and counts
//!   it; damage before an intact frame is refused with the frame's byte
//!   offset (the rule is [`crate::frame`]'s).
//! * **One writer.** A file in version 1 of the format is read as it
//!   always was, and opening it to append first rewrites it in the
//!   current version, one frame per record, with the atomic rewrite
//!   compaction uses.
//! * **Sticky mirror errors.** Mirror I/O failures never panic: the
//!   first is remembered ([`Log::mirror_error`]) and counted, the file
//!   gets no further writes, and the log carries on in memory — the
//!   frames a failed write held are decoded back into it, and the
//!   writer, holding nothing, is dropped — so its owner can surface the
//!   failure at its API boundary.
//! * **Compaction** drops everything before the last checkpoint record:
//!   a checkpoint always opens a frame, so the file's bytes from that
//!   frame on are copied behind a header and atomically swapped in. No
//!   record is encoded again.
//!
//! Faults are counted, never printed ([`FaultCounters`]).

use crate::durability::{
    atomic_rewrite, DurabilityPolicy, DurableWriter, MirrorError, Refused, TailReport, TornTail,
};
use crate::frame::{self, DecodeError, Encoder, Record, FILE_HEADER_LEN};
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
    /// Frames the unwritten records into its buffer, their one copy,
    /// and writes them at barriers. `None` once a write failed: the
    /// file keeps its flushed prefix and gets nothing more.
    writer: Option<DurableWriter>,
    /// Records in the writer's frames.
    unwritten: usize,
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
    /// Byte offset in the file of the frame it opens (0 in an
    /// unmirrored log).
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
/// Not synchronised: it has one owner, which holds it across each call
/// and so across the mirror write — a database's WAL behind its lock,
/// the engine journal in a cell its one owner borrows. So the file's
/// record order is exactly the append order, and a compaction can never
/// rewrite the file while an append sits between "in memory" and "in
/// file".
#[derive(Debug)]
pub struct Log<R> {
    /// The records no file or writer holds: all of an unmirrored log,
    /// and what a mirrored one appended from its first failed write on.
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
    /// record the file holds, in order, with the byte offset of the
    /// frame it is in, as the one pass that validates the frames
    /// decodes it — how an owner rebuilds its state from the file
    /// without a list of its records ever existing, and can tell where
    /// one group commit ends and the next begins. A file in
    /// version 1 of the format is then rewritten in the current one
    /// (its intact records, a frame each), which drops its torn tail.
    pub fn open(
        path: &Path,
        policy: DurabilityPolicy,
        visit: impl FnMut(usize, R),
    ) -> std::io::Result<(Self, TailReport)> {
        let mut log = Self::default();
        let (mut flushed_len, mut report) = (0, TailReport::default());
        if path.exists() {
            let older;
            (flushed_len, log.checkpoint, report, older) = Self::scan(path, visit)?;
            if older {
                (flushed_len, log.checkpoint) = Self::rewrite(path)?;
            }
            if let Some(tail) = &report.torn_tail {
                if !older {
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(tail.offset)?;
                    f.sync_data()?;
                }
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
            unwritten: 0,
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
        let (mut log, _) = Self::open(&path, policy, |_, _| {}).expect("the path opens as a log");
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
        let (_, _, report, _) = Self::scan(path, |_, rec| records.push(rec))?;
        Ok((records, report))
    }

    /// One pass over the file at `path`: every frame validated, every
    /// record handed to `visit` with its frame's byte offset. Returns the length of the intact
    /// prefix, where the last checkpoint is, the report, and whether
    /// the file is in version 1 of the format.
    fn scan(
        path: &Path,
        mut visit: impl FnMut(usize, R),
    ) -> std::io::Result<(u64, Option<Mark>, TailReport, bool)> {
        let bytes = std::fs::read(path)
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        let (mut index, mut checkpoint) = (0, None);
        let found = frame::visit_file::<R>(&bytes, |offset, rec| {
            if rec.is_checkpoint() {
                let offset = offset as u64;
                checkpoint = Some(Mark { index, offset });
            }
            index += 1;
            visit(offset, rec);
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
        Ok((found.valid_len as u64, checkpoint, report, found.older))
    }

    /// Rewrites the version-1 file at `path` in the current version,
    /// one frame per intact record, with [`atomic_rewrite`]. Returns its
    /// new length and where its last checkpoint is.
    fn rewrite(path: &Path) -> std::io::Result<(u64, Option<Mark>)> {
        let mut frames = Encoder::new(&R::HEADER);
        Self::scan(path, |_, rec| {
            frames.push(&rec, 1);
        })?;
        atomic_rewrite(path, &frames.finish())?;
        let (len, checkpoint, ..) = Self::scan(path, |_, _| {})?;
        Ok((len, checkpoint))
    }

    /// The first mirror I/O error hit, if any. Once set, the file gets
    /// no further writes and the log grows in memory only.
    pub fn mirror_error(&self) -> Option<&MirrorError> {
        self.mirror_error.as_ref()
    }

    /// Records the first mirror failure and stops writing the file.
    /// Nothing is lost with the writer: `frames`, every frame it held,
    /// are decoded back into memory, and the flushed prefix is still
    /// the file's. The writer is dropped holding nothing, so it writes
    /// nothing behind what the failure may have torn.
    fn fail_mirror(&mut self, context: &str, e: &std::io::Error, frames: &[u8]) {
        self.faults.mirror_errors.inc();
        self.mirror_error
            .get_or_insert_with(|| MirrorError::new(context, e));
        if let Some(m) = &mut self.mirror {
            (m.writer, m.unwritten) = (None, 0);
        }
        let mut file = R::HEADER.to_vec();
        file.extend_from_slice(frames);
        frame::visit_file(&file, |_, rec| self.memory.push(rec))
            .expect("a writer's own frames decode");
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
    /// mirror to write whatever the policy. Mirror I/O failures do not
    /// panic; they are reported through [`Log::mirror_error`].
    pub fn append(&mut self, rec: R, barrier: bool) -> usize {
        let index = self.len();
        if !self.frame(&rec, index) {
            self.memory.push(rec);
        }
        self.write(|w| w.commit(barrier), "append");
        index
    }

    /// Appends a batch with a single group commit of the mirror: the
    /// whole batch is framed into the mirror's one buffer and written
    /// with one `write_all` — in the frames the policy draws, so under
    /// `PerEvent` exactly the per-record frames in order — and the
    /// batch end is a barrier.
    pub fn append_batch(&mut self, batch: impl IntoIterator<Item = R>) {
        for rec in batch {
            if !self.frame(&rec, self.len()) {
                self.memory.push(rec);
            }
        }
        self.write(|w| w.commit(true), "append");
    }

    /// Frames `rec`, about to be record `index`, into the mirror's
    /// buffer if there is a file to write, and notes a checkpoint.
    /// Returns whether it did: the frame is then the record's one copy,
    /// and the caller drops the record; else memory is to keep it.
    fn frame(&mut self, rec: &R, index: usize) -> bool {
        let mut offset = 0;
        let framed = match &mut self.mirror {
            Some(Mirror {
                writer: Some(w),
                unwritten,
                flushed_len,
                ..
            }) => {
                offset = *flushed_len + w.push(rec) as u64;
                *unwritten += 1;
                true
            }
            _ => false,
        };
        if rec.is_checkpoint() {
            self.checkpoint = Some(Mark { index, offset });
        }
        framed
    }

    /// Has the writer, if there is one, `write`. A write takes every
    /// frame the writer holds, so once it has put bytes in the file the
    /// file holds every record appended so far; a refused one hands its
    /// frames back to memory.
    fn write(
        &mut self,
        write: impl FnOnce(&mut DurableWriter) -> Result<usize, Refused>,
        context: &str,
    ) {
        let Some(m) = &mut self.mirror else { return };
        let Some(w) = &mut m.writer else { return };
        match write(w) {
            Ok(0) => {}
            Ok(written) => {
                m.flushed_len += written as u64;
                m.records += std::mem::take(&mut m.unwritten);
            }
            Err(refused) => self.fail_mirror(context, &refused.error, &refused.frames),
        }
    }

    /// Forces buffered mirror frames to the file (a durability barrier
    /// under any policy; a no-op for unmirrored logs).
    pub fn flush(&mut self) {
        self.write(DurableWriter::flush, "flush");
    }

    /// Number of records: a counter kept as the log appends.
    pub fn len(&self) -> usize {
        self.mirror.as_ref().map_or(0, |m| m.records + m.unwritten) + self.memory.len()
    }

    /// True if the log holds no record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records held in memory right now: every record of an unmirrored
    /// log, those of a mirrored one whose frames no write has handed to
    /// the OS yet (none after a barrier).
    pub fn resident(&self) -> usize {
        self.mirror.as_ref().map_or(0, |m| m.unwritten) + self.memory.len()
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
    /// file's flushed prefix is read and decoded frame by frame, then
    /// the writer's unwritten frames from a copy of its buffer, each
    /// record handed over owned and then dropped; memory is walked by
    /// reference. O(file) on a mirrored log: for recovery, repair and
    /// audit, not for serving.
    pub fn for_each(&mut self, mut visit: impl FnMut(Cow<'_, R>)) {
        self.file_records(|rec| visit(Cow::Owned(rec)));
        if let Some(w) = self.mirror.as_ref().and_then(|m| m.writer.as_ref()) {
            frame::visit_file(&w.unwritten(&R::HEADER), |_, rec| visit(Cow::Owned(rec)))
                .expect("a writer's own frames decode");
        }
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
    /// mirror failure like any other: sticky, counted, the writer's
    /// frames go back to memory, and the visit sees what memory holds.
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
            let frames = self.mirror.as_mut().and_then(|m| m.writer.as_mut());
            let frames = frames.map(DurableWriter::take).unwrap_or_default();
            self.fail_mirror("read", &e, &frames);
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
            ..
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
                    self.fail_mirror("compact", &e, &[]);
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
    use crate::frame::{put_u64, Field, Names, Reader};
    use proptest::prelude::*;

    /// The smallest record type: one varint; `0` is a checkpoint.
    #[derive(Debug, Clone, PartialEq)]
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
        // are, so that a group commit gets long between barriers.
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

    /// The records of a log in the frames its file holds or will hold:
    /// each frame's records, how many frames were written, and whether
    /// the last one takes more records.
    #[derive(Default)]
    struct Frames {
        frames: Vec<Vec<Num>>,
        flushed: usize,
        open: bool,
    }

    impl Frames {
        /// Appends `v` as the log under a policy allowing `most`
        /// records a frame does.
        fn push(&mut self, v: u64, most: usize) {
            let full = self.frames.last().is_none_or(|f| f.len() >= most);
            if !self.open || full || Num(v).is_checkpoint() {
                self.frames.push(Vec::new());
            }
            self.frames.last_mut().unwrap().push(Num(v));
            self.open = true;
        }

        /// A barrier: every frame closed and written.
        fn flush(&mut self) {
            (self.flushed, self.open) = (self.frames.len(), false);
        }

        fn records(&self) -> Vec<Num> {
            self.frames.iter().flatten().cloned().collect()
        }

        /// The bytes of the written frames.
        fn file(&self) -> Vec<u8> {
            let mut frames = Encoder::new(&Num::HEADER);
            for frame in &self.frames[..self.flushed] {
                for rec in frame {
                    frames.push(rec, usize::MAX);
                }
                frames.seal();
            }
            frames.finish()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever is done to a mirrored log, under each policy: its
        /// records are the model's, the file is exactly the frames of
        /// the flushed prefix — a frame per barrier under `Batched`,
        /// whatever its `n`, a frame per record otherwise, a checkpoint
        /// opening one — and the records of the unwritten frames are
        /// the resident ones. Under `Batched` nothing but a barrier
        /// writes (the byte cap is far beyond these logs).
        #[test]
        fn the_log_is_its_file_followed_by_its_memory(
            ops in prop::collection::vec(op(), 1..40),
            policy in prop_oneof![
                Just(DurabilityPolicy::PerEvent),
                Just(DurabilityPolicy::PerEventSync),
                Just(DurabilityPolicy::Batched { n: 1 }),
                Just(DurabilityPolicy::Batched { n: 3 }),
            ],
        ) {
            let dir = tmp_dir("model");
            let path = dir.join("log");
            let open = || Log::<Num>::open(&path, policy, |_, _| {}).unwrap().0;
            let batching = matches!(policy, DurabilityPolicy::Batched { .. });
            let most = if batching { usize::MAX } else { 1 };
            let mut log = open();
            // The whole log in its frames.
            let mut model = Frames::default();
            for op in ops {
                match op.clone() {
                    Op::Append(v, barrier) => {
                        prop_assert_eq!(log.append(Num(v), barrier), model.records().len());
                        model.push(v, most);
                        if !batching || barrier {
                            model.flush();
                        }
                    }
                    Op::Batch(vs) => {
                        vs.iter().for_each(|&v| model.push(v, most));
                        log.append_batch(vs.into_iter().map(Num));
                        model.flush();
                    }
                    Op::Flush => {
                        log.flush();
                        model.flush();
                    }
                    Op::Compact => {
                        let records = model.records();
                        let start = records.iter().rposition(Num::is_checkpoint).unwrap_or(0);
                        prop_assert_eq!(log.compact(), start);
                        if start > 0 {
                            // A checkpoint opens its frame.
                            let mut before = 0;
                            let frame = model.frames.iter().position(|f| {
                                before += f.len();
                                before - f.len() == start
                            });
                            model.frames.drain(..frame.unwrap());
                            model.flush();
                        }
                    }
                    Op::Reopen => {
                        drop(log);
                        log = open();
                        model.flush();
                    }
                    Op::Crash => {
                        std::mem::forget(log);
                        log = open();
                        model.frames.truncate(model.flushed);
                        model.open = false;
                    }
                }
                let records = model.records();
                let resident: usize = model.frames[model.flushed..].iter().map(Vec::len).sum();
                prop_assert_eq!(log.records(), records.clone(), "after {:?}", op);
                prop_assert_eq!(log.len(), records.len());
                prop_assert_eq!(log.resident(), resident, "after {:?}", op);
                let file = std::fs::read(&path).unwrap();
                prop_assert_eq!(log.file_len(), file.len() as u64);
                prop_assert_eq!(file, model.file(), "after {:?}", op);
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

    /// A barrier the file refuses (a read-only descriptor) hands the
    /// writer's frames back: the log still reads every record, its
    /// length does not change, and the writer is gone holding nothing,
    /// so dropping the log writes nothing — not to the log's file, not
    /// to a file swapped in, where a frame would land behind a torn one.
    #[test]
    fn a_failed_flush_hands_the_frames_back_and_drop_writes_nothing() {
        let dir = tmp_dir("refused");
        let (path, other) = (dir.join("log"), dir.join("other"));
        std::fs::write(&path, frame::file_bytes(&[Num(1)])).unwrap();
        std::fs::write(&other, "").unwrap();
        let read_only = File::open(&path).unwrap();
        let policy = DurabilityPolicy::Batched { n: 2 };
        let mut log = Log::with_injected_file(read_only, path.clone(), policy);
        for v in 2..=6 {
            log.append(Num(v), false);
        }
        let all: Vec<Num> = (1..=6).map(Num).collect();
        assert_eq!((log.len(), log.resident()), (6, 5));
        assert_eq!(log.records(), all, "read from the unwritten frames");
        log.flush();
        assert!(log.mirror_error().is_some(), "a read-only file");
        assert_eq!(log.records(), all, "the refused frames are back in memory");
        assert_eq!((log.len(), log.resident()), (6, 5));
        let writer = log.mirror.as_mut().and_then(|m| m.writer.as_mut());
        assert!(writer.is_none(), "no writer is left to write anything");
        if let Some(w) = writer {
            w.replace_file(OpenOptions::new().append(true).open(&other).unwrap());
        }
        drop(log);
        assert_eq!(std::fs::read(&other).unwrap(), b"");
        assert_eq!(std::fs::read(&path).unwrap(), frame::file_bytes(&[Num(1)]));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
