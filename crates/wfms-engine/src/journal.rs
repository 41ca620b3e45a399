//! The persistent execution journal.
//!
//! Same shape as the substrate's WAL: an in-memory event list,
//! optionally mirrored to a file — of binary frames, one per event, in
//! the format `codec.rs` defines (`docs/recovery.md` describes it
//! byte by byte). *When* those frames reach the file is governed by a
//! [`DurabilityPolicy`]: the default
//! `PerEvent` flushes the writer after every append (navigation events
//! are rare compared to database updates, so per-event flushing is
//! affordable and makes the recovery point exact **for process
//! crashes** — bytes handed to the OS survive the process dying, but
//! only `PerEventSync` pushes them through the page cache to stable
//! storage, and `Batched{n}` may leave up to `n-1` complete events
//! unflushed). See `docs/recovery.md` for how the crash-point sweep
//! exercises each policy's loss window.
//!
//! Reopening a mirrored journal tolerates a **torn tail**: a crash
//! mid-append leaves a partial final frame, which is truncated away,
//! reported in the [`TailReport`] and counted (mid-file corruption is
//! still rejected, naming the byte offset). Mirror I/O errors never
//! panic the engine: the first error is remembered
//! ([`Journal::mirror_error`]) and counted, the mirror is disabled, and
//! the in-memory journal keeps working so the engine can park the
//! affected instances instead of dying mid-navigation.
//!
//! JSON survives in two places only: [`Journal::upgrade_json_file`]
//! converts a journal written before the binary format, once, and
//! `fmtm journal dump` renders events through `Serialize for Event`.

use crate::codec::{self, DecodeError};
use crate::event::Event;
use crate::metrics::JournalProbes;
use parking_lot::Mutex;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use txn_substrate::durability::{
    atomic_rewrite, DurabilityPolicy, DurableWriter, MirrorError, TailReport, TornTail,
};
use wfms_observe::{Counter, Registry};

/// The file mirror of a [`Journal`]: the policy-driven writer plus
/// the path (needed for atomic compaction rewrites) and a reused
/// frame buffer.
#[derive(Debug)]
struct JournalMirror {
    writer: DurableWriter,
    path: PathBuf,
    /// Frame buffer, reused across appends: each event is encoded
    /// exactly once, straight into the bytes the writer is handed, and
    /// a group commit costs one buffer fill and one write.
    buf: Vec<u8>,
}

/// Faults the journal absorbed instead of failing: counted, never
/// printed. Standalone until the owning engine adopts them into its
/// metrics registry ([`Journal::attach_fault_counters`]) — a torn tail
/// is found before any engine exists.
#[derive(Debug, Default)]
struct FaultCounters {
    torn_tails_truncated: Arc<Counter>,
    mirror_errors: Arc<Counter>,
    crc_failures: Arc<Counter>,
}

/// What [`Journal::upgrade_json_file`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Upgrade {
    /// The file already holds binary frames; nothing was written.
    AlreadyBinary,
    /// The JSON lines were rewritten as binary frames.
    Converted {
        /// Events carried over.
        events: usize,
        /// A half-written final line that was dropped, as the old
        /// reopen path would have dropped it.
        torn_tail: Option<TornTail>,
    },
}

/// An append-only journal of navigation events.
///
/// Lock order: `events` is always acquired **before** `mirror`, and
/// held across the mirror write, so the file's event order is exactly
/// the in-memory order and a concurrent [`Journal::compact`] can
/// never rewrite the file while an append sits between "in memory"
/// and "in file".
#[derive(Debug, Default)]
pub struct Journal {
    events: Mutex<Vec<Event>>,
    mirror: Mutex<Option<JournalMirror>>,
    /// Fast-path flag mirroring `mirror.is_some()`: purely in-memory
    /// journals (the steady-state engine default and every parallel
    /// worker shard) skip encoding entirely — events are only framed
    /// when a file mirror needs the bytes.
    mirrored: AtomicBool,
    mirror_error: Mutex<Option<MirrorError>>,
    faults: Mutex<FaultCounters>,
    /// Observability instruments, attached by the engine when its
    /// observer is enabled. `OnceLock::get` on the (common) empty cell
    /// is a single atomic load, so unobserved journals pay nothing.
    probes: OnceLock<JournalProbes>,
}

/// A journal file's events and what was found at its end.
struct Loaded {
    events: Vec<Event>,
    report: TailReport,
    /// The torn tail was complete enough to fail a checksum.
    checksum_failed: bool,
}

/// Reads and decodes `path` without touching it.
fn load(path: &Path) -> std::io::Result<Loaded> {
    let bytes = std::fs::read(path)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    let decoded = codec::decode_file(&bytes).map_err(|e| {
        let msg = match e {
            DecodeError::NotAJournal => format!(
                "{0} is not a binary journal; a JSON-lines journal written before the \
                 binary format is converted once with `fmtm journal upgrade {0}`",
                path.display()
            ),
            DecodeError::UnsupportedVersion(v) => format!(
                "{} has journal format version {v}; this build reads version 1",
                path.display()
            ),
            DecodeError::Corrupt { offset, detail } => format!(
                "corrupt journal {}: frame at byte {offset}: {detail}",
                path.display()
            ),
        };
        std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
    })?;
    Ok(Loaded {
        report: TailReport {
            records: decoded.events.len(),
            torn_tail: decoded.torn.map(|fault| TornTail {
                offset: decoded.valid_len as u64,
                discarded: format!("{} bytes ({fault})", bytes.len() - decoded.valid_len),
            }),
        },
        checksum_failed: decoded.torn.is_some_and(|f| f.is_checksum()),
        events: decoded.events,
    })
}

impl Journal {
    /// An in-memory journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// A journal mirrored to `path` under the default
    /// [`DurabilityPolicy::PerEvent`]; existing events are loaded
    /// first (this is how [`crate::recovery`] reopens a crashed
    /// engine's journal).
    pub fn with_file(path: &Path) -> std::io::Result<Self> {
        Self::with_file_policy(path, DurabilityPolicy::default())
    }

    /// A journal mirrored to `path` under an explicit durability
    /// policy.
    pub fn with_file_policy(path: &Path, policy: DurabilityPolicy) -> std::io::Result<Self> {
        Self::with_file_report(path, policy).map(|(j, _)| j)
    }

    /// Like [`Journal::with_file_policy`] but also returns the
    /// [`TailReport`] of the reopen, so callers (and the crash sweep)
    /// can observe whether a torn tail was truncated.
    pub fn with_file_report(
        path: &Path,
        policy: DurabilityPolicy,
    ) -> std::io::Result<(Self, TailReport)> {
        let journal = Self::new();
        let mut report = TailReport::default();
        if path.exists() {
            let loaded = load(path)?;
            if let Some(tail) = &loaded.report.torn_tail {
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(tail.offset)?;
                f.sync_data()?;
                let faults = journal.faults.lock();
                faults.torn_tails_truncated.inc();
                if loaded.checksum_failed {
                    faults.crc_failures.inc();
                }
            }
            report = loaded.report;
            *journal.events.lock() = loaded.events;
        }
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if file.metadata()?.len() == 0 {
            file.write_all(&codec::FILE_HEADER)?;
        }
        *journal.mirror.lock() = Some(JournalMirror {
            writer: DurableWriter::new(file, policy),
            path: path.to_path_buf(),
            buf: Vec::new(),
        });
        journal.mirrored.store(true, Ordering::Release);
        Ok((journal, report))
    }

    /// The bytes of a journal file holding exactly `events`: the file
    /// header, then one frame per event. What a mirrored journal has
    /// written once `events` were appended and flushed — frames do not
    /// depend on their neighbours, so any prefix of `events` encodes to
    /// a prefix of these bytes (the crash sweep cuts its files here).
    pub fn file_bytes(events: &[Event]) -> Vec<u8> {
        let mut bytes = codec::FILE_HEADER.to_vec();
        for event in events {
            codec::encode_frame(event, &mut bytes);
        }
        bytes
    }

    /// Decodes the journal file at `path` without opening it for
    /// append and without repairing it: a torn tail is reported, not
    /// truncated. For tools that only look (`fmtm journal dump`).
    pub fn read_file(path: &Path) -> std::io::Result<(Vec<Event>, TailReport)> {
        load(path).map(|l| (l.events, l.report))
    }

    /// Converts a JSON-lines journal (the format before binary frames)
    /// at `path` to the binary format, atomically: the frames are
    /// written to a sibling temp file that is renamed over the
    /// original, so a crash leaves the old file or the new one. A
    /// half-written final line is dropped, as reopening used to drop
    /// it; an unparseable line anywhere else is an error and the file
    /// is left alone.
    pub fn upgrade_json_file(path: &Path) -> std::io::Result<Upgrade> {
        let bytes = std::fs::read(path)?;
        if !matches!(codec::decode_file(&bytes), Err(DecodeError::NotAJournal)) {
            // Binary already (or damaged binary, which the next open
            // reports); not this tool's input either way.
            return Ok(Upgrade::AlreadyBinary);
        }
        let mut events = Vec::new();
        let mut torn_tail = None;
        let mut offset = 0usize;
        let mut lines = bytes
            .split_inclusive(|&b| b == b'\n')
            .enumerate()
            .peekable();
        while let Some((i, raw)) = lines.next() {
            let parsed = match std::str::from_utf8(raw).map(str::trim) {
                Ok("") => Ok(None),
                Ok(line) => serde_json::from_str::<Event>(line)
                    .map(Some)
                    .map_err(|e| e.to_string()),
                Err(e) => Err(e.to_string()),
            };
            match parsed {
                Ok(event) => events.extend(event),
                Err(_) if lines.peek().is_none() => {
                    torn_tail = Some(TornTail {
                        offset: offset as u64,
                        discarded: String::from_utf8_lossy(raw).into_owned(),
                    });
                }
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("{}: corrupt record at line {}: {e}", path.display(), i + 1),
                    ))
                }
            }
            offset += raw.len();
        }
        atomic_rewrite(path, |w| w.write_all(&Self::file_bytes(&events)))?;
        Ok(Upgrade::Converted {
            events: events.len(),
            torn_tail,
        })
    }

    /// Test-only: mirrors the journal to an already-open `file` (e.g.
    /// one opened read-only, to exercise the mirror-failure path).
    #[doc(hidden)]
    pub fn with_injected_file(
        file: std::fs::File,
        path: PathBuf,
        policy: DurabilityPolicy,
    ) -> Self {
        let journal = Self::new();
        *journal.mirror.lock() = Some(JournalMirror {
            writer: DurableWriter::new(file, policy),
            path,
            buf: Vec::new(),
        });
        journal.mirrored.store(true, Ordering::Release);
        journal
    }

    /// The first mirror I/O error hit, if any. Once set, the file
    /// mirror is disabled and the journal serves from memory only; the
    /// engine surfaces this as
    /// [`EngineError::Journal`](crate::EngineError::Journal).
    pub fn mirror_error(&self) -> Option<MirrorError> {
        self.mirror_error.lock().clone()
    }

    /// Records the first mirror failure and disables the mirror.
    fn fail_mirror(&self, guard: &mut Option<JournalMirror>, context: &str, e: &std::io::Error) {
        self.faults.lock().mirror_errors.inc();
        let mut slot = self.mirror_error.lock();
        if slot.is_none() {
            *slot = Some(MirrorError::new(context, e));
        }
        *guard = None;
        self.mirrored.store(false, Ordering::Release);
    }

    /// Attaches metrics probes (append counts, append/flush latency,
    /// batch sizes). First attachment wins; called once by the engine
    /// at construction when observability is enabled.
    pub(crate) fn attach_probes(&self, probes: JournalProbes) {
        let _ = self.probes.set(probes);
    }

    /// Moves the fault counters into `reg` as
    /// `journal.torn_tails_truncated`, `journal.mirror_errors` and
    /// `journal.crc_failures`, carrying over what was counted so far
    /// (the reopen that found a torn tail ran before the engine and its
    /// registry existed). Called by the engine at construction, with
    /// or without an enabled observer: faults are cold and always
    /// counted, like the `recovery.*` fix-ups.
    pub(crate) fn attach_fault_counters(&self, reg: &Registry) {
        let mut faults = self.faults.lock();
        let adopt = |slot: &mut Arc<Counter>, name: &str| {
            let counter = reg.counter(name);
            counter.add(slot.get());
            *slot = counter;
        };
        adopt(
            &mut faults.torn_tails_truncated,
            "journal.torn_tails_truncated",
        );
        adopt(&mut faults.mirror_errors, "journal.mirror_errors");
        adopt(&mut faults.crc_failures, "journal.crc_failures");
    }

    /// Appends an event. Mirror I/O failures do not panic; they are
    /// reported through [`Journal::mirror_error`].
    ///
    /// Encoding happens **only when a file mirror is attached**: the
    /// in-memory journal stores the event value itself, so the
    /// unmirrored steady state (every benchmark engine and every
    /// parallel worker shard) pays a lock and a `Vec` push, nothing
    /// more.
    pub fn append(&self, event: Event) {
        if !self.mirrored.load(Ordering::Acquire) && self.probes.get().is_none() {
            self.events.lock().push(event);
            return;
        }
        // Latency is sampled 1-in-16; the append counter stays exact.
        let t0 = self
            .probes
            .get()
            .and_then(|p| p.sample_tick().then(std::time::Instant::now));
        let mut events = self.events.lock();
        self.mirror_frames(std::slice::from_ref(&event), false);
        events.push(event);
        drop(events);
        if let Some(p) = self.probes.get() {
            p.appends.inc();
            if let Some(t0) = t0 {
                p.append_ns.record(t0.elapsed().as_nanos() as u64);
            }
        }
    }

    /// Appends a batch of events with a single lock acquisition and a
    /// single group commit of the mirror — how the parallel scheduler
    /// merges per-worker journal shards back into the main journal.
    ///
    /// When a mirror is attached the whole batch is framed into one
    /// reused buffer and written with a single `write_all` — the bytes
    /// are exactly the per-event frames in order.
    pub fn append_batch(&self, batch: Vec<Event>) {
        if batch.is_empty() {
            return;
        }
        if let Some(p) = self.probes.get() {
            p.appends.add(batch.len() as u64);
            p.batch_size.record(batch.len() as u64);
        }
        let mut events = self.events.lock();
        // The batch end is a flush barrier: one group commit.
        self.mirror_frames(&batch, true);
        events.extend(batch);
    }

    /// Frames `batch` into the mirror's buffer and hands the bytes to
    /// the writer in one chunk; a no-op on an unmirrored journal. The
    /// caller holds the `events` lock.
    fn mirror_frames(&self, batch: &[Event], barrier: bool) {
        if !self.mirrored.load(Ordering::Acquire) {
            return;
        }
        let mut guard = self.mirror.lock();
        let Some(JournalMirror { writer, buf, .. }) = guard.as_mut() else {
            return;
        };
        buf.clear();
        for event in batch {
            codec::encode_frame(event, buf);
        }
        if let Err(e) = writer.append_chunk(buf, batch.len(), barrier) {
            self.fail_mirror(&mut guard, "append", &e);
        }
    }

    /// Forces buffered mirror frames to the file (a durability barrier
    /// under any policy; a no-op for unmirrored journals).
    pub fn flush(&self) {
        let _events = self.events.lock();
        let mut guard = self.mirror.lock();
        if let Some(m) = guard.as_mut() {
            if let Err(e) = m.writer.flush() {
                self.fail_mirror(&mut guard, "flush", &e);
            }
        }
    }

    /// Consumes the journal, returning its events (shards are
    /// in-memory only, so there is no mirror to close).
    pub fn into_events(self) -> Vec<Event> {
        self.events.into_inner()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True if no events have been journalled.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// A copy of all events.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    /// Runs `f` over the events in place, under the journal lock: how
    /// recovery replays a journal without copying it. `f` must not
    /// append to this journal.
    pub(crate) fn with_events<R>(&self, f: impl FnOnce(&[Event]) -> R) -> R {
        f(&self.events.lock())
    }

    /// Drops every event before the last
    /// [`Event::EngineCheckpoint`] (journal compaction). A no-op when
    /// no checkpoint exists. When mirrored to a file, the file is
    /// **atomically rewritten** (temp file + rename): a crash during
    /// compaction leaves either the old or the new complete file,
    /// never a half-truncated one. Returns the number of events
    /// dropped.
    pub fn compact(&self) -> usize {
        let mut events = self.events.lock();
        let Some(start) = events
            .iter()
            .rposition(|e| matches!(e, Event::EngineCheckpoint { .. }))
        else {
            return 0;
        };
        let dropped = start;
        events.drain(..start);
        let mut guard = self.mirror.lock();
        if let Some(m) = guard.as_mut() {
            match atomic_rewrite(&m.path, |w| w.write_all(&Self::file_bytes(&events))) {
                Ok(file) => m.writer.replace_file(file),
                Err(e) => self.fail_mirror(&mut guard, "compact", &e),
            }
        }
        dropped
    }

    /// Events of one instance, in order.
    pub fn events_for(&self, instance: crate::event::InstanceId) -> Vec<Event> {
        self.events
            .lock()
            .iter()
            .filter(|e| e.instance() == Some(instance))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::InstanceId;
    use wfms_model::Container;

    fn started(n: u64) -> Event {
        Event::InstanceStarted {
            instance: InstanceId(n),
            process: "p".into(),
            tenant: None,
            input: Container::empty(),
            at: 0,
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wftx-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_filter() {
        let j = Journal::new();
        j.append(started(1));
        j.append(started(2));
        j.append(Event::InstanceFinished {
            instance: InstanceId(1),
            output: Container::empty(),
            at: 1,
        });
        assert_eq!(j.len(), 3);
        assert_eq!(j.events_for(InstanceId(1)).len(), 2);
        assert_eq!(j.events_for(InstanceId(2)).len(), 1);
    }

    #[test]
    fn file_mirror_reloads() {
        let dir = tmp_dir("reload");
        let path = dir.join("engine.journal");
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::with_file(&path).unwrap();
            j.append(started(7));
        }
        let j2 = Journal::with_file(&path).unwrap();
        assert_eq!(j2.len(), 1);
        assert_eq!(j2.events()[0].instance(), Some(InstanceId(7)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_journal() {
        let j = Journal::new();
        assert!(j.is_empty());
        assert_eq!(j.events(), vec![]);
    }

    #[test]
    fn torn_tail_reopen_recovers() {
        let dir = tmp_dir("torn");
        let path = dir.join("engine.journal");
        {
            let j = Journal::with_file(&path).unwrap();
            j.append(started(1));
            j.append(started(2));
        }
        let intact = std::fs::read(&path).unwrap();
        {
            // Half of a third frame.
            let whole = Journal::file_bytes(&[started(1), started(2), started(3)]);
            let cut = intact.len() + (whole.len() - intact.len()) / 2;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&whole[intact.len()..cut]).unwrap();
        }
        let (j2, report) = Journal::with_file_report(&path, DurabilityPolicy::PerEvent).unwrap();
        assert_eq!(j2.len(), 2, "complete events survive the torn tail");
        let tail = report.torn_tail.expect("tail reported");
        assert_eq!(tail.offset, intact.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), intact, "file repaired");
        // Counted, not printed — and the count survives adoption into
        // an engine's registry.
        let reg = Registry::new();
        j2.attach_fault_counters(&reg);
        let counters = reg.snapshot().counters;
        assert_eq!(counters["journal.torn_tails_truncated"], 1);
        assert_eq!(counters["journal.crc_failures"], 0, "short, not damaged");
        // Appends after truncation land on a clean record boundary.
        j2.append(started(3));
        drop(j2);
        let j3 = Journal::with_file(&path).unwrap();
        assert_eq!(j3.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mirror_failure_is_sticky_not_fatal() {
        let dir = tmp_dir("sticky");
        let path = dir.join("engine.journal");
        std::fs::write(&path, "").unwrap();
        let ro = OpenOptions::new().read(true).open(&path).unwrap();
        let j = Journal::with_injected_file(ro, path.clone(), DurabilityPolicy::PerEvent);
        let reg = Registry::new();
        j.attach_fault_counters(&reg);
        j.append(started(1));
        let err = j.mirror_error().expect("first failure recorded");
        j.append(started(2));
        assert_eq!(j.mirror_error(), Some(err), "first error wins");
        assert_eq!(j.len(), 2, "in-memory journal keeps working");
        assert_eq!(reg.snapshot().counters["journal.mirror_errors"], 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_policy_append_batch_is_one_group_commit() {
        let dir = tmp_dir("batch");
        let path = dir.join("engine.journal");
        let j = Journal::with_file_policy(&path, DurabilityPolicy::Batched { n: 1000 }).unwrap();
        j.append(started(1));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            codec::FILE_HEADER,
            "the event is buffered; a new file holds its header only"
        );
        j.append_batch(vec![started(2), started(3)]);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            Journal::file_bytes(&[started(1), started(2), started(3)]),
            "batch end flushes the group"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A damaged last frame is a torn tail that also counts as a
    /// checksum failure; the same damage with an intact frame after it
    /// is refused, naming the damaged frame's offset.
    #[test]
    fn flipped_bit_is_a_tail_at_the_end_and_corruption_before_it() {
        let dir = tmp_dir("flip");
        let path = dir.join("engine.journal");
        let one = Journal::file_bytes(&[started(1)]).len();
        let mut bytes = Journal::file_bytes(&[started(1), started(2)]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (j, report) = Journal::with_file_report(&path, DurabilityPolicy::PerEvent).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(report.torn_tail.unwrap().offset, one as u64);
        let reg = Registry::new();
        j.attach_fault_counters(&reg);
        assert_eq!(reg.snapshot().counters["journal.crc_failures"], 1);
        drop(j);

        let mut bytes = Journal::file_bytes(&[started(1), started(2), started(3)]);
        bytes[last] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = Journal::with_file(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&format!("byte {one}")), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "left untouched");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A JSON-lines journal is refused with the command that converts
    /// it; after the conversion it opens with the same events, and a
    /// second conversion is a no-op.
    #[test]
    fn json_journal_is_refused_then_upgraded() {
        let dir = tmp_dir("upgrade");
        let path = dir.join("old.journal");
        let events = [started(1), started(2)];
        let mut text = String::new();
        for e in &events {
            text.push_str(&serde_json::to_string(e).unwrap());
            text.push('\n');
        }
        text.push_str("{\"InstanceStar");
        std::fs::write(&path, &text).unwrap();

        let err = Journal::with_file(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let hint = format!("fmtm journal upgrade {}", path.display());
        assert!(err.to_string().contains(&hint), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "untouched");

        let Upgrade::Converted {
            events: n,
            torn_tail,
        } = Journal::upgrade_json_file(&path).unwrap()
        else {
            panic!("a JSON journal converts");
        };
        assert_eq!(n, 2);
        assert_eq!(torn_tail.unwrap().discarded, "{\"InstanceStar");
        assert_eq!(std::fs::read(&path).unwrap(), Journal::file_bytes(&events));
        assert_eq!(
            Journal::upgrade_json_file(&path).unwrap(),
            Upgrade::AlreadyBinary
        );
        assert_eq!(Journal::with_file(&path).unwrap().events(), events);

        // Damage before the last line: an error, and no rewrite.
        let broken = text.replacen("InstanceStarted", "Instance Started", 1);
        std::fs::write(&path, &broken).unwrap();
        let err = Journal::upgrade_json_file(&path).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), broken);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
