//! The persistent execution journal.
//!
//! The journal is the substrate's [`Log`], instantiated for [`Event`]:
//! the optional file mirror of binary frames (one per event, payloads
//! as `codec.rs` defines them; `docs/recovery.md` describes the file
//! byte by byte), the memory that holds only the events the file does
//! not — all of them without a file, the unflushed tail with one —
//! torn-tail repair on reopen, sticky mirror errors, fault counting and
//! atomic compaction are all the shared log's, the same code the WAL
//! runs.
//! *When* frames reach the file is governed by a [`DurabilityPolicy`]:
//! the default `PerEvent` flushes the writer after every append
//! (navigation events are rare compared to database updates, so
//! per-event flushing is affordable and makes the recovery point exact
//! **for process crashes** — bytes handed to the OS survive the process
//! dying, but only `PerEventSync` pushes them through the page cache to
//! stable storage, and `Batched{n}` may leave up to `n-1` complete
//! events unflushed). See `docs/recovery.md` for how the crash-point
//! sweep exercises each policy's loss window.
//!
//! What this module adds is what only the engine needs: append probes,
//! adoption of the log's fault counters into the engine's registry as
//! `journal.*`, per-instance event queries, and the one-shot JSON
//! upgrade. A mirror failure never panics the engine: the journal
//! carries on in memory and [`Journal::mirror_error`] lets the engine
//! park the affected instances instead of dying mid-navigation.
//!
//! Reading a mirrored journal ([`Journal::events`],
//! [`Journal::events_for`]) reads its file: O(file), for recovery,
//! repair and audit — serving a status never does.
//!
//! JSON survives in two places only: [`Journal::upgrade_json_file`]
//! converts a journal written before the binary format, once, and
//! `fmtm journal dump` renders events through `Serialize for Event`.
//! Both go through the serde impls `Event` derives — a rendering of
//! the declarations in `event.rs`, not a second codec to maintain.

use crate::event::Event;
use crate::metrics::JournalProbes;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use txn_substrate::durability::{
    atomic_rewrite, DurabilityPolicy, MirrorError, TailReport, TornTail,
};
use txn_substrate::frame::{self, DecodeError};
use txn_substrate::log::Log;
use wfms_observe::Registry;

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
#[derive(Debug, Default)]
pub struct Journal {
    /// The log, behind the journal's one lock: held across each append
    /// and its mirror write, so file order is append order.
    log: Mutex<Log<Event>>,
    /// Observability instruments, attached by the engine when its
    /// observer is enabled. `OnceLock::get` on the (common) empty cell
    /// is a single atomic load, so unobserved journals pay nothing.
    probes: OnceLock<JournalProbes>,
}

impl Journal {
    /// An in-memory journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// A journal mirrored to `path` under the default
    /// [`DurabilityPolicy::PerEvent`]; existing events are loaded
    /// first (this is how [`crate::Engine::open`] reopens a crashed
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
        Self::replaying(path, policy, |_| {})
    }

    /// [`Journal::with_file_report`], handing `visit` every event the
    /// file holds as the pass that validates it decodes them: how
    /// [`crate::Engine::open`] replays a journal it reads once and
    /// never holds.
    pub(crate) fn replaying(
        path: &Path,
        policy: DurabilityPolicy,
        visit: impl FnMut(Event),
    ) -> std::io::Result<(Self, TailReport)> {
        Log::open(path, policy, visit).map(|(log, report)| (Self::over(log), report))
    }

    fn over(log: Log<Event>) -> Self {
        Self {
            log: Mutex::new(log),
            probes: OnceLock::new(),
        }
    }

    /// The bytes of a journal file holding exactly `events`: the file
    /// header, then one frame per event. What a mirrored journal has
    /// written once `events` were appended and flushed — frames do not
    /// depend on their neighbours, so any prefix of `events` encodes to
    /// a prefix of these bytes (the crash sweep cuts its files here).
    pub fn file_bytes(events: &[Event]) -> Vec<u8> {
        frame::file_bytes(events)
    }

    /// Decodes the journal file at `path` without opening it for
    /// append and without repairing it: a torn tail is reported, not
    /// truncated. For tools that only look (`fmtm journal dump`).
    pub fn read_file(path: &Path) -> std::io::Result<(Vec<Event>, TailReport)> {
        Log::read_file(path)
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
        if !matches!(
            frame::visit_file::<Event>(&bytes, |_, _| {}),
            Err(DecodeError::NotThisLog)
        ) {
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
                        checksum_failed: false,
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
        atomic_rewrite(path, &Self::file_bytes(&events))?;
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
        Self::over(Log::with_injected_file(file, path, policy))
    }

    /// The first mirror I/O error hit, if any. Once set, the file
    /// mirror is disabled and the journal serves from memory only; the
    /// engine surfaces this as
    /// [`EngineError::Journal`](crate::EngineError::Journal).
    pub fn mirror_error(&self) -> Option<MirrorError> {
        self.log.lock().mirror_error().cloned()
    }

    /// Attaches metrics probes (append counts, append/flush latency,
    /// batch sizes). First attachment wins; called once by the engine
    /// at construction when observability is enabled.
    pub(crate) fn attach_probes(&self, probes: JournalProbes) {
        let _ = self.probes.set(probes);
    }

    /// Moves the log's fault counters into `reg` as
    /// `journal.torn_tails_truncated`, `journal.mirror_errors` and
    /// `journal.crc_failures`, carrying over what was counted so far
    /// (the reopen that found a torn tail ran before the engine and its
    /// registry existed). Called by the engine at construction, with
    /// or without an enabled observer: faults are cold and always
    /// counted, like the `recovery.*` fix-ups.
    pub(crate) fn attach_fault_counters(&self, reg: &Registry) {
        self.log.lock().adopt_fault_counters(reg, "journal");
    }

    /// Appends an event. Mirror I/O failures do not panic; they are
    /// reported through [`Journal::mirror_error`].
    ///
    /// Encoding happens **only when a file mirror is attached**, and
    /// then the event is kept only until its frame is written: the
    /// unmirrored journal stores the event value itself, so that steady
    /// state (every embedded benchmark engine) pays a lock and a `Vec`
    /// push, nothing more.
    pub fn append(&self, event: Event) {
        let Some(p) = self.probes.get() else {
            self.log.lock().append(event, false);
            return;
        };
        // Latency is sampled 1-in-16; the append counter stays exact.
        let t0 = p.sample_tick().then(std::time::Instant::now);
        self.log.lock().append(event, false);
        p.appends.inc();
        if let Some(t0) = t0 {
            p.append_ns.record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Appends a batch of events with a single lock acquisition and a
    /// single group commit of the mirror — how
    /// [`recover_from`](crate::recover_from) seeds a journal with the
    /// history it is to replay.
    pub fn append_batch(&self, batch: Vec<Event>) {
        if batch.is_empty() {
            return;
        }
        if let Some(p) = self.probes.get() {
            p.appends.add(batch.len() as u64);
            p.batch_size.record(batch.len() as u64);
        }
        self.log.lock().append_batch(batch);
    }

    /// Forces buffered mirror frames to the file (a durability barrier
    /// under any policy; a no-op for unmirrored journals).
    pub fn flush(&self) {
        self.log.lock().flush()
    }

    /// Consumes the journal, returning its events.
    pub fn into_events(self) -> Vec<Event> {
        self.events()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.log.lock().len()
    }

    /// True if no events have been journalled.
    pub fn is_empty(&self) -> bool {
        self.log.lock().is_empty()
    }

    /// Events held in memory right now: all of an unmirrored journal,
    /// the unflushed tail of a mirrored one (at most `n - 1` under
    /// `Batched { n }`, none after a flush).
    pub fn resident_events(&self) -> usize {
        self.log.lock().resident()
    }

    /// Bytes of the journal file written and flushed so far (0 for an
    /// unmirrored journal).
    pub fn file_len(&self) -> u64 {
        self.log.lock().file_len()
    }

    /// A copy of all events.
    pub fn events(&self) -> Vec<Event> {
        self.log.lock().records()
    }

    /// Visits every event in order, under the journal lock: the file's
    /// events decoded one by one (owned), then the ones in memory (by
    /// reference). `visit` must not append to this journal.
    pub(crate) fn for_each(&self, visit: impl FnMut(Cow<'_, Event>)) {
        self.log.lock().for_each(visit)
    }

    /// Drops every event before the last
    /// [`Event::EngineCheckpoint`] (journal compaction), atomically
    /// rewriting the file mirror if there is one. A no-op when no
    /// checkpoint exists. Returns the number of events dropped.
    pub fn compact(&self) -> usize {
        self.log.lock().compact()
    }

    /// Events of one instance, in order.
    pub fn events_for(&self, instance: crate::event::InstanceId) -> Vec<Event> {
        let mut events = Vec::new();
        self.log.lock().for_each(|e| {
            if e.instance() == Some(instance) {
                events.push(e.into_owned());
            }
        });
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::InstanceId;
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use txn_substrate::frame::Record as _;
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
        let counted = reg.snapshot();
        assert_eq!(counted.counter("journal.torn_tails_truncated"), Some(1));
        let damaged = counted.counter("journal.crc_failures");
        assert_eq!(damaged, Some(0), "short, not damaged");
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
        assert_eq!(reg.snapshot().counter("journal.mirror_errors"), Some(1));
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
            Event::HEADER,
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
        assert_eq!(reg.snapshot().counter("journal.crc_failures"), Some(1));
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
