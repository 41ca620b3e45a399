//! Deterministic crash-point sweep — the standing oracle for §3.3's
//! "forward recovery is always guaranteed".
//!
//! The paper's claim is universally quantified: *wherever* the engine
//! dies, recovery resumes the process from that point. Sampling a few
//! crash sites (as the step-granularity tests in `recovery_e2e.rs` do)
//! cannot establish that; in the spirit of the model-checking
//! approaches to transactional workflows, the sweep **enumerates every
//! failure point** instead. For each prefix length `k` of a reference
//! run's journal it simulates a crash that preserved exactly the first
//! `k` events (optionally plus a torn half-written event `k+1`),
//! recovers with [`crate::recovery::recover`], resumes to quiescence,
//! and requires the recovered run to be indistinguishable from the
//! uncrashed one. The crash kills the *engine*; the journal file and
//! the federation's databases are durable and survive (§2.1's
//! autonomous local systems), so each crash point re-runs the process
//! on its own world with a file journal, drops the engine, truncates
//! the journal to the `k`-event prefix, and recovers in place.
//! Indistinguishable means:
//!
//! * every instance whose `InstanceStarted` survived reaches the same
//!   final status and process output;
//! * the journal's first `k` events are untouched (recovery never
//!   rewrites history);
//! * the events appended after recovery equal the reference run's
//!   suffix, modulo **re-dispatch duplicates**: an activity that was
//!   mid-execution at the crash is re-executed from the beginning
//!   (§3.3's explicit caveat), so its `ActivityReady`/`ActivityStarted`
//!   may be journalled a second time at the same `(path, attempt)` —
//!   those repeats are filtered before comparing, and nothing else is;
//! * the final contents of every database in the federation match —
//!   resumption may re-apply idempotent writes, never different ones.
//!
//! Scope: the plain [`sweep`] drives **automatic** activities (the
//! appendix fixtures and the property-test DAGs are fully automatic);
//! [`sweep_with_script`] additionally covers operator actions —
//! template deploys, live migrations and manual work-item completions
//! scripted into its drive/resume closures, with work-item re-offers
//! after a crash filtered as re-dispatch duplicates (a reset manual
//! activity is re-offered under a fresh item id at the same attempt).
//! Failure plans consulted by programs must be
//! attempt-insensitive (`Always`/`Never`/probability with a fixed
//! decision per label): re-execution legitimately consumes extra
//! injector attempts, exactly as a real re-run would.
//!
//! Instances whose start event was lost are gone entirely — there is
//! nothing durable to recover them *from*; a client would resubmit.
//! The sweep checks that they are cleanly absent, not half-present.
//!
//! Every crash point's prefix is also reopened both ways
//! ([`reopen_both_ways`]): written as one group commit, whose frames
//! let replay elide what a finished instance's retirement erases, and a
//! frame per event, where nothing is elided. The two states must be
//! equal.

use crate::engine::EngineConfig;
use crate::event::{Event, InstanceId};
use crate::journal::Journal;
use crate::org::OrgModel;
use crate::recovery::{self, Replayed};
use crate::state::InstanceStatus;
use serde::Serialize;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use txn_substrate::{DurabilityPolicy, MultiDatabase, ProgramRegistry};
use wfms_model::{Container, ProcessDefinition};

/// A factory producing a **fresh, identically-configured world** —
/// federation (databases populated, injector plans installed) and
/// program registry — for the reference run and for every crash
/// point. Worlds must be deterministic: same factory, same behaviour.
pub type WorldFactory<'a> = dyn Fn() -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) + 'a;

/// A scripted run for [`sweep_with_script`]: how to drive the
/// reference run and how to resume a recovered engine. The plain
/// [`sweep`] covers fully automatic processes; scenarios with
/// *operator actions* — deploys, migrations, work-item completions —
/// need both halves scripted.
pub struct SweepScript<'a> {
    /// Drives a freshly built engine end to end: register templates,
    /// start instances, perform operator actions, run to quiescence.
    /// Returns the instance ids whose final status/output the sweep
    /// compares. Must be deterministic.
    pub drive: &'a dyn Fn(&crate::Engine) -> Result<Vec<InstanceId>, String>,
    /// Brings a *recovered* engine to the reference run's end state.
    /// Called after recovery at **every** crash point, so each step
    /// must be idempotent with respect to what the journal prefix
    /// already holds: re-registering an already-deployed version is a
    /// no-op, re-migrating an already-migrated instance answers
    /// `AlreadyCurrent`, and completions must skip items the prefix
    /// already closed. The canonical shape re-drives the same operator
    /// sequence as `drive`, guarded per step.
    pub resume: &'a dyn Fn(&crate::Engine) -> Result<(), String>,
    /// Organization model installed in every engine the sweep builds —
    /// the reference run, each pre-crash run and each recovered engine.
    /// Scenarios that park on manual work items need the same people
    /// on both sides of the crash, or post-recovery re-offers resolve
    /// against an empty org and the resumption diverges.
    pub org: OrgModel,
}

/// Sweep options.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Additionally write the first half of event `k+1`'s frame after
    /// each `k`-event prefix, exercising the
    /// torn-tail truncation on every reopen.
    pub torn_tail: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self { torn_tail: true }
    }
}

/// Outcome of one simulated crash point.
#[derive(Debug, Clone, Serialize)]
pub struct CrashPointResult {
    /// Number of journal events that survived the crash.
    pub k: usize,
    /// Recovery reproduced the reference run.
    pub ok: bool,
    /// First divergence, empty when `ok`.
    pub detail: String,
}

/// Outcome of a full sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// Caller-supplied label (process/fixture name).
    pub label: String,
    /// Reference journal length (the sweep runs `0..=total_events`).
    pub total_events: usize,
    /// Whether torn tails were injected at each point.
    pub torn_tail: bool,
    /// Crash points that recovered correctly.
    pub passed: usize,
    /// Crash points that diverged.
    pub failed: usize,
    /// Only the failing points (an all-green sweep stays small).
    pub failures: Vec<CrashPointResult>,
    /// Recovery work performed across every crash point, summed from
    /// each recovered engine's `recovery.*` counters: how many running
    /// activities were restarted, waiting joins re-navigated,
    /// connector sets re-evaluated, exits re-decided and stale claims
    /// released over the whole sweep. A sweep that passes while these
    /// stay zero exercised nothing — CI asserts on them.
    pub recovery_fixups: BTreeMap<String, u64>,
}

impl SweepReport {
    /// True when every crash point recovered correctly.
    pub fn ok(&self) -> bool {
        self.failed == 0
    }

    /// The report as a JSON document (for the CI artifact).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("SweepReport is always serializable")
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {}/{} crash points ok{}{}",
            self.label,
            self.passed,
            self.passed + self.failed,
            if self.torn_tail {
                " (torn tails injected)"
            } else {
                ""
            },
            if self.failed > 0 {
                format!("; first failure at k={}", self.failures[0].k)
            } else {
                String::new()
            }
        )
    }
}

/// Identity of a dispatch event, used to filter re-dispatch
/// duplicates: `(ready? started?, instance, path, attempt)`. Within
/// one run a given activity attempt is dispatched at most once, so a
/// suffix event whose key already occurs in the prefix can only be the
/// recovery re-dispatch of an in-flight activity.
fn dispatch_key(ev: &Event) -> Option<(bool, InstanceId, String, u32)> {
    match ev {
        Event::ActivityReady {
            instance,
            path,
            attempt,
            ..
        } => Some((false, *instance, path.to_string(), *attempt)),
        Event::ActivityStarted {
            instance,
            path,
            attempt,
            ..
        } => Some((true, *instance, path.to_string(), *attempt)),
        _ => None,
    }
}

/// Identity of a work-item offer: the activity attempt it serves,
/// `(instance, path, attempt)`. `WorkItemOffered` does not carry the
/// attempt, but every offer follows the `ActivityReady` of the same
/// `(instance, path)` at that attempt, so a sequential scan recovers
/// it. Returns, for each offering event index, the offered item id and
/// its key — used to match a post-recovery **re-offer** (fresh item
/// id, same attempt) with the prefix's original offer.
fn offer_keys(events: &[Event]) -> BTreeMap<usize, (crate::WorkItemId, OfferKey)> {
    let mut attempts: BTreeMap<(InstanceId, String), u32> = BTreeMap::new();
    let mut out = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        match ev {
            Event::ActivityReady {
                instance,
                path,
                attempt,
                ..
            } => {
                attempts.insert((*instance, path.to_string()), *attempt);
            }
            Event::WorkItemOffered {
                instance,
                path,
                item,
                ..
            } => {
                let attempt = attempts
                    .get(&(*instance, path.to_string()))
                    .copied()
                    .unwrap_or(0);
                out.insert(i, (*item, (*instance, path.to_string(), attempt)));
            }
            _ => {}
        }
    }
    out
}

type OfferKey = (InstanceId, String, u32);

static SWEEP_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Runs the crash-point sweep for the given templates and instance
/// starts. `make_world` is invoked once for the reference run and once
/// per crash point. Returns `Err` only if the *reference* run itself
/// fails; divergences at crash points are recorded in the report.
pub fn sweep(
    label: &str,
    templates: &[ProcessDefinition],
    starts: &[(String, Container)],
    make_world: &WorldFactory<'_>,
    cfg: &SweepConfig,
) -> Result<SweepReport, String> {
    let drive = |engine: &crate::Engine| -> Result<Vec<InstanceId>, String> {
        for t in templates {
            engine
                .register(t.clone())
                .map_err(|e| format!("register failed: {e}"))?;
        }
        let mut ids = Vec::new();
        for (process, input) in starts {
            ids.push(
                engine
                    .start(process, input.clone())
                    .map_err(|e| format!("start failed: {e}"))?,
            );
        }
        engine.run_all().map_err(|e| format!("run failed: {e}"))?;
        Ok(ids)
    };
    let resume =
        |engine: &crate::Engine| engine.run_all().map_err(|e| format!("resume failed: {e}"));
    sweep_with_script(
        label,
        templates,
        &SweepScript {
            drive: &drive,
            resume: &resume,
            org: OrgModel::new(),
        },
        make_world,
        cfg,
    )
}

/// The scripted crash-point sweep: like [`sweep`], but the reference
/// run and the post-recovery resumption are caller-supplied
/// ([`SweepScript`]), which lets the sweep enumerate crash points
/// *through operator actions* — template deploys, live migrations,
/// manual work-item completions. `recovery_templates` is handed to
/// [`crate::recovery::recover`] at every crash point and must contain
/// every definition the journal can reference (deploy order: first
/// per name = initial default).
pub fn sweep_with_script(
    label: &str,
    recovery_templates: &[ProcessDefinition],
    script: &SweepScript<'_>,
    make_world: &WorldFactory<'_>,
    cfg: &SweepConfig,
) -> Result<SweepReport, String> {
    // Reference run, in memory (the crash prefixes are materialised to
    // files below; the reference itself never crashes).
    let (multidb, programs) = make_world();
    let engine = crate::Engine::with_config(
        multidb.clone(),
        programs,
        EngineConfig {
            org: script.org.clone(),
            ..EngineConfig::default()
        },
    );
    let ids = (script.drive)(&engine).map_err(|e| format!("reference {e}"))?;
    let ref_events = engine.journal_events();
    let ref_status: BTreeMap<InstanceId, InstanceStatus> = ids
        .iter()
        .map(|&id| (id, engine.status(id).expect("started above")))
        .collect();
    let ref_outputs: BTreeMap<InstanceId, Container> = ids
        .iter()
        .map(|&id| (id, engine.output(id).expect("started above")))
        .collect();
    let ref_db = federation_snapshot(&multidb);
    drop(engine);

    let dir = std::env::temp_dir().join(format!(
        "wfms-crashsweep-{}-{}",
        std::process::id(),
        SWEEP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create sweep dir: {e}"))?;

    let n = ref_events.len();
    let mut report = SweepReport {
        label: label.to_owned(),
        total_events: n,
        torn_tail: cfg.torn_tail,
        passed: 0,
        failed: 0,
        failures: Vec::new(),
        recovery_fixups: BTreeMap::new(),
    };
    for k in 0..=n {
        let detail = run_crash_point(
            &dir,
            k,
            recovery_templates,
            script,
            &ref_events,
            &ref_status,
            &ref_outputs,
            &ref_db,
            make_world,
            cfg,
            &mut report.recovery_fixups,
        );
        match detail {
            None => report.passed += 1,
            Some(detail) => {
                report.failed += 1;
                report.failures.push(CrashPointResult {
                    k,
                    ok: false,
                    detail,
                });
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

/// The final committed contents of every database in the federation.
fn federation_snapshot(
    multidb: &Arc<MultiDatabase>,
) -> BTreeMap<String, BTreeMap<String, txn_substrate::Value>> {
    multidb
        .names()
        .into_iter()
        .filter_map(|name| {
            let db = multidb.db(&name)?;
            Some((name, db.snapshot()))
        })
        .collect()
}

/// One crash point: re-run the process on a fresh world against a
/// file journal, "crash" by dropping the engine and truncating the
/// journal to its `k`-event prefix (plus optional torn tail), recover
/// **against the same federation** — local databases are durable,
/// autonomous systems that survive an engine crash (§2.1) — resume,
/// compare. Returns `None` on success, `Some(first divergence)`
/// otherwise.
#[allow(clippy::too_many_arguments)]
fn run_crash_point(
    dir: &std::path::Path,
    k: usize,
    templates: &[ProcessDefinition],
    script: &SweepScript<'_>,
    ref_events: &[Event],
    ref_status: &BTreeMap<InstanceId, InstanceStatus>,
    ref_outputs: &BTreeMap<InstanceId, Container>,
    ref_db: &BTreeMap<String, BTreeMap<String, txn_substrate::Value>>,
    make_world: &WorldFactory<'_>,
    cfg: &SweepConfig,
    fixups: &mut BTreeMap<String, u64>,
) -> Option<String> {
    let path = dir.join(format!("crash_{k}.journal"));
    let (multidb, programs) = make_world();

    // Pre-crash run: same deterministic world, journal mirrored to a
    // file. It must reproduce the reference journal byte for byte —
    // otherwise the factory is not deterministic and every comparison
    // below would be meaningless.
    {
        let engine = crate::Engine::with_config(
            multidb.clone(),
            programs.clone(),
            EngineConfig {
                org: script.org.clone(),
                journal_path: Some(path.clone()),
                ..EngineConfig::default()
            },
        );
        if let Err(e) = (script.drive)(&engine) {
            return Some(format!("pre-crash {e}"));
        }
        if engine.journal_events() != ref_events {
            return Some("world factory is not deterministic: pre-crash run diverged".to_owned());
        }
        // The crash: the engine vanishes; the journal file and the
        // federation's databases survive.
        drop(engine);
    }

    // The same prefix as one group commit wrote it: reopened as
    // written and a frame per event, the states agree.
    let grouped = dir.join(format!("crash_{k}.grouped"));
    let both = write_grouped(&grouped, &ref_events[..k]).map_err(|e| e.to_string());
    let both = both.and_then(|()| reopen_both_ways(&grouped, templates, &script.org, make_world));
    if let Err(e) = both {
        return Some(format!(
            "prefix reopened as written and a frame per event: {e}"
        ));
    }

    // Truncate the journal to what a crash after event `k` would have
    // left durable.
    let mut bytes = Journal::file_bytes(&ref_events[..k]);
    if cfg.torn_tail && k < ref_events.len() {
        // The crash interrupted the append of event k+1: the first
        // half of its frame reached the file.
        let whole = Journal::file_bytes(&ref_events[..=k]);
        let cut = bytes.len() + (whole.len() - bytes.len()) / 2;
        bytes.extend_from_slice(&whole[bytes.len()..cut]);
    }
    if let Err(e) = std::fs::write(&path, bytes) {
        return Some(format!("cannot write prefix: {e}"));
    }

    let engine = match recovery::recover(
        &path,
        templates.to_vec(),
        script.org.clone(),
        multidb.clone(),
        programs,
    ) {
        Ok(e) => e,
        Err(e) => return Some(format!("recover failed: {e}")),
    };
    if let Err(e) = (script.resume)(&engine) {
        return Some(e);
    }
    // Recovery fix-up counters record unconditionally (cold path), so
    // even this observer-less engine reports what recovery repaired.
    for series in engine.observer().registry().snapshot().series {
        match series.value {
            wfms_observe::Value::Counter(v) if v > 0 && series.name.starts_with("recovery.") => {
                *fixups.entry(series.name).or_insert(0) += v;
            }
            _ => {}
        }
    }

    // Which reference instances survived the crash? Only those whose
    // InstanceStarted made it into the prefix exist anywhere.
    let known: HashSet<InstanceId> = ref_events[..k]
        .iter()
        .filter_map(|e| match e {
            Event::InstanceStarted { instance, .. } => Some(*instance),
            _ => None,
        })
        .collect();
    let have: HashSet<InstanceId> = engine.instances().iter().map(|(id, _, _)| *id).collect();
    if have != known {
        return Some(format!(
            "instance set mismatch: recovered {have:?}, journal prefix knows {known:?}"
        ));
    }

    for (&id, &want) in ref_status {
        if !known.contains(&id) {
            continue;
        }
        match engine.status(id) {
            Ok(got) if got == want => {}
            Ok(got) => return Some(format!("instance {id}: status {got:?} != {want:?}")),
            Err(e) => return Some(format!("instance {id}: {e}")),
        }
        let want_out = &ref_outputs[&id];
        match engine.output(id) {
            Ok(got) if got == *want_out => {}
            Ok(got) => return Some(format!("instance {id}: output {got:?} != {want_out:?}")),
            Err(e) => return Some(format!("instance {id}: {e}")),
        }
    }

    // Journal: prefix untouched, suffix equal to the reference's
    // (modulo re-dispatch duplicates; restricted to surviving
    // instances — lost ones have no events on either side to compare).
    let rec_events = engine.journal_events();
    if rec_events.len() < k || rec_events[..k] != ref_events[..k] {
        return Some("recovery rewrote the journal prefix".to_owned());
    }
    let prefix_keys: HashSet<_> = ref_events[..k].iter().filter_map(dispatch_key).collect();
    // Manual-activity re-dispatch artifacts: recovery resets a manual
    // activity that was mid-execution at the crash and re-offers it
    // under a **fresh item id** (and releases stale claims, so the
    // resumption claims again). A suffix offer repeating a prefix
    // offer's `(instance, path, attempt)` — and any claim of such a
    // re-offered item, or of an item the prefix already claimed — is
    // the worklist face of the same re-dispatch, filtered exactly like
    // repeated `ActivityReady`/`ActivityStarted`.
    let rec_offers = offer_keys(&rec_events);
    let mut prefix_offer_keys: HashSet<OfferKey> = HashSet::new();
    for (&i, (_, key)) in &rec_offers {
        if i < k {
            prefix_offer_keys.insert(key.clone());
        }
    }
    let mut reoffered: HashSet<crate::WorkItemId> = HashSet::new();
    for (&i, (item, key)) in &rec_offers {
        if i >= k && prefix_offer_keys.contains(key) {
            reoffered.insert(*item);
        }
    }
    let prefix_claimed: HashSet<crate::WorkItemId> = ref_events[..k]
        .iter()
        .filter_map(|e| match e {
            Event::WorkItemClaimed { item, .. } => Some(*item),
            _ => None,
        })
        .collect();
    let rec_suffix: Vec<&Event> = rec_events[k..]
        .iter()
        .filter(|e| match dispatch_key(e) {
            Some(key) => !prefix_keys.contains(&key),
            None => match e {
                Event::WorkItemOffered { item, .. } => !reoffered.contains(item),
                Event::WorkItemClaimed { item, .. } => {
                    !reoffered.contains(item) && !prefix_claimed.contains(item)
                }
                _ => true,
            },
        })
        .collect();
    // `WorkItemClaimed` carries no instance id; resolve it through the
    // offer that created the item, so claims belonging to lost
    // instances drop out of the reference suffix like every other
    // event of theirs.
    let ref_item_instance: BTreeMap<crate::WorkItemId, InstanceId> = offer_keys(ref_events)
        .into_values()
        .map(|(item, (instance, _, _))| (item, instance))
        .collect();
    let want_suffix: Vec<&Event> = ref_events[k..]
        .iter()
        .filter(|e| match e.instance() {
            Some(id) => known.contains(&id),
            None => match e {
                Event::WorkItemClaimed { item, .. } => ref_item_instance
                    .get(item)
                    .map(|id| known.contains(id))
                    .unwrap_or(true),
                _ => true,
            },
        })
        .collect();
    if rec_suffix.len() != want_suffix.len()
        || rec_suffix.iter().zip(&want_suffix).any(|(a, b)| **a != **b)
    {
        let at = rec_suffix
            .iter()
            .zip(&want_suffix)
            .position(|(a, b)| **a != **b)
            .unwrap_or(want_suffix.len().min(rec_suffix.len()));
        return Some(format!(
            "journal suffix diverges at event {} (recovered {} vs reference {} events): \
             recovered={:?} reference={:?}",
            k + at,
            rec_suffix.len(),
            want_suffix.len(),
            rec_suffix.get(at).map(|e| e.describe()),
            want_suffix.get(at).map(|e| e.describe()),
        ));
    }

    // Databases are durable and shared with the pre-crash run, so the
    // final federation state must equal the reference's — resumption
    // may re-apply idempotent writes but must never apply *different*
    // ones (e.g. wrongly re-running a compensated activity would flip
    // a marker back and be caught here).
    let got_db = federation_snapshot(&multidb);
    if got_db != *ref_db {
        return Some(format!("database state diverges: {got_db:?} != {ref_db:?}"));
    }
    None
}

/// Writes `events` to a new journal file at `path` as one group commit
/// of a journal under `Batched` writes them: a frame per
/// `InstanceStarted` or checkpoint and whatever follows it.
pub fn write_grouped(path: &Path, events: &[Event]) -> std::io::Result<()> {
    let _ = std::fs::remove_file(path);
    let journal = Journal::with_file_policy(path, DurabilityPolicy::Batched { n: 64 })?;
    journal.append_batch(events.to_vec());
    match journal.mirror_error() {
        Some(e) => Err(std::io::Error::other(e.to_string())),
        None => Ok(()),
    }
}

/// What an engine holds once open, as far as a client or a checkpoint
/// can tell: the checkpoint it would write (every instance's scope
/// tree, the open work items, the next instance and item ids, the
/// clock), every instance's view, the tally by status, and the events
/// opening read.
#[derive(Debug, PartialEq)]
struct Opened {
    checkpoint: crate::event::Checkpoint,
    views: Vec<(String, String, Option<String>, InstanceStatus, Container)>,
    counts: (u64, u64, u64),
    read: u64,
}

/// Opens the journal at `path` on a fresh world and reads what it
/// holds; the checkpoint read goes into the journal it opened.
fn opened(
    path: &Path,
    templates: &[ProcessDefinition],
    org: &OrgModel,
    make_world: &WorldFactory<'_>,
) -> Result<(Opened, Replayed), String> {
    let (multidb, programs) = make_world();
    let engine = recovery::recover(path, templates.to_vec(), org.clone(), multidb, programs)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let counts = engine.instance_counts();
    let views = (1..=counts.0 + counts.1 + counts.2)
        .map(|id| {
            let v = engine.view(InstanceId(id)).map_err(|e| e.to_string())?;
            Ok((v.process, v.version, v.tenant, v.status, v.output))
        })
        .collect::<Result<_, String>>()?;
    engine.checkpoint();
    let checkpoint = engine.journal_events().into_iter().find_map(|ev| match ev {
        Event::EngineCheckpoint(checkpoint) => Some(*checkpoint),
        _ => None,
    });
    let replayed = engine.replayed();
    let opened = Opened {
        checkpoint: checkpoint.ok_or("no checkpoint journalled")?,
        views,
        counts,
        read: replayed.read,
    };
    Ok((opened, replayed))
}

/// Reopens the journal file at `path` two ways, each on a copy beside
/// it: as written, where replay elides the events between the start
/// and the finish of an instance one frame holds whole, and re-encoded
/// a frame per event ([`Journal::file_bytes`], as `PerEvent` writes
/// it), where it elides nothing. Returns what the first open read and
/// applied, or where the two states differ.
pub fn reopen_both_ways(
    path: &Path,
    templates: &[ProcessDefinition],
    org: &OrgModel,
    make_world: &WorldFactory<'_>,
) -> Result<Replayed, String> {
    let copy = |suffix: &str| {
        let mut name = path.as_os_str().to_owned();
        name.push(suffix);
        PathBuf::from(name)
    };
    let (as_written, per_event) = (copy(".as-written"), copy(".per-event"));
    let (events, tail) = Journal::read_file(path).map_err(|e| e.to_string())?;
    if let Some(torn) = tail.torn_tail {
        return Err(format!(
            "{} has a torn tail at byte {}",
            path.display(),
            torn.offset
        ));
    }
    std::fs::copy(path, &as_written).map_err(|e| e.to_string())?;
    std::fs::write(&per_event, Journal::file_bytes(&events)).map_err(|e| e.to_string())?;
    let (grouped, replayed) = opened(&as_written, templates, org, make_world)?;
    let (single, unelided) = opened(&per_event, templates, org, make_world)?;
    let _ = std::fs::remove_file(&as_written);
    let _ = std::fs::remove_file(&per_event);
    if unelided.elided() != 0 {
        return Err(format!("a frame per event, yet {unelided:?}"));
    }
    if grouped != single {
        return Err(format!(
            "as written ({replayed:?}) {grouped:?}, a frame per event {single:?}"
        ));
    }
    Ok(replayed)
}
