//! What a committed 8-step saga costs in the journal file, pinned.
//!
//! The serving policy is `Batched { n: 64 }` with a flush at the end of
//! every shard turn: one flush per instance at depth 1, one per many
//! under load. A frame holds the records of one flush, and an
//! `InstanceStarted` opens one, so an instance that runs between two
//! flushes is one frame — 47 records, each name (activity path, scope,
//! connector end, process) spelled once — however many instances the
//! flush covers. This test runs committed saga8 instances
//! (`exotica::run_pipeline` over `exotica::provision`'s three-site
//! multidatabase, no failures) on a file-mirrored engine, flushing once
//! per instance and once per 16 instances, and pins the file's bytes
//! per instance, the same both ways. Run it with `--nocapture` to see
//! the census below recomputed.
//!
//! Census of one instance at a flush per instance (ids 1–256, so one
//! or two varint bytes): records per instance and bytes per record, a
//! record's own frame header included when each had one.
//!
//! | kind               | records | a frame each | grouped |
//! |--------------------|--------:|-------------:|--------:|
//! | ActivityFinished   |       9 |         42.9 |    21.3 |
//! | ActivityReady      |       9 |         27.2 |    15.2 |
//! | ActivityStarted    |       9 |         29.2 |     7.5 |
//! | ActivityTerminated |      10 |         27.4 |     5.5 |
//! | ConnectorEvaluated |       8 |         31.5 |    11.0 |
//! | InstanceFinished   |       1 |         28.5 |    16.5 |
//! | InstanceStarted    |       1 |         32.3 |    20.3 |
//! | frame header       |       1 |              |    12.0 |
//! | **instance**       |      47 |   **1 480.4** | **587.4** |
//!
//! "A frame each" is what a journal wrote before frames were group
//! commits (and what `PerEvent` still writes): 12 header bytes and
//! every name spelled out in each record. Grouped, the first record
//! naming a path spells it and the rest refer to it in a byte.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use txn_substrate::frame::{visit_file, Encoder, Names, Record as _};
use txn_substrate::{DurabilityPolicy, Value};
use wfms_engine::{Engine, EngineConfig, Event, InstanceStatus, Journal};
use wfms_model::Container;

/// Instances per measurement.
const INSTANCES: u64 = 256;
/// File bytes of [`INSTANCES`] instances, flushed one at a time or 16 at
/// a time: 587.4 B an instance (1 480.4 B with a frame per record).
const PINNED: u64 = 150_384;
/// `len`, `!len`, `crc`.
const FRAME_HEADER: usize = 12;

/// Runs [`INSTANCES`] committed saga8 instances on an engine mirrored
/// to `journal` under `Batched { n: 64 }`, flushing after every
/// `per_flush` of them; returns the bytes they added to the file, their
/// events, and how many events the file holds before theirs.
fn run(journal: &Path, per_flush: u64) -> (u64, Vec<Event>, usize) {
    let spec = exotica::AtmSpec::Saga(atm::fixtures::linear_saga("saga8", 8));
    let (fed, programs) =
        exotica::provision(&exotica::steps_of_all(std::slice::from_ref(&spec)), 7, &[]);
    let engine = Engine::with_config(
        Arc::clone(&fed),
        programs,
        EngineConfig {
            journal_path: Some(journal.to_path_buf()),
            durability: DurabilityPolicy::Batched { n: 64 },
            ..EngineConfig::default()
        },
    );
    let out = exotica::run_pipeline(&exotica::emit_spec(&spec)).expect("saga8 translates");
    let process = out.template.name().to_owned();
    engine.register_compiled(out.template);
    engine.flush_journal().unwrap();
    let (before, skip) = (
        std::fs::metadata(journal).unwrap().len(),
        engine.journal_events().len(),
    );
    for i in 1..=INSTANCES {
        let mut input = Container::empty();
        input.set("order", Value::Int(i as i64));
        let id = engine.start(&process, input).unwrap();
        assert_eq!(
            engine.run_to_quiescence(id).unwrap(),
            InstanceStatus::Finished
        );
        if i % per_flush == 0 {
            engine.flush_journal().unwrap();
        }
    }
    engine.flush_journal().unwrap();
    let after = std::fs::metadata(journal).unwrap().len();
    (
        after - before,
        engine.journal_events().split_off(skip),
        skip,
    )
}

fn kind(e: &Event) -> &'static str {
    match e {
        Event::InstanceStarted { .. } => "InstanceStarted",
        Event::ActivityReady { .. } => "ActivityReady",
        Event::ActivityStarted { .. } => "ActivityStarted",
        Event::ActivityFinished { .. } => "ActivityFinished",
        Event::ActivityTerminated { .. } => "ActivityTerminated",
        Event::ConnectorEvaluated { .. } => "ConnectorEvaluated",
        Event::InstanceFinished { .. } => "InstanceFinished",
        _ => "other",
    }
}

/// Bytes per record of each kind in `file` past its first `skip`
/// records, counting a record's own frame header (`grouped` false: a
/// frame each) or the record's bytes in the frame the file put it in,
/// headers apart (`grouped` true): per kind, the records of one
/// instance and their mean size; and the headers' bytes.
fn census(file: &[u8], skip: usize, grouped: bool) -> (BTreeMap<&'static str, (f64, f64)>, f64) {
    let (mut frames, mut seen) = (Vec::<(usize, Vec<Event>)>::new(), 0);
    visit_file::<Event>(file, |at, e| {
        seen += 1;
        match frames.last_mut() {
            _ if seen <= skip => {}
            Some((start, records)) if *start == at => records.push(e),
            _ => frames.push((at, vec![e])),
        }
    })
    .unwrap();
    let mut sizes: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut headers = 0u64;
    for (_, records) in frames {
        let mut frame = Encoder::new(&[]);
        for e in &records {
            let size = if grouped {
                let before = frame.bytes().len();
                frame.push(e, usize::MAX);
                // The first record opened the frame: its header is
                // counted apart.
                let header = if before == 0 { FRAME_HEADER } else { 0 };
                (frame.bytes().len() - before - header) as u64
            } else {
                let mut alone = Vec::new();
                e.encode(&mut alone, &mut Names::default());
                (alone.len() + FRAME_HEADER) as u64
            };
            let row = sizes.entry(kind(e)).or_default();
            (row.0, row.1) = (row.0 + 1, row.1 + size);
        }
        if grouped {
            headers += FRAME_HEADER as u64;
        }
    }
    let per_instance = |n: u64| n as f64 / INSTANCES as f64;
    let rows = sizes
        .into_iter()
        .map(|(kind, (n, bytes))| (kind, (per_instance(n), bytes as f64 / n as f64)))
        .collect();
    (rows, per_instance(headers))
}

#[test]
fn a_committed_saga8_journals_its_pinned_bytes() {
    let dir = std::env::temp_dir().join(format!("wftx-journal-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let each = dir.join("each.journal");
    let (bytes, events, skip) = run(&each, 1);
    let (bytes_16, events_16, _) = run(&dir.join("sixteen.journal"), 16);
    assert_eq!(events, events_16, "the same instances either way");
    assert_eq!(events.len() as u64, 47 * INSTANCES);

    let file = std::fs::read(&each).unwrap();
    let one_each = Journal::file_bytes(&events).len() as u64 - 5;
    println!(
        "saga8: {:.1} B an instance flushed one at a time, {:.1} B sixteen at a time, {:.1} B with a frame per record",
        bytes as f64 / INSTANCES as f64,
        bytes_16 as f64 / INSTANCES as f64,
        one_each as f64 / INSTANCES as f64,
    );
    let (v1, _) = census(&file, skip, false);
    let (v2, headers) = census(&file, skip, true);
    println!("kind                records  a frame each  grouped");
    for (kind, (n, size)) in &v1 {
        println!("{kind:<18} {n:>8.2} {size:>13.1} {:>8.1}", v2[kind].1);
    }
    let frames = headers / FRAME_HEADER as f64;
    println!("frame headers      {frames:>8.2} {:>13} {headers:>8.1}", "");
    let total: f64 = v2.values().map(|(n, size)| n * size).sum::<f64>() + headers;
    assert!(
        (total - bytes as f64 / INSTANCES as f64).abs() < 0.01,
        "the census adds up"
    );

    assert_eq!(
        bytes, PINNED,
        "bytes of {INSTANCES} saga8 instances flushed one at a time"
    );
    assert_eq!(
        bytes_16, PINNED,
        "bytes of {INSTANCES} saga8 instances flushed 16 at a time"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
