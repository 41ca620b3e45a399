//! What the server reads from outside — a tenants file, the frames of
//! its shard journals and of the databases' WALs — fed arbitrary and
//! mutated bytes: no read panics, and what one read allocates stays
//! under a constant times the length of what it read. (The HTTP
//! `Decoder`, the other door, is `http_parser_prop.rs`'s.)

#[path = "../../../tests/support/counting.rs"]
mod counting;

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use txn_substrate::frame::{decode_file, file_bytes};
use txn_substrate::{LogRecord, MultiDatabase, ProgramOutcome, ProgramRegistry, TxnId, Value};
use wfms_engine::{Event, OrgModel};
use wfms_model::{Activity, Container, ProcessBuilder};
use wfms_observe::Registry;
use wfms_server::{parse_tenants, MigrationPolicy, PoolConfig, ShardPool};

#[global_allocator]
static A: counting::Counting = counting::Counting;

/// What one read may allocate: `FIXED` bytes, plus `PER_BYTE` for each
/// byte it reads.
const FIXED: u64 = 8 * 1024;
const PER_BYTE: u64 = 96;

/// Runs `read` over `input` and checks what it allocated.
fn bounded(what: &str, input: &[u8], read: impl FnOnce(&[u8])) {
    let before = counting::tally();
    read(input);
    let spent = (counting::tally() - before).bytes;
    let allowed = FIXED + PER_BYTE * input.len() as u64;
    assert!(
        spent <= allowed,
        "{what}: {spent} bytes allocated reading {} bytes",
        input.len()
    );
}

/// Every reader of outside bytes, over `bytes`.
fn read_all(bytes: &[u8]) {
    bounded("journal", bytes, |b| drop(decode_file::<Event>(b)));
    bounded("WAL", bytes, |b| drop(decode_file::<LogRecord>(b)));
    let text = String::from_utf8_lossy(bytes);
    bounded("tenants file", text.as_bytes(), |b| {
        drop(parse_tenants(std::str::from_utf8(b).unwrap()))
    });
}

const TENANTS: &str = r#"{"tenants":[
    {"name":"acme","key":"k-acme","weight":4,"max_inflight":8},
    {"name":"beta","key":"k-beta"}
]}"#;

/// Well-formed inputs to mutate: a v2 journal a pool wrote (tenanted
/// starts, a work item, a deploy, a checkpoint), a v1 journal with a torn
/// tail, a WAL of every record kind, and a tenants file.
fn corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("wfms-outside-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let flow = ProcessBuilder::new("flow")
            .program("A", "ok")
            .activity(Activity::program("M", "ok").for_role("clerk"))
            .connect_when("A", "M", "RC = 1")
            .build()
            .unwrap();
        let mut cfg = PoolConfig::new(&dir);
        cfg.org = OrgModel::new().person("ann", &["clerk"]);
        cfg.templates = vec![flow.clone()];
        cfg.tenants = parse_tenants(TENANTS).unwrap();
        let pool = ShardPool::open(cfg, Arc::new(Registry::new()), &|_| {
            let fed = MultiDatabase::new(0);
            fed.add_database("db");
            let programs = Arc::new(ProgramRegistry::new());
            programs.register_fn("ok", |_| ProgramOutcome::committed());
            (fed, programs)
        })
        .unwrap();
        let acme = pool.authenticate(b"k-acme");
        pool.submit_as("flow", Container::empty(), acme.clone());
        pool.drain().unwrap();
        for _ in 0..3 {
            pool.submit_as("flow", Container::empty(), acme.clone());
        }
        let (item, ..) = pool.worklist("ann", None)[0];
        pool.complete(item, "ann").unwrap();
        let v2 = ProcessBuilder::from(flow)
            .program("B", "ok")
            .build()
            .unwrap();
        pool.deploy(v2, MigrationPolicy::DrainOld).unwrap();
        pool.submit_as("flow", Container::empty(), acme);
        drop(pool);
        let journal = std::fs::read(dir.join("shard-0.journal")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../wfms-engine/tests/fixtures");
        let torn = std::fs::read(format!("{fixtures}/torn_tail.journal")).unwrap();
        let wal = file_bytes(&[
            LogRecord::Begin { txn: TxnId(1) },
            LogRecord::Update {
                txn: TxnId(1),
                key: "seat".into(),
                before: None,
                after: Some(Value::Str("12A".into())),
            },
            LogRecord::Commit { txn: TxnId(1) },
            LogRecord::Abort { txn: TxnId(2) },
            LogRecord::Checkpoint {
                state: vec![
                    ("n".into(), Value::Int(-7)),
                    ("b".into(), Value::Bytes(vec![1])),
                ],
            },
        ]);
        vec![journal, torn, wal, TENANTS.as_bytes().to_vec()]
    })
}

/// CRC-32 (IEEE), as the frame header records it.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 == 1 {
                (c >> 1) ^ 0xedb8_8320
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// `payloads`, each framed with a true length check and checksum, so a
/// decoder reads them as records.
fn framed(head: &[u8], payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = head.to_vec();
    for p in payloads {
        let len = p.len() as u32;
        for word in [len, !len, crc32(p)] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(p);
    }
    out
}

/// The frames of a well-formed log file: `(payload start, payload end)`.
fn frames(file: &[u8]) -> Vec<(usize, usize)> {
    let mut found = Vec::new();
    let mut pos = 5;
    while let Some(header) = file.get(pos..pos + 12) {
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        if pos + 12 + len > file.len() {
            break;
        }
        found.push((pos + 12, pos + 12 + len));
        pos += 12 + len;
    }
    found
}

/// One edit: overwrite, insert or delete a byte at a position.
type Edit = (usize, u8, u8);

fn apply(bytes: &mut Vec<u8>, range: (usize, usize), (at, byte, kind): Edit) {
    let span = range.1 - range.0;
    let at = range.0 + if span == 0 { 0 } else { at % span };
    match kind % 3 {
        0 if at < bytes.len() => bytes[at] ^= byte | 1,
        1 => bytes.insert(at.min(bytes.len()), byte),
        _ if at < bytes.len() => drop(bytes.remove(at)),
        _ => {}
    }
}

/// Corpus entry `which` with `edits` applied: anywhere in the file, or
/// — `refit` — inside one frame's payload, whose checksum is then made
/// true again so the record decoder meets the damage.
fn mutated(which: usize, edits: &[Edit], refit: Option<usize>) -> Vec<u8> {
    let mut bytes = corpus()[which % corpus().len()].clone();
    let frames = frames(&bytes);
    match refit.filter(|_| !frames.is_empty()) {
        Some(pick) => {
            let (start, end) = frames[pick % frames.len()];
            let mut payload = bytes[start..end].to_vec();
            for edit in edits {
                let len = payload.len();
                apply(&mut payload, (0, len), *edit);
            }
            let head = framed(&[], &[payload]);
            bytes.splice(start - 12..end, head);
        }
        None => {
            for edit in edits {
                let len = bytes.len();
                apply(&mut bytes, (0, len), *edit);
            }
        }
    }
    bytes
}

/// The file headers the decoders know, and two they do not.
const HEADS: [&[u8]; 5] = [
    b"WFJL\x02",
    b"WFJL\x01",
    b"WFWL\x02",
    b"WFWL\x01",
    b"WFJL\x07",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn outside_bytes_never_panic_and_allocate_in_proportion(
        raw in prop::collection::vec(any::<u8>(), 0..512),
        head in 0..HEADS.len(),
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..6),
        which in 0usize..4,
        edits in prop::collection::vec((any::<usize>(), any::<u8>(), any::<u8>()), 1..6),
        refit in prop::option::of(any::<usize>()),
    ) {
        read_all(&raw);
        let mut headed = HEADS[head].to_vec();
        headed.extend_from_slice(&raw);
        read_all(&headed);
        read_all(&framed(HEADS[head], &payloads));
        read_all(&mutated(which, &edits, refit));
    }
}
