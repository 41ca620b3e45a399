//! The data directory's own files: `server.meta.json` and
//! `templates/<hash>.json`.
//!
//! What must not change across a reopen — the shard count, the
//! tenant-bit layout, the tenant slot list, the template versions shard
//! journals replay against — is pinned here, and every write is an
//! atomic rewrite. This is the only module that names the directory's
//! paths, the shard journals' included.

use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use txn_substrate::durability::atomic_rewrite;
use wfms_engine::spec_hash_of;
use wfms_model::ProcessDefinition;

use crate::shard::PoolError;
use crate::tenant::{TenantSpec, WireIds, MAX_TENANTS};

/// Persisted pool invariants, stored as `server.meta.json` in the
/// data directory.
///
/// Older shapes still open: a pre-tenancy meta (no tenant fields) reads
/// as `tenant_bits: 0` — exactly the layout those directories' wire
/// ids use — and the pre-versioning shape (only a shard count)
/// additionally reads as an empty template list, the supplied
/// definitions then being adopted as the initial versions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ServerMeta {
    shards: usize,
    /// Spec content hashes (hex) of every template version ever
    /// registered into this directory, in deploy order. The definition
    /// behind each hash lives in `templates/<hash>.json`; together they
    /// are the exact template set shard journals replay against.
    #[serde(default)]
    templates: Vec<String>,
    /// Wire-id bits reserved for the tenant slot:
    /// [`crate::tenant::TENANT_BITS`] when the directory was created
    /// with tenancy enabled, 0 otherwise.
    /// Pinned for the same reason the shard count is — changing it
    /// shifts every external id.
    #[serde(default)]
    tenant_bits: usize,
    /// Ordered tenant slot list (slot = index + 1), first-seen order.
    /// Append-only: hot reloads add names, never move or drop them.
    #[serde(default)]
    tenants: Vec<String>,
}

/// The data directory and the in-memory mirror of its
/// `server.meta.json`. Once the pool is open, both are written by
/// shard 0's worker only — deploys and tenant reloads do their file
/// work there — so the lock is never contended; it is there because
/// jobs come and go and the mirror stays.
pub(crate) struct DataDir {
    path: PathBuf,
    meta: Mutex<ServerMeta>,
}

impl DataDir {
    /// Shard `i`'s journal file.
    pub(crate) fn journal(&self, i: usize) -> PathBuf {
        self.path.join(format!("shard-{i}.journal"))
    }

    /// The slot-pinning rule, at open and at every reload: a tenant
    /// name of `specs` this directory has not seen yet is appended to
    /// the slot list (and the meta file rewritten), a name it has seen
    /// keeps its slot, and a name past [`MAX_TENANTS`] is refused.
    /// Returns the pinned slot list.
    pub(crate) fn pin_slots(&self, specs: &[TenantSpec]) -> Result<Vec<String>, PoolError> {
        let mut meta = self.meta.lock();
        let pinned = meta.tenants.len();
        for spec in specs {
            if !meta.tenants.iter().any(|n| n == &spec.name) {
                if meta.tenants.len() >= MAX_TENANTS {
                    return Err(PoolError::Rejected(format!(
                        "tenant slot space exhausted ({MAX_TENANTS} names already pinned)"
                    )));
                }
                meta.tenants.push(spec.name.clone());
            }
        }
        if meta.tenants.len() > pinned {
            write_meta(&self.path, &meta)?;
        }
        Ok(meta.tenants.clone())
    }

    /// Stores `def` as the template version `hash` — its file first,
    /// then the meta's hash list, so no meta names a version the
    /// directory cannot load — unless the directory holds it already.
    pub(crate) fn add_version(&self, hash: &str, def: &ProcessDefinition) -> Result<(), PoolError> {
        let mut meta = self.meta.lock();
        if !meta.templates.iter().any(|v| v == hash) {
            persist_template(&self.path, hash, def)?;
            meta.templates.push(hash.to_owned());
            write_meta(&self.path, &meta)?;
        }
        Ok(())
    }
}

/// Creates the data directory at `path` if absent, validates (or
/// writes) the wire-id layout `ids` its `server.meta.json` pins, and
/// reconciles the supplied definitions with the versions stored there.
///
/// Returns the directory plus the full deploy-ordered template set —
/// every stored version followed by any genuinely new processes from
/// `cli` — which every shard engine is opened with. A `cli` definition
/// whose *name* is already recorded but whose content hash matches no
/// stored version is refused with [`PoolError::SpecMismatch`]: the spec
/// changed out of band, and silently replaying old journals against it
/// would corrupt recovery.
pub(crate) fn open(
    path: PathBuf,
    ids: WireIds,
    cli: &[ProcessDefinition],
) -> Result<(DataDir, Vec<ProcessDefinition>), PoolError> {
    std::fs::create_dir_all(&path)?;
    let (shards, tenant_bits) = (ids.nshards as usize, ids.tenant_bits as usize);
    let dir = path.as_path();
    let meta_path = dir.join("server.meta.json");
    let tpl_dir = dir.join("templates");
    let mut meta = match std::fs::read_to_string(&meta_path) {
        Ok(text) => {
            let meta = parse_meta(&text)?;
            if meta.shards != shards {
                return Err(PoolError::ShardMismatch {
                    on_disk: meta.shards,
                    requested: shards,
                });
            }
            if meta.tenant_bits != tenant_bits {
                return Err(PoolError::TenancyMismatch {
                    on_disk: meta.tenant_bits,
                    requested: tenant_bits,
                });
            }
            meta
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => ServerMeta {
            shards,
            templates: Vec::new(),
            tenant_bits,
            tenants: Vec::new(),
        },
        Err(e) => return Err(PoolError::Io(e)),
    };

    let mut dirty = false;

    // Load every stored version in deploy order; the *last* hash per
    // name is that process's current default.
    let mut templates: Vec<ProcessDefinition> = Vec::with_capacity(meta.templates.len());
    let mut default_of: std::collections::HashMap<String, String> =
        std::collections::HashMap::new();
    for hash in &meta.templates {
        let path = tpl_dir.join(format!("{hash}.json"));
        let text = std::fs::read_to_string(&path).map_err(|e| {
            PoolError::Io(std::io::Error::other(format!(
                "stored template {hash}: {e}"
            )))
        })?;
        let def: ProcessDefinition = serde_json::from_str(&text).map_err(|e| {
            PoolError::Io(std::io::Error::other(format!(
                "stored template {hash}: {e}"
            )))
        })?;
        default_of.insert(def.name.clone(), hash.clone());
        templates.push(def);
    }

    for def in cli {
        let hash = format!("{:016x}", spec_hash_of(def));
        if meta.templates.contains(&hash) {
            continue; // already stored — possibly no longer the default
        }
        if let Some(on_disk) = default_of.get(def.name.as_str()) {
            return Err(PoolError::SpecMismatch {
                process: def.name.clone(),
                on_disk: on_disk.clone(),
                requested: hash,
            });
        }
        // A process name this directory has never seen: adopt it.
        persist_template(dir, &hash, def)?;
        default_of.insert(def.name.clone(), hash.clone());
        meta.templates.push(hash);
        templates.push(def.clone());
        dirty = true;
    }
    if dirty || !meta_path.exists() {
        write_meta(dir, &meta)?;
    }
    let meta = Mutex::new(meta);
    Ok((DataDir { path, meta }, templates))
}

/// Parses `server.meta.json` (older shapes included — see
/// [`ServerMeta`]'s `Deserialize`).
fn parse_meta(text: &str) -> Result<ServerMeta, PoolError> {
    serde_json::from_str(text)
        .map_err(|e| PoolError::Io(std::io::Error::other(format!("bad meta: {e}"))))
}

/// Writes one definition to `templates/<hash>.json`, atomically. A
/// file already there is rewritten, not trusted: the name is a content
/// hash, so the bytes are the same unless a crash cut the earlier write
/// short.
fn persist_template(dir: &Path, hash: &str, def: &ProcessDefinition) -> Result<(), PoolError> {
    let tpl_dir = dir.join("templates");
    std::fs::create_dir_all(&tpl_dir)?;
    let text = serde_json::to_string(def).expect("definition serializes");
    atomic_rewrite(&tpl_dir.join(format!("{hash}.json")), text.as_bytes())?;
    Ok(())
}

/// Rewrites `server.meta.json`, atomically: a crash leaves the old meta
/// or the new one, never a truncated file the next open would refuse.
fn write_meta(dir: &Path, meta: &ServerMeta) -> Result<(), PoolError> {
    let text = serde_json::to_string(meta).expect("meta serializes");
    atomic_rewrite(&dir.join("server.meta.json"), text.as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{parse_meta, ServerMeta};
    use crate::deploy::MigrationPolicy;
    use crate::shard::{PoolConfig, PoolError, ShardPool, SubmitOutcome};
    use crate::tenant::TENANT_BITS;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;
    use txn_substrate::{MultiDatabase, ProgramOutcome, ProgramRegistry};
    use wfms_engine::spec_hash_of;
    use wfms_model::{Container, ProcessBuilder, ProcessDefinition};
    use wfms_observe::Registry;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wfms-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A version of process `one`: a single step named `step`.
    fn one(step: &str) -> ProcessDefinition {
        ProcessBuilder::new("one")
            .program(step, "ok")
            .build()
            .unwrap()
    }

    fn open(dir: &Path, templates: Vec<ProcessDefinition>) -> Result<ShardPool, PoolError> {
        let mut cfg = PoolConfig::new(dir);
        cfg.templates = templates;
        ShardPool::open(cfg, Arc::new(Registry::new()), &|_| {
            let fed = MultiDatabase::new(0);
            fed.add_database("db");
            let programs = Arc::new(ProgramRegistry::new());
            programs.register_fn("ok", |_| ProgramOutcome::committed());
            (fed, programs)
        })
    }

    /// The version a new submission of `one` is pinned to.
    fn submitted_version(pool: &ShardPool) -> String {
        let SubmitOutcome::Accepted { id, .. } = pool.submit("one", Container::empty()) else {
            panic!("submit rejected");
        };
        pool.status(id).expect("just accepted").2
    }

    /// A crash while `templates/<hash>.json` was being written leaves
    /// an empty or half-length file under a name that promises the
    /// content. The next open rewrites it: existence proves nothing.
    #[test]
    fn a_torn_template_file_is_rewritten_not_trusted() {
        let dir = temp_dir("torn-template");
        let def = one("A");
        let file = dir
            .join("templates")
            .join(format!("{:016x}.json", spec_hash_of(&def)));
        std::fs::create_dir_all(file.parent().unwrap()).unwrap();
        std::fs::write(&file, "").unwrap();

        drop(open(&dir, vec![def.clone()]).unwrap());
        let stored: ProcessDefinition =
            serde_json::from_str(&std::fs::read_to_string(&file).unwrap()).unwrap();
        assert_eq!(spec_hash_of(&stored), spec_hash_of(&def));
        open(&dir, vec![def]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One rule for defaults, whatever the journal holds: the first
    /// stored version of a name is its initial default and only a
    /// journalled `TemplateDeployed` moves it. (Before `Engine::open`, a
    /// shard whose journal was absent registered the stored versions
    /// live instead, which left the *last* one the default.) A shard
    /// that lost its journal therefore starts `one` on v1 again, like a
    /// shard whose journal never saw the deploy; deploying v2 again
    /// moves it.
    #[test]
    fn only_the_journal_moves_a_default() {
        let dir = temp_dir("defaults");
        let v1 = format!("{:016x}", spec_hash_of(&one("A")));
        let v2 = format!("{:016x}", spec_hash_of(&one("B")));
        {
            let pool = open(&dir, vec![one("A")]).unwrap();
            pool.deploy(one("B"), MigrationPolicy::DrainOld).unwrap();
            assert_eq!(submitted_version(&pool), v2);
        }
        assert_eq!(submitted_version(&open(&dir, Vec::new()).unwrap()), v2);

        std::fs::remove_file(dir.join("shard-0.journal")).unwrap();
        let pool = open(&dir, Vec::new()).unwrap();
        assert_eq!(submitted_version(&pool), v1);
        pool.deploy(one("B"), MigrationPolicy::DrainOld).unwrap();
        assert_eq!(submitted_version(&pool), v2);
        drop(pool);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The three `server.meta.json` shapes ever written each parse to
    /// the meta they upgrade to; anything else is a "bad meta" error.
    #[test]
    fn every_meta_shape_ever_written_still_parses() {
        let h = |s: &str| vec![s.to_owned()];
        let current = ServerMeta {
            shards: 4,
            templates: h("00ab"),
            tenant_bits: TENANT_BITS as usize,
            tenants: h("acme"),
        };
        let text = serde_json::to_string(&current).unwrap();
        assert_eq!(parse_meta(&text).unwrap(), current);

        let pre_tenancy = parse_meta(r#"{"shards":2,"templates":["00ab"]}"#).unwrap();
        assert_eq!(
            pre_tenancy,
            ServerMeta {
                shards: 2,
                templates: h("00ab"),
                tenant_bits: 0,
                tenants: Vec::new(),
            }
        );

        let pre_versioning = parse_meta(r#"{"shards":3}"#).unwrap();
        assert_eq!(
            pre_versioning,
            ServerMeta {
                shards: 3,
                templates: Vec::new(),
                tenant_bits: 0,
                tenants: Vec::new(),
            }
        );

        for garbage in [
            "",
            "not json",
            "{}",
            r#"{"shards":"two"}"#,
            r#"{"templates":[]}"#,
        ] {
            match parse_meta(garbage) {
                Err(PoolError::Io(e)) => {
                    assert!(e.to_string().starts_with("bad meta: "), "{garbage:?}: {e}")
                }
                other => panic!("{garbage:?} parsed as {other:?}"),
            }
        }
    }
}
