//! Tenancy: named tenants with API keys, admission quotas and
//! fair-share weights.
//!
//! A tenants file (`fmtm serve --tenants FILE`) is a JSON document:
//!
//! ```json
//! {"tenants": [
//!   {"name": "acme", "key": "s3cret", "weight": 4, "max_inflight": 256},
//!   {"name": "beta", "key": "0ther"}
//! ]}
//! ```
//!
//! `weight` (default 1) is the tenant's share in the shard workers'
//! deficit-round-robin dequeue; `max_inflight` (default 256) caps the
//! tenant's submissions admitted but not yet answered — the breach
//! answer is `429` with `Retry-After`.
//!
//! ## Slots and identity
//!
//! Each tenant name is assigned a **slot** (1-based; 0 is reserved for
//! untenanted operation) in first-seen order. Slots are pinned in
//! `server.meta.json` next to the shard count because wire ids fold
//! the slot into their top [`TENANT_BITS`] bits — reopening a data
//! directory with a different tenancy layout is refused the same way
//! a different `--shards` is. Keys, weights and quotas are *not*
//! pinned: they live in the tenants file and hot-reload over
//! `POST /admin/reload-tenants`; new names are appended to the slot
//! list, existing names keep their slot forever.

use std::path::Path;
use std::sync::atomic::AtomicI64;
use std::sync::Arc;

use parking_lot::RwLock;
use serde::Deserialize;
use txn_substrate::frame::Name;
use wfms_observe::{Counter, Gauge, Registry};

use crate::shard::PoolError;
use crate::store::DataDir;

/// Wire-id bits reserved for the tenant slot when tenancy is enabled
/// (0 when disabled, which keeps untenanted wire ids byte-identical
/// to the pre-tenancy format). 8 bits → 255 tenants per directory.
pub const TENANT_BITS: u32 = 8;

/// Most tenant slots a directory can pin (slot 0 is reserved).
pub const MAX_TENANTS: usize = (1 << TENANT_BITS) - 1;

/// A directory's wire-id layout: how a shard-local id, its shard and
/// its tenant's slot fold into the external id,
/// `ext = local * nshards + shard`, with the slot in the top
/// [`TENANT_BITS`] bits when tenancy is enabled (none without, which
/// keeps the pre-tenancy layout bit for bit). Template version identity
/// is deliberately *not* encoded — an instance keeps its external id
/// across a live migration — and ids stay stable as long as the layout
/// does, which is why `server.meta.json` pins both halves.
#[derive(Clone, Copy)]
pub(crate) struct WireIds {
    pub(crate) nshards: u64,
    /// Wire-id bits reserved for the tenant slot: [`TENANT_BITS`] with
    /// tenancy enabled, 0 without.
    pub(crate) tenant_bits: u32,
}

impl WireIds {
    /// The layout of `nshards` shards, with or without tenant bits.
    pub(crate) fn new(nshards: usize, tenancy: bool) -> Self {
        WireIds {
            nshards: nshards as u64,
            tenant_bits: if tenancy { TENANT_BITS } else { 0 },
        }
    }

    /// Folds `local` on `shard`, owned by tenant `slot`, into its wire id.
    pub(crate) fn encode(self, local: u64, shard: usize, slot: u16) -> u64 {
        let base = local * self.nshards + shard as u64;
        if self.tenant_bits == 0 {
            base
        } else {
            (u64::from(slot) << (64 - self.tenant_bits)) | (base & (u64::MAX >> self.tenant_bits))
        }
    }

    /// Inverse of [`WireIds::encode`]: `(shard, local, slot)`. Locals
    /// are allocated from 1, so a base that would fold to local 0 is
    /// rejected rather than resolved to a nonexistent instance.
    pub(crate) fn decode(self, ext: u64) -> Option<(usize, u64, u16)> {
        let (slot, base) = if self.tenant_bits == 0 {
            (0u16, ext)
        } else {
            (
                (ext >> (64 - self.tenant_bits)) as u16,
                ext & (u64::MAX >> self.tenant_bits),
            )
        };
        let shard = (base % self.nshards) as usize;
        let local = base / self.nshards;
        (local > 0).then_some((shard, local, slot))
    }
}

/// One tenant as declared in the tenants file.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct TenantSpec {
    /// Stable tenant name — the slot-list key and the metric label.
    pub name: String,
    /// Bearer API key.
    pub key: String,
    /// Deficit-round-robin share (≥ 1).
    #[serde(default = "default_weight")]
    pub weight: u64,
    /// Max submissions admitted but not yet answered.
    #[serde(default = "default_max_inflight")]
    pub max_inflight: i64,
}

fn default_weight() -> u64 {
    1
}

fn default_max_inflight() -> i64 {
    256
}

/// Top-level tenants-file shape.
#[derive(Deserialize)]
struct TenantsFile {
    tenants: Vec<TenantSpec>,
}

/// Parses and validates a tenants file. Returns the declared tenants
/// in file order (which is slot order for first-seen names).
pub fn parse_tenants(text: &str) -> Result<Vec<TenantSpec>, String> {
    let file: TenantsFile = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let specs = file.tenants;
    let mut seen = std::collections::HashSet::new();
    for spec in &specs {
        if spec.name.is_empty() {
            return Err("tenant with empty name".to_owned());
        }
        if spec.key.is_empty() {
            return Err(format!("tenant {:?} has an empty key", spec.name));
        }
        if spec.weight == 0 {
            return Err(format!("tenant {:?} has weight 0", spec.name));
        }
        if spec.max_inflight <= 0 {
            return Err(format!("tenant {:?} has max_inflight <= 0", spec.name));
        }
        if !seen.insert(spec.name.clone()) {
            return Err(format!("duplicate tenant name {:?}", spec.name));
        }
    }
    if specs.len() > MAX_TENANTS {
        return Err(format!(
            "{} tenants declared; at most {MAX_TENANTS} fit the wire-id slot space",
            specs.len()
        ));
    }
    Ok(specs)
}

/// One live tenant: spec plus the runtime counters that must survive
/// hot reloads (the inflight level is shared by `Arc`, so a reply
/// sink created before a reload decrements the same counter the
/// post-reload admission check reads).
pub struct Tenant {
    /// Tenant name (metric label), interned when the tenants file is
    /// loaded or reloaded: the name its instances are journalled under.
    pub name: Name,
    /// Wire-id slot (1-based).
    pub slot: u16,
    key: Box<[u8]>,
    /// Deficit-round-robin share.
    pub weight: u64,
    /// Admission quota: max submissions in flight.
    pub max_inflight: i64,
    /// Submissions admitted but not yet answered.
    pub inflight: Arc<AtomicI64>,
    /// `server.tenant.accepted{tenant=name}`.
    pub accepted: Arc<Counter>,
    /// `server.tenant.overloaded{tenant=name}`.
    pub overloaded: Arc<Counter>,
    /// `server.tenant.inflight{tenant=name}`.
    pub inflight_gauge: Arc<Gauge>,
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("name", &self.name)
            .field("slot", &self.slot)
            .field("weight", &self.weight)
            .field("max_inflight", &self.max_inflight)
            .finish_non_exhaustive()
    }
}

/// One pinned slot: the name is durable (from `server.meta.json`);
/// the tenant is present only while the current tenants file declares
/// it — a slot whose name vanished from the file keeps its wire-id
/// space and its in-flight level, but cannot authenticate.
#[derive(Debug)]
struct Slot {
    name: String,
    inflight: Arc<AtomicI64>,
    tenant: Option<Arc<Tenant>>,
}

/// The live tenant set, indexed by slot. Rebuilt wholesale on reload;
/// readers hold an `Arc` snapshot so authentication never blocks a
/// reload (and vice versa).
#[derive(Debug, Default)]
pub struct TenantTable {
    slots: Vec<Slot>,
}

impl TenantTable {
    /// Builds the table for `slot_names` (the pinned, ordered slot
    /// list) from the current `specs`, carrying each name's in-flight
    /// level over from `previous` — also for a name the file dropped
    /// and declares again, whose submissions may still be in flight.
    pub fn build(
        slot_names: &[String],
        specs: &[TenantSpec],
        previous: Option<&TenantTable>,
        registry: &Registry,
    ) -> TenantTable {
        let accepted = registry.counter_vec("server.tenant.accepted", "tenant");
        let overloaded = registry.counter_vec("server.tenant.overloaded", "tenant");
        let gauges = registry.gauge_vec("server.tenant.inflight", "tenant");
        let slots = slot_names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let inflight = (previous.and_then(|t| t.slots.iter().find(|s| &s.name == name)))
                    .map_or_else(Arc::default, |slot| Arc::clone(&slot.inflight));
                let tenant = specs.iter().find(|s| &s.name == name).map(|spec| {
                    Arc::new(Tenant {
                        name: Name::new(&spec.name),
                        slot: (i + 1) as u16,
                        key: spec.key.as_bytes().into(),
                        weight: spec.weight,
                        max_inflight: spec.max_inflight,
                        inflight: Arc::clone(&inflight),
                        accepted: accepted.with_label(&spec.name),
                        overloaded: overloaded.with_label(&spec.name),
                        inflight_gauge: gauges.with_label(&spec.name),
                    })
                });
                Slot {
                    name: name.clone(),
                    inflight,
                    tenant,
                }
            })
            .collect();
        TenantTable { slots }
    }

    /// Resolves an API key to its tenant. Scans every slot without
    /// early exit and compares each key in constant time, so the
    /// response latency leaks neither which tenant matched nor how
    /// many prefix bytes did.
    pub fn authenticate(&self, key: &[u8]) -> Option<Arc<Tenant>> {
        let mut found: Option<&Arc<Tenant>> = None;
        for slot in &self.slots {
            if let Some(t) = &slot.tenant {
                if constant_time_eq(&t.key, key) {
                    found = Some(t);
                }
            }
        }
        found.cloned()
    }

    /// The live tenant named `name`, if any.
    pub fn by_name(&self, name: &str) -> Option<&Arc<Tenant>> {
        self.slots
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| s.tenant.as_ref())
    }

    /// The slot (1-based) pinned to `name`, live or not.
    pub fn slot_of_name(&self, name: &str) -> Option<u16> {
        self.slots
            .iter()
            .position(|s| s.name == name)
            .map(|i| (i + 1) as u16)
    }

    /// Number of pinned slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slots are pinned.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Live (authenticatable) tenants, slot order.
    pub fn live(&self) -> impl Iterator<Item = &Arc<Tenant>> {
        self.slots.iter().filter_map(|s| s.tenant.as_ref())
    }
}

/// Replaces the `live` table with the tenants declared in the file at
/// `path` — what [`crate::ShardPool::reload_tenants`] runs on shard 0's
/// worker. The file is read and validated, its names pinned to slots in
/// `dir`, and the table rebuilt over the pinned slots, carrying each
/// tenant's in-flight level over by name. Returns the number of live
/// tenants; a file that cannot be read or fails validation leaves the
/// live table as it was.
pub(crate) fn reload(
    path: &Path,
    dir: &DataDir,
    live: &RwLock<Arc<TenantTable>>,
    registry: &Registry,
) -> Result<usize, PoolError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| PoolError::TenantsFile(path.to_owned(), e))?;
    let specs = parse_tenants(&text)
        .map_err(|e| PoolError::Rejected(format!("tenants file rejected: {e}")))?;
    let slots = dir.pin_slots(&specs)?;
    let mut table = live.write();
    *table = Arc::new(TenantTable::build(&slots, &specs, Some(&table), registry));
    Ok(table.live().count())
}

/// Byte-equality in time that depends only on the *lengths*, never on
/// where the first mismatch sits: the accumulator folds every byte
/// pair before the single comparison at the end. Empty inputs never
/// match (a slot with no key must not authenticate an empty bearer).
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.is_empty() || b.is_empty() {
        return false;
    }
    let mut acc = (a.len() ^ b.len()) as u64;
    for i in 0..a.len().max(b.len()) {
        let x = a[i % a.len()];
        let y = b[i % b.len()];
        acc |= u64::from(x ^ y);
    }
    acc == 0
}

/// Extracts the bearer token from an `Authorization` header value.
/// Total over arbitrary bytes: anything that is not exactly
/// `Bearer <nonempty-token>` (scheme case-insensitive, single spaces
/// tolerated) is `None`, never a panic.
pub fn bearer_token(header: &str) -> Option<&str> {
    let rest = header.strip_prefix("Bearer").or_else(|| {
        // Case-insensitive scheme match without allocating.
        let (scheme, rest) = header.split_at_checked(6)?;
        scheme.eq_ignore_ascii_case("Bearer").then_some(rest)
    })?;
    let token = rest.strip_prefix(' ')?.trim();
    (!token.is_empty() && !token.contains(' ')).then_some(token)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<TenantSpec> {
        parse_tenants(
            r#"{"tenants":[
                {"name":"acme","key":"k-acme","weight":4,"max_inflight":8},
                {"name":"beta","key":"k-beta"}
            ]}"#,
        )
        .unwrap()
    }

    #[test]
    fn parse_applies_defaults_and_validates() {
        let specs = specs();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].weight, 4);
        assert_eq!(specs[0].max_inflight, 8);
        assert_eq!(specs[1].weight, 1, "default weight");
        assert_eq!(specs[1].max_inflight, 256, "default quota");

        for bad in [
            r#"{"tenants":[{"name":"","key":"k"}]}"#,
            r#"{"tenants":[{"name":"a","key":""}]}"#,
            r#"{"tenants":[{"name":"a","key":"k","weight":0}]}"#,
            r#"{"tenants":[{"name":"a","key":"k","max_inflight":0}]}"#,
            r#"{"tenants":[{"name":"a","key":"k"},{"name":"a","key":"j"}]}"#,
            r#"{"nope":1}"#,
            r#"not json"#,
        ] {
            assert!(parse_tenants(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn table_authenticates_and_pins_slots() {
        let registry = Registry::new();
        let names = vec!["acme".to_owned(), "beta".to_owned()];
        let table = TenantTable::build(&names, &specs(), None, &registry);
        assert_eq!(table.len(), 2);
        let acme = table.authenticate(b"k-acme").expect("acme key");
        assert_eq!((acme.name.as_str(), acme.slot), ("acme", 1));
        let beta = table.authenticate(b"k-beta").expect("beta key");
        assert_eq!(beta.slot, 2);
        assert!(table.authenticate(b"nope").is_none());
        assert!(table.authenticate(b"").is_none());
        assert_eq!(table.slot_of_name("beta"), Some(2));
    }

    #[test]
    fn reload_carries_inflight_and_keeps_slots() {
        use std::sync::atomic::Ordering;
        let registry = Registry::new();
        let names = vec!["acme".to_owned(), "beta".to_owned()];
        let table = TenantTable::build(&names, &specs(), None, &registry);
        table
            .by_name("acme")
            .unwrap()
            .inflight
            .store(5, Ordering::Relaxed);

        // Reload: beta vanishes, gamma appears (appended), acme's key
        // rotates — acme keeps its slot and its inflight level.
        let new_specs = parse_tenants(
            r#"{"tenants":[
                {"name":"gamma","key":"k-gamma"},
                {"name":"acme","key":"rotated","weight":2,"max_inflight":4}
            ]}"#,
        )
        .unwrap();
        let names2 = vec!["acme".to_owned(), "beta".to_owned(), "gamma".to_owned()];
        let table2 = TenantTable::build(&names2, &new_specs, Some(&table), &registry);
        let acme = table2.authenticate(b"rotated").expect("rotated key");
        assert_eq!(acme.slot, 1, "slot survives reload");
        assert_eq!(acme.inflight.load(Ordering::Relaxed), 5, "level carried");
        assert_eq!(acme.max_inflight, 4, "quota updated");
        assert!(table2.authenticate(b"k-acme").is_none(), "old key dead");
        assert!(table2.authenticate(b"k-beta").is_none(), "stale slot");
        assert_eq!(table2.slot_of_name("beta"), Some(2), "slot reserved");
        assert_eq!(table2.authenticate(b"k-gamma").unwrap().slot, 3);
    }

    /// Every (local, shard) pair round-trips through the wire fold,
    /// including locals at the top of the representable range. With
    /// tenancy disabled the fold is byte-identical to the pre-tenancy
    /// layout.
    #[test]
    fn ext_ids_roundtrip_near_u64_boundaries() {
        for &n in &[1u64, 3, 16] {
            let ids = WireIds::new(n as usize, false);
            let max_local = u64::MAX / n;
            for &local in &[1u64, 2, 7, 1000, max_local - 1, max_local] {
                for shard in 0..n as usize {
                    if local == max_local && shard as u64 > u64::MAX - local * n {
                        continue; // ext would not be representable
                    }
                    let ext = ids.encode(local, shard, 0);
                    assert_eq!(ext, local * n + shard as u64, "layout is pinned");
                    assert_eq!(
                        ids.decode(ext),
                        Some((shard, local, 0)),
                        "nshards={n} local={local} shard={shard}"
                    );
                }
            }
        }
    }

    /// With tenancy enabled the top [`TENANT_BITS`] carry the slot and
    /// the base fold round-trips in the remaining low bits, including
    /// locals at the top of the narrowed range.
    #[test]
    fn tenanted_ext_ids_roundtrip_near_base_boundaries() {
        let base_max = u64::MAX >> TENANT_BITS;
        for &n in &[1u64, 3, 16] {
            let ids = WireIds::new(n as usize, true);
            let max_local = base_max / n;
            for &slot in &[0u16, 1, 5, 255] {
                for &local in &[1u64, 2, 1000, max_local - 1, max_local] {
                    for shard in 0..n as usize {
                        if local * n + shard as u64 > base_max {
                            continue; // base would spill into the slot bits
                        }
                        let ext = ids.encode(local, shard, slot);
                        assert_eq!(
                            ext >> (64 - TENANT_BITS),
                            u64::from(slot),
                            "slot occupies the top bits"
                        );
                        assert_eq!(
                            ids.decode(ext),
                            Some((shard, local, slot)),
                            "nshards={n} local={local} shard={shard} slot={slot}"
                        );
                    }
                }
            }
        }
    }

    /// Locals are allocated from 1, so a base that folds to local 0
    /// never names an instance and must decode to `None` — with and
    /// without tenant bits — and the first representable id per shard
    /// decodes cleanly.
    #[test]
    fn small_ext_ids_decode_to_none() {
        for &n in &[1u64, 3, 16] {
            let (plain, tenanted) = (
                WireIds::new(n as usize, false),
                WireIds::new(n as usize, true),
            );
            for ext in 0..n {
                assert_eq!(plain.decode(ext), None, "nshards={n} ext={ext}");
                assert_eq!(tenanted.decode((7u64 << (64 - TENANT_BITS)) | ext), None);
            }
            for shard in 0..n as usize {
                assert_eq!(plain.decode(n + shard as u64), Some((shard, 1, 0)));
                assert_eq!(
                    tenanted.decode((7u64 << (64 - TENANT_BITS)) | (n + shard as u64)),
                    Some((shard, 1, 7)),
                    "nshards={n} shard={shard}"
                );
            }
        }
    }

    #[test]
    fn constant_time_eq_semantics() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
        assert!(!constant_time_eq(b"", b""));
        assert!(!constant_time_eq(b"x", b""));
    }

    #[test]
    fn bearer_token_extraction() {
        assert_eq!(bearer_token("Bearer k1"), Some("k1"));
        assert_eq!(bearer_token("bearer k1"), Some("k1"));
        assert_eq!(bearer_token("BEARER k1"), Some("k1"));
        assert_eq!(bearer_token("Bearer  k1"), Some("k1"), "trimmed");
        assert_eq!(bearer_token("Bearer"), None);
        assert_eq!(bearer_token("Bearer "), None);
        assert_eq!(bearer_token("Bearer a b"), None);
        assert_eq!(bearer_token("Basic dXNlcg=="), None);
        assert_eq!(bearer_token(""), None);
        assert_eq!(bearer_token("Bear"), None);
    }
}
