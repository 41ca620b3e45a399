//! Versioned template registry — definition evolution as a first-class
//! runtime concern rather than an ops afterthought.
//!
//! Workflow transactions are long-lived by construction, so "the"
//! template of a process is a moving target: a definition edited and
//! redeployed while instances are in flight must not change what those
//! instances execute. The registry therefore keys every compiled
//! template by the **content hash of its validated definition**
//! ([`crate::compiled::spec_hash_of`]) and keeps, per process name,
//! the *default* version (what new instances start under) alongside
//! every other registered version (what running instances stay pinned
//! to — an instance's pin is simply the `Arc<CompiledProcess>` it
//! holds).
//!
//! Deploy semantics mirror the journal format:
//!
//! * the first registration of a name is silent — a single-version
//!   engine journals exactly what the pre-versioning engine did;
//! * re-registering the current default is an idempotent no-op (this
//!   is what makes operator scripts safely re-runnable after a crash);
//! * registering a *different* hash under an existing name (or
//!   re-promoting an old one) journals
//!   [`Event::TemplateDeployed`](crate::event::Event), whose effect
//!   flips the default for future starts.

use crate::compiled::CompiledProcess;
use std::sync::Arc;
use txn_substrate::fast_hash::FastMap;

/// The identity handed back by [`crate::Engine::register`]: which
/// process was registered and which version (spec content hash, hex)
/// the supplied definition compiled to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateVersion {
    /// Process name.
    pub process: String,
    /// Spec content hash, fixed-width hex.
    pub version: String,
}

impl std::fmt::Display for TemplateVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.process, self.version)
    }
}

/// All registered template versions, keyed by content hash, with a
/// per-name default pointer.
#[derive(Default)]
pub(crate) struct TemplateRegistry {
    by_hash: FastMap<u64, Arc<CompiledProcess>>,
    default_of: FastMap<String, u64>,
    /// Registration order of distinct hashes per name (first entry is
    /// the initial default at recovery time).
    versions_of: FastMap<String, Vec<u64>>,
}

impl TemplateRegistry {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers `tpl`. The first version of a name is that name's
    /// initial default; a default moves only by [`Self::set_default`],
    /// the effect of a `TemplateDeployed` event. Returns the version
    /// identity plus whether it differs from its name's default — i.e.
    /// whether a running engine registering it owes that event.
    pub(crate) fn insert(&mut self, tpl: Arc<CompiledProcess>) -> (TemplateVersion, bool) {
        let name = tpl.name().to_owned();
        let hash = tpl.spec_hash;
        let version = TemplateVersion {
            process: name.clone(),
            version: tpl.version(),
        };
        if let std::collections::hash_map::Entry::Vacant(slot) = self.by_hash.entry(hash) {
            slot.insert(tpl);
            self.versions_of.entry(name.clone()).or_default().push(hash);
        }
        let deploys = *self.default_of.entry(name).or_insert(hash) != hash;
        (version, deploys)
    }

    /// Moves the default of `process` to the already-registered
    /// version `hash` (the effect of a `TemplateDeployed` event).
    /// `false` if no such version is registered.
    pub(crate) fn set_default(&mut self, process: &str, hash: u64) -> bool {
        if !self.by_hash.contains_key(&hash) {
            return false;
        }
        self.default_of.insert(process.to_owned(), hash);
        true
    }

    /// The default template of `process` — what a new instance starts
    /// under.
    pub(crate) fn default_tpl(&self, process: &str) -> Option<Arc<CompiledProcess>> {
        self.by_hash.get(self.default_of.get(process)?).cloned()
    }

    /// The template with this content hash, whatever name it carries.
    pub(crate) fn by_hash(&self, hash: u64) -> Option<Arc<CompiledProcess>> {
        self.by_hash.get(&hash).cloned()
    }

    /// [`Self::by_hash`] addressed by the hex rendering used in
    /// journals and APIs.
    pub(crate) fn by_version(&self, version: &str) -> Option<Arc<CompiledProcess>> {
        u64::from_str_radix(version, 16)
            .ok()
            .and_then(|h| self.by_hash(h))
    }

    /// `(name, default version hex)` for every name with more than one
    /// registered version, sorted by name. A checkpoint re-journals
    /// these after the snapshot event so the current defaults survive
    /// compaction; single-version names need nothing (their default is
    /// implied by the recovery template set).
    pub(crate) fn multi_version_defaults(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .versions_of
            .iter()
            .filter(|(_, hs)| hs.len() > 1)
            .filter_map(|(name, _)| {
                let h = self.default_of.get(name)?;
                Some((name.clone(), format!("{h:016x}")))
            })
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfms_model::ProcessBuilder;

    fn tpl(name: &str, program: &str) -> Arc<CompiledProcess> {
        let def = ProcessBuilder::new(name)
            .program("A", program)
            .build()
            .unwrap();
        Arc::new(CompiledProcess::compile(def))
    }

    #[test]
    fn first_registration_is_silent_and_becomes_default() {
        let mut reg = TemplateRegistry::new();
        let t = tpl("p", "x");
        let (v, deployed) = reg.insert(Arc::clone(&t));
        assert!(!deployed);
        assert_eq!(v.process, "p");
        assert_eq!(v.version, t.version());
        assert_eq!(reg.default_tpl("p").unwrap().spec_hash, t.spec_hash);
    }

    #[test]
    fn re_registering_the_default_is_a_noop() {
        let mut reg = TemplateRegistry::new();
        reg.insert(tpl("p", "x"));
        let (_, deployed) = reg.insert(tpl("p", "x"));
        assert!(!deployed);
        assert_eq!(reg.versions_of["p"].len(), 1);
    }

    #[test]
    fn a_different_hash_is_a_deploy_and_flips_the_default() {
        let mut reg = TemplateRegistry::new();
        let v1 = tpl("p", "x");
        let v2 = tpl("p", "y");
        assert_ne!(v1.spec_hash, v2.spec_hash);
        reg.insert(Arc::clone(&v1));
        let (_, deployed) = reg.insert(Arc::clone(&v2));
        assert!(deployed);
        assert!(reg.set_default("p", v2.spec_hash));
        assert_eq!(reg.default_tpl("p").unwrap().spec_hash, v2.spec_hash);
        assert_eq!(reg.versions_of["p"].len(), 2);
        // Both versions stay addressable by hash.
        assert!(reg.by_hash(v1.spec_hash).is_some());
        assert!(reg.by_version(&v2.version()).is_some());
        assert_eq!(
            reg.multi_version_defaults(),
            vec![("p".to_owned(), v2.version())]
        );
    }

    #[test]
    fn replay_inserts_fix_initial_defaults_only() {
        let mut reg = TemplateRegistry::new();
        let v1 = tpl("p", "x");
        let v2 = tpl("p", "y");
        reg.insert(Arc::clone(&v1));
        let (_, deployed) = reg.insert(Arc::clone(&v2));
        assert!(
            deployed,
            "differs from the default: a running engine owes the event"
        );
        assert_eq!(reg.default_tpl("p").unwrap().spec_hash, v1.spec_hash);
        assert!(reg.set_default("p", v2.spec_hash));
        assert_eq!(reg.default_tpl("p").unwrap().spec_hash, v2.spec_hash);
        assert!(!reg.set_default("p", 0xdead));
    }
}
