//! An unkeyed hasher for the tables whose keys the process makes.
//!
//! `std`'s `HashMap` hashes with SipHash-1-3 under a per-process random
//! key. The key is what keeps a table sound against its input: without
//! it, whoever chooses the keys can choose keys that collide and turn
//! every lookup into a linear probe. That protection costs a dozen
//! rounds per short key, and the engine pays it on every replayed event
//! (a journalled path → its act slot) and every program invocation (the
//! program, its failure plan, its record locks).
//!
//! [`FastMap`] and [`FastSet`] hash with one multiply per eight bytes
//! and no key (the FxHash construction, with a final rotation so a
//! table's low bucket bits come from the well-mixed high bits of the
//! product). **The rule:** a table may use them only when every key it
//! *inserts* is made by this process — a compiled template's paths and
//! names, a registered program's name, a transaction id, a connection
//! token. (A deployed template's name counts: it is inserted once per
//! validated, compiled and journalled deploy, which costs far more than
//! any probe sequence it could lengthen.) Looking up an outside key in
//! such a table is fine: a lookup cannot lengthen a probe sequence. A table filled from outside bytes
//! — a journal or WAL file being decoded, an HTTP request field, the
//! tenants file — keeps `std`'s keyed hasher. `ci/fast_hash.sh` fails
//! when these names appear in a module that decodes outside bytes.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FastHasher`]; build it with `default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed by [`FastHasher`]; build it with `default()`.
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// The odd multiplier of rustc-hash 2.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Unkeyed multiply-add hasher; see the module docs for where it may
/// be used.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        // The tail is one more word, read without a copy: two
        // overlapping halves from four bytes up, else the first, middle
        // and last byte. Its length goes in the top byte, so `"a"` and
        // `"a\0"` feed different words.
        let rest = words.remainder();
        let n = rest.len();
        let half = |at: usize| {
            u64::from(u32::from_le_bytes(
                rest[at..at + 4].try_into().expect("four bytes"),
            ))
        };
        let tail = match n {
            0 => return,
            1..=3 => {
                u64::from(rest[0]) | u64::from(rest[n / 2]) << 8 | u64::from(rest[n - 1]) << 16
            }
            _ => half(0) | half(n - 4) << 32,
        };
        self.add(tail ^ (n as u64) << 56);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::hash::BuildHasher;
    use std::sync::Arc;

    /// A string of NULs, ASCII and two-, three- and four-byte
    /// characters, empty included.
    fn any_string() -> impl Strategy<Value = String> {
        prop::collection::vec(any::<u32>(), 0..20).prop_map(|codes| {
            codes
                .into_iter()
                .map(|c| {
                    let (lo, span) = match c % 5 {
                        0 => (0, 1),
                        1 => (0x20, 0x60),
                        2 => (0x80, 0x780),
                        3 => (0x800, 0xD000),
                        _ => (0x1_0000, 0x10_0000),
                    };
                    char::from_u32(lo + (c / 5) % span).unwrap_or('\u{FFFD}')
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every key type the process's tables use finds by its
        /// borrowed form what was inserted under it, and nothing else:
        /// `&str` in `Arc<str>` and `String` keys, `&[u8]` in byte
        /// keys, `u64`. The oracle is a `BTreeMap`.
        #[test]
        fn borrowed_lookups_find_what_was_inserted(
            keys in prop::collection::vec(any_string(), 0..24),
            probes in prop::collection::vec(any_string(), 0..8),
            ids in prop::collection::vec(any::<u64>(), 0..24),
        ) {
            let mut oracle = BTreeMap::new();
            let mut arcs: FastMap<Arc<str>, usize> = FastMap::default();
            let mut strings: FastMap<String, usize> = FastMap::default();
            let mut bytes: FastMap<Vec<u8>, usize> = FastMap::default();
            for (i, key) in keys.iter().enumerate() {
                oracle.insert(key.clone(), i);
                arcs.insert(Arc::from(key.as_str()), i);
                strings.insert(key.clone(), i);
                bytes.insert(key.as_bytes().to_vec(), i);
            }
            // Inserted keys, then near misses: a NUL more, a byte less.
            let mut near: Vec<String> = keys.iter().map(|k| format!("{k}\0")).collect();
            near.extend(keys.iter().filter_map(|k| k.get(..k.len().saturating_sub(1)).map(str::to_owned)));
            for key in keys.iter().chain(&probes).chain(&near) {
                let want = oracle.get(key.as_str());
                prop_assert_eq!(arcs.get(key.as_str()), want);
                prop_assert_eq!(strings.get(key.as_str()), want);
                prop_assert_eq!(bytes.get(key.as_bytes()), want);
            }
            let set: FastSet<u64> = ids.iter().copied().collect();
            for &id in &ids {
                prop_assert!(set.contains(&id));
                prop_assert_eq!(set.contains(&id.wrapping_add(1)), ids.contains(&id.wrapping_add(1)));
            }
        }
    }

    /// A million dense ids — transaction ids, connection tokens —
    /// spread over a table of 2^20 buckets by the low bits of their
    /// hash, as `hashbrown` indexes them. A uniform hash leaves a key
    /// in a bucket already taken `n − m·(1 − (1 − 1/m)^n)` times on
    /// average (≈ 36.8 % of them here); the bound is that figure.
    #[test]
    fn dense_ids_spread_at_least_as_evenly_as_a_uniform_hash() {
        let n: u64 = 1 << 20;
        let m = n.next_power_of_two();
        let build = BuildHasherDefault::<FastHasher>::default();
        let mut taken = vec![false; m as usize];
        let mut shared = 0u64;
        for id in 1..=n {
            let bucket = (build.hash_one(id) & (m - 1)) as usize;
            shared += u64::from(std::mem::replace(&mut taken[bucket], true));
        }
        let (n, m) = (n as f64, m as f64);
        let uniform = n - m * (1.0 - (1.0 - 1.0 / m).powf(n));
        assert!(
            (shared as f64) <= uniform,
            "{shared} of {n} ids share a bucket; a uniform hash: {uniform:.0}"
        );
    }
}
