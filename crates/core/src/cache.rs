//! Memoized plan cache for the synthesis search.
//!
//! Resynthesis (drift on a hot container, or on several shards that share
//! one key format) repeatedly asks for a plan for the *same* key format.
//! Synthesis is deterministic — a given `(pattern, family)` always yields
//! the same [`Plan`] — so its result can be memoized. [`PlanCache`] keys
//! entries by a canonical pattern fingerprint and the hash family. The
//! cache lives only in memory, so every entry was produced by the
//! synthesizer of the running binary.
//!
//! Plans are independent of the ISA and the seed (those are applied at
//! hash-construction time, not at search time), so one cached plan serves
//! every seed rotation of the same format.
//!
//! The cache is bounded: inserts beyond `capacity` evict the least
//! recently touched entry. Hit/miss/insert/evict counters are kept
//! unconditionally (they are plain relaxed atomics) and can be exported
//! into a [`sepe_obs::Registry`] snapshot via [`PlanCache::export_metrics`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::pattern::KeyPattern;
use crate::plan_io;
use crate::synth::{Family, Plan};

/// Default number of cached plans when no capacity is given.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// 64-bit fingerprint of a pattern's structural content — per-byte
/// `(const_mask, const_bits)` pairs plus `min_len`, the exact fields the
/// canonical [`plan_io`] encoding serializes — so two structurally equal
/// patterns always collide onto one cache entry. Streamed FNV-1a, no
/// allocation: lookups stay cheap even for wide patterns.
#[must_use]
pub fn pattern_fingerprint(pattern: &KeyPattern) -> u64 {
    let bytes = pattern
        .bytes()
        .iter()
        .flat_map(|b| [b.const_mask(), b.const_bits()]);
    plan_io::fnv1a64(bytes.chain((pattern.min_len() as u64).to_le_bytes()))
}

/// Cache key: pattern fingerprint + family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`pattern_fingerprint`] of the key format.
    pub fingerprint: u64,
    /// Hash family the plan was synthesized for.
    pub family: Family,
}

impl CacheKey {
    /// The key under which a `(pattern, family)` search is memoized.
    #[must_use]
    pub fn new(pattern: &KeyPattern, family: Family) -> Self {
        CacheKey {
            fingerprint: pattern_fingerprint(pattern),
            family,
        }
    }
}

struct CacheInner {
    entries: HashMap<CacheKey, (Plan, u64)>,
    /// Monotonic touch stamp for LRU ordering.
    tick: u64,
}

/// Bounded, thread-safe memoization of synthesis results.
///
/// Lookups and inserts take a single short mutex; eviction is an `O(n)`
/// scan for the minimum stamp, which is fine at the double-digit
/// capacities resynthesis needs (one entry per live key format).
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: sepe_obs::Counter,
    misses: sepe_obs::Counter,
    insertions: sepe_obs::Counter,
    evictions: sepe_obs::Counter,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (clamped to at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                tick: 0,
            }),
            hits: sepe_obs::Counter::default(),
            misses: sepe_obs::Counter::default(),
            insertions: sepe_obs::Counter::default(),
            evictions: sepe_obs::Counter::default(),
        }
    }

    /// A cache with [`DEFAULT_CACHE_CAPACITY`] slots.
    #[must_use]
    pub fn with_default_capacity() -> Self {
        PlanCache::new(DEFAULT_CACHE_CAPACITY)
    }

    /// Looks up the memoized plan for `(pattern, family)`, refreshing its
    /// LRU stamp on a hit.
    #[must_use]
    pub fn lookup(&self, pattern: &KeyPattern, family: Family) -> Option<Plan> {
        let key = CacheKey::new(pattern, family);
        let mut inner = self
            .inner
            .lock()
            .expect("plan cache lock is never poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&key) {
            Some((plan, stamp)) => {
                *stamp = tick;
                let plan = plan.clone();
                drop(inner);
                self.hits.inc();
                Some(plan)
            }
            None => {
                drop(inner);
                self.misses.inc();
                None
            }
        }
    }

    /// Memoizes `plan` for `(pattern, family)`, evicting the least
    /// recently touched entry when the cache is full.
    pub fn insert(&self, pattern: &KeyPattern, family: Family, plan: Plan) {
        let key = CacheKey::new(pattern, family);
        let mut inner = self
            .inner
            .lock()
            .expect("plan cache lock is never poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.entries.contains_key(&key) && inner.entries.len() >= self.capacity {
            let lru = inner
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| *k)
                .expect("full cache has a least-recent entry");
            inner.entries.remove(&lru);
            self.evictions.inc();
        }
        inner.entries.insert(key, (plan, tick));
        drop(inner);
        self.insertions.inc();
    }

    /// Number of cached plans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("plan cache lock is never poisoned")
            .entries
            .len()
    }

    /// Whether the cache holds no plans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup hits since construction.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookup misses since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Plans inserted since construction.
    #[must_use]
    pub fn insertions(&self) -> u64 {
        self.insertions.get()
    }

    /// Entries evicted by the LRU bound since construction.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Registers `plan_cache_{hits,misses,insertions,evictions,entries}`
    /// in `registry`; values are read live at snapshot time.
    ///
    /// # Errors
    ///
    /// Propagates [`sepe_obs::RegistryError`] on duplicate registration.
    pub fn export_metrics(
        self: &Arc<Self>,
        registry: &sepe_obs::Registry,
    ) -> Result<(), sepe_obs::RegistryError> {
        let cache = self.clone();
        registry.export_counter("plan_cache_hits", &[], move || cache.hits())?;
        let cache = self.clone();
        registry.export_counter("plan_cache_misses", &[], move || cache.misses())?;
        let cache = self.clone();
        registry.export_counter("plan_cache_insertions", &[], move || cache.insertions())?;
        let cache = self.clone();
        registry.export_counter("plan_cache_evictions", &[], move || cache.evictions())?;
        let cache = self.clone();
        registry.export_counter("plan_cache_entries", &[], move || cache.len() as u64)?;
        Ok(())
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;
    use crate::synth::synthesize;

    fn pattern(re: &str) -> KeyPattern {
        Regex::compile(re).expect("test regex compiles")
    }

    #[test]
    fn fingerprint_equals_fnv_of_the_serialized_pattern() {
        // The streamed fingerprint hashes exactly this serialized layout:
        // per-byte (const_mask, const_bits) pairs, then min_len as a
        // little-endian u64.
        for p in [
            pattern(r"[0-9]{3}-[0-9]{2}-[0-9]{4}"),
            pattern(r"[a-z]{5,40}"),
            pattern(r"key_[0-9]{4,16}"),
            KeyPattern::of_key(b"always-the-same!"),
            KeyPattern::with_min_len(Vec::new(), 0),
        ] {
            let mut buf = Vec::new();
            for b in p.bytes() {
                buf.push(b.const_mask());
                buf.push(b.const_bits());
            }
            buf.extend_from_slice(&(p.min_len() as u64).to_le_bytes());
            assert_eq!(
                pattern_fingerprint(&p),
                plan_io::fnv1a64(buf.iter().copied())
            );
        }
    }

    #[test]
    fn hit_returns_the_inserted_plan() {
        let cache = PlanCache::new(8);
        let p = pattern(r"[0-9]{3}-[0-9]{2}-[0-9]{4}");
        assert_eq!(cache.lookup(&p, Family::Pext), None);
        let plan = synthesize(&p, Family::Pext);
        cache.insert(&p, Family::Pext, plan.clone());
        assert_eq!(cache.lookup(&p, Family::Pext), Some(plan));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn structurally_equal_patterns_share_an_entry() {
        let cache = PlanCache::new(8);
        let a = pattern(r"[0-9]{20}");
        let b = pattern(r"[0-9]{20}");
        cache.insert(&a, Family::Naive, synthesize(&a, Family::Naive));
        assert!(cache.lookup(&b, Family::Naive).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn families_do_not_alias() {
        let cache = PlanCache::new(8);
        let p = pattern(r"[0-9]{20}");
        cache.insert(&p, Family::Naive, synthesize(&p, Family::Naive));
        assert_eq!(cache.lookup(&p, Family::Pext), None);
    }

    #[test]
    fn lru_eviction_drops_the_coldest_entry() {
        let cache = PlanCache::new(2);
        let a = pattern(r"[0-9]{8}");
        let b = pattern(r"[0-9]{12}");
        let c = pattern(r"[0-9]{16}");
        cache.insert(&a, Family::Naive, synthesize(&a, Family::Naive));
        cache.insert(&b, Family::Naive, synthesize(&b, Family::Naive));
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.lookup(&a, Family::Naive).is_some());
        cache.insert(&c, Family::Naive, synthesize(&c, Family::Naive));
        assert_eq!(cache.evictions(), 1);
        assert!(cache.lookup(&a, Family::Naive).is_some());
        assert_eq!(cache.lookup(&b, Family::Naive), None);
        assert!(cache.lookup(&c, Family::Naive).is_some());
    }

    #[test]
    fn reinsert_updates_in_place_without_eviction() {
        let cache = PlanCache::new(1);
        let p = pattern(r"[0-9]{8}");
        let plan = synthesize(&p, Family::Naive);
        cache.insert(&p, Family::Naive, plan.clone());
        cache.insert(&p, Family::Naive, plan);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.insertions(), 2);
    }

    #[test]
    fn metrics_export_snapshots_live_values() {
        let cache = Arc::new(PlanCache::new(4));
        let registry = sepe_obs::Registry::new();
        cache
            .export_metrics(&registry)
            .expect("first export succeeds");
        let p = pattern(r"[0-9]{10}");
        assert_eq!(cache.lookup(&p, Family::OffXor), None);
        cache.insert(&p, Family::OffXor, synthesize(&p, Family::OffXor));
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("plan_cache_misses"), Some(1));
        assert_eq!(snapshot.counter("plan_cache_insertions"), Some(1));
        assert_eq!(snapshot.counter("plan_cache_entries"), Some(1));
        // Double registration is rejected.
        assert!(cache.export_metrics(&registry).is_err());
    }
}
