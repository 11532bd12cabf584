//! `UnorderedMap` — the analog of `std::unordered_map`.

use crate::policy::{AttackPolicy, AttackSignals, BucketPolicy, DriftPolicy};
use crate::table::RawTable;
use sepe_core::guard::{GuardMode, GuardStats, GuardedHash, Resynth, SynthRequest};
use sepe_core::hash::keyed::SeedSource;
use sepe_core::hash::{ByteHash, HashBatch};
use std::borrow::Borrow;

/// Hysteresis state of the collision-storm detector: consecutive stormy
/// and calm observations, plus the probe-histogram baseline that turns
/// the cumulative [`sepe_obs::Histogram`] into a per-tick window.
/// [`AttackPolicy`] is the pure judgment; this is the memory that keeps
/// one noisy snapshot from flipping the hasher.
#[derive(Debug, Clone, Copy)]
pub struct AttackState {
    /// Consecutive observations that looked like a storm.
    storm_streak: u32,
    /// Consecutive observations that looked calm (only counted while on
    /// an escalated rung).
    quiet_streak: u32,
    /// Probe-length bucket counts at the previous detector tick. The
    /// histogram is monotone, so judging its lifetime p99 would keep a
    /// long-past storm "visible" forever; each tick diffs against this
    /// baseline and judges only the probes since the last one.
    probe_baseline: [u64; sepe_obs::histogram::BUCKETS],
}

impl Default for AttackState {
    fn default() -> Self {
        AttackState {
            storm_streak: 0,
            quiet_streak: 0,
            probe_baseline: [0; sepe_obs::histogram::BUCKETS],
        }
    }
}

/// Upper bound on the `q`-quantile of the probe-length observations
/// between two bucket-count snapshots (same semantics as
/// [`sepe_obs::Histogram::quantile`], over the delta). `None` when the
/// window saw nothing.
fn windowed_quantile(
    before: &[u64; sepe_obs::histogram::BUCKETS],
    after: &[u64; sepe_obs::histogram::BUCKETS],
    q: f64,
) -> Option<u64> {
    let mut total = 0u64;
    for (b, a) in before.iter().zip(after.iter()) {
        total = total.saturating_add(a.saturating_sub(*b));
    }
    if total == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, (b, a)) in before.iter().zip(after.iter()).enumerate() {
        seen = seen.saturating_add(a.saturating_sub(*b));
        if seen >= rank {
            return Some(sepe_obs::histogram::bucket_bounds(i).1);
        }
    }
    Some(u64::MAX)
}

/// A chained hash map with prime bucket counts and bucket introspection,
/// hashing keys through a [`ByteHash`].
///
/// # Examples
///
/// ```
/// use sepe_baselines::StlHash;
/// use sepe_containers::UnorderedMap;
///
/// let mut m = UnorderedMap::with_hasher(StlHash::new());
/// m.insert("alpha".to_owned(), 1);
/// m.insert("beta".to_owned(), 2);
/// assert_eq!(m.get("alpha"), Some(&1));
/// assert_eq!(m.remove("beta"), Some(2));
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct UnorderedMap<K, V, H> {
    table: RawTable<K, V, H>,
    attack: AttackState,
}

impl<K, V, H> UnorderedMap<K, V, H>
where
    K: Eq + AsRef<[u8]>,
    H: ByteHash,
{
    /// Creates an empty map using `hasher` and modulo bucket indexing.
    pub fn with_hasher(hasher: H) -> Self {
        UnorderedMap {
            table: RawTable::new(hasher, BucketPolicy::Modulo),
            attack: AttackState::default(),
        }
    }

    /// Creates an empty map with an explicit bucket-index policy (used by
    /// the RQ7 low-mixing experiments).
    pub fn with_hasher_and_policy(hasher: H, policy: BucketPolicy) -> Self {
        UnorderedMap {
            table: RawTable::new(hasher, policy),
            attack: AttackState::default(),
        }
    }

    /// The hash function in use.
    pub fn hasher(&self) -> &H {
        self.table.hasher()
    }

    /// The bucket-index policy in use.
    pub fn policy(&self) -> BucketPolicy {
        self.table.policy()
    }

    /// Number of key-value pairs.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.table.len() == 0
    }

    /// Inserts a pair, returning the previous value for an equal key.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.table.insert_unique(key, value)
    }

    /// Looks up a key.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.table.find(key).map(|i| &self.table.get_kv(i).1)
    }

    /// Looks up a key, returning a mutable value reference.
    ///
    /// Having mutable access anyway, this also drains an in-flight
    /// hash-function migration by a small bounded stride (see
    /// [`UnorderedMap::drain_on_read`]), so lookup-only workloads that go
    /// through `get_mut` still converge out of the dual-epoch state.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.table.drain_on_read();
        self.table
            .find(key)
            .map(|i| &mut self.table.get_kv_mut(i).1)
    }

    /// Whether the map contains `key`.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.table.find(key).is_some()
    }

    /// Removes a key, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.table.remove_one(key).map(|(_, v)| v)
    }

    /// Removes every pair.
    pub fn clear(&mut self) {
        self.table.clear();
    }

    /// Iterates over the pairs in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.table.iter()
    }

    /// Current number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.table.bucket_count()
    }

    /// Number of live entries in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.bucket_count()`.
    pub fn bucket_len(&self, i: usize) -> usize {
        self.table.bucket_len(i)
    }

    /// Σ over buckets of `max(0, bucket_len − 1)` — the paper's bucket
    /// collision count (Section 4.2).
    pub fn bucket_collisions(&self) -> u64 {
        self.table.bucket_collisions()
    }

    /// Length of the longest live bucket chain — the occupancy-skew
    /// signal the collision-storm detector judges, and the quantity the
    /// adversarial harness bounds (a lookup's probe length never exceeds
    /// its bucket's chain length).
    pub fn max_bucket_len(&self) -> usize {
        self.table.max_bucket_len()
    }

    /// Current load factor.
    pub fn load_factor(&self) -> f64 {
        self.table.load_factor()
    }

    /// Maximum load factor before rehashing (1.0, like libstdc++).
    pub fn max_load_factor(&self) -> f64 {
        self.table.max_load_factor()
    }

    /// Changes the maximum load factor, rehashing if already exceeded.
    ///
    /// # Panics
    ///
    /// Panics if `mlf` is not positive.
    pub fn set_max_load_factor(&mut self, mlf: f64) {
        self.table.set_max_load_factor(mlf);
    }

    /// Rehashes into at least `bucket_count` buckets.
    pub fn rehash(&mut self, bucket_count: usize) {
        self.table.rehash(bucket_count);
    }

    /// Ensures `additional` more pairs fit without rehashing, growing to a
    /// prime bucket count if necessary.
    pub fn reserve(&mut self, additional: usize) {
        let required = self.len() + additional;
        if required as f64 > self.max_load_factor() * self.bucket_count() as f64 {
            let target = crate::primes::grow_bucket_count(
                self.bucket_count() as u64,
                required,
                self.max_load_factor(),
            );
            self.rehash(target as usize);
        }
    }

    /// The 64-bit hash of `key` under this map's hash function.
    pub fn hash_of(&self, key: &[u8]) -> u64 {
        self.table.hash_of(key)
    }

    /// Advances any in-flight hash-function migration by up to `n` entries
    /// (a no-op otherwise). Mutating operations already drain a bounded
    /// stride each; this lets idle callers drain faster.
    pub fn migrate(&mut self, n: usize) {
        self.table.migrate(n);
    }

    /// Drains an in-flight migration completely, so every entry is filed
    /// under the live hash function.
    pub fn finish_migration(&mut self) {
        self.table.finish_migration();
    }

    /// Whether a hash-function migration epoch is currently being drained.
    pub fn migration_in_flight(&self) -> bool {
        self.table.migration_in_flight()
    }

    /// Fraction of the current migration already drained: 1.0 when no
    /// migration is in flight, monotone non-decreasing while one is.
    pub fn migration_progress(&self) -> f64 {
        self.table.migration_progress()
    }

    /// Opportunistic migration drain for read-heavy callers.
    ///
    /// Historically the old epoch drained only from *mutating* operations,
    /// so a table that served nothing but `get`s after a degrade paid the
    /// dual-epoch probe on every lookup forever. Read-only lookups now
    /// record their starvation (each `get` that probes an open epoch bumps
    /// an internal relaxed counter); this call — a no-op when no migration
    /// is in flight — drains a couple of entries, or the *whole* epoch once
    /// the staleness threshold has been crossed. `get_mut` calls it
    /// automatically; `ShardedMap` calls it from plain `get`s whenever it
    /// can take a shard's write lock without blocking readers.
    pub fn drain_on_read(&mut self) {
        self.table.drain_on_read();
    }

    /// Read-only lookups served while a migration epoch was in flight
    /// (resets to 0 when the epoch drains).
    pub fn stale_reads(&self) -> u64 {
        self.table.stale_reads()
    }

    /// Registers this map's table metrics under `labels`: the
    /// `table_probe_len` histogram plus the `table_drain_ops`,
    /// `table_epochs_opened`, `table_epochs_finished`,
    /// `table_stale_probes`, `table_batch_chunks` and `table_batch_keys`
    /// counters. The registry reads the live shared handles; nothing is
    /// copied and the map's hot paths are unaffected.
    ///
    /// In `obs`-off builds the ids still register but stay at zero.
    ///
    /// # Errors
    ///
    /// Propagates [`sepe_obs::RegistryError`] on duplicate registration
    /// (export each map under distinct labels).
    pub fn export_table_metrics(
        &self,
        registry: &sepe_obs::Registry,
        labels: &[(&str, &str)],
    ) -> Result<(), sepe_obs::RegistryError> {
        self.table.obs().export(registry, labels)
    }
}

/// Width of a lookup/insert batch chunk: matches the widest hash kernel, and
/// eight outstanding prefetches sit comfortably within the fill buffers of
/// any recent core.
const BATCH_CHUNK: usize = 8;

impl<K, V, H> UnorderedMap<K, V, H>
where
    K: Eq + AsRef<[u8]>,
    H: HashBatch,
{
    /// Batched lookup: hashes up to eight keys with one [`HashBatch`] call,
    /// prefetches every target bucket, then probes. `result[i]` is the value
    /// for `keys[i]`, as if by [`UnorderedMap::get`].
    pub fn get_batch(&self, keys: &[&[u8]]) -> Vec<Option<&V>> {
        let mut results = Vec::with_capacity(keys.len());
        let mut hashes = [0u64; BATCH_CHUNK];
        for chunk in keys.chunks(BATCH_CHUNK) {
            if sepe_obs::enabled() {
                self.table.obs().batch_chunks.inc();
                self.table.obs().batch_keys.add(chunk.len() as u64);
            }
            let hashes = &mut hashes[..chunk.len()];
            self.table.hasher().hash_batch(chunk, hashes);
            for &h in hashes.iter() {
                self.table.prefetch_bucket(h);
            }
            for (&h, &key) in hashes.iter().zip(chunk) {
                results.push(
                    self.table
                        .find_hashed(h, key)
                        .map(|i| &self.table.get_kv(i).1),
                );
            }
        }
        results
    }

    /// Batched insert: reserves room for the whole batch, then hashes eight
    /// pairs at a time before probing. `result[i]` is the previous value for
    /// `pairs[i].0`, as if by [`UnorderedMap::insert`] in order.
    pub fn insert_batch(&mut self, pairs: Vec<(K, V)>) -> Vec<Option<V>> {
        // Reserving up front keeps the bucket array stable across the batch;
        // the cached hashes are bucket-count independent either way.
        self.reserve(pairs.len());
        let mut results = Vec::with_capacity(pairs.len());
        let mut hashes = [0u64; BATCH_CHUNK];
        let mut chunk: Vec<(K, V)> = Vec::with_capacity(BATCH_CHUNK);
        let mut iter = pairs.into_iter();
        loop {
            chunk.extend(iter.by_ref().take(BATCH_CHUNK));
            if chunk.is_empty() {
                break;
            }
            if sepe_obs::enabled() {
                self.table.obs().batch_chunks.inc();
                self.table.obs().batch_keys.add(chunk.len() as u64);
            }
            {
                let keyrefs: Vec<&[u8]> = chunk.iter().map(|(k, _)| k.as_ref()).collect();
                let hashes = &mut hashes[..keyrefs.len()];
                self.table.hasher().hash_batch(&keyrefs, hashes);
            }
            for &h in &hashes[..chunk.len()] {
                self.table.prefetch_bucket(h);
            }
            for (i, (key, value)) in chunk.drain(..).enumerate() {
                results.push(self.table.insert_unique_hashed(hashes[i], key, value));
            }
        }
        results
    }
}

impl<K, V, F, G> UnorderedMap<K, V, GuardedHash<F, G>>
where
    K: Eq + AsRef<[u8]>,
    F: ByteHash,
    G: ByteHash,
{
    /// The drift counters of the guarded hasher.
    pub fn drift_stats(&self) -> &GuardStats {
        self.hasher().stats()
    }

    /// The guarded hasher's current routing mode.
    pub fn guard_mode(&self) -> GuardMode {
        self.hasher().mode()
    }

    /// Registers the map's table metrics *and* its guard drift counters
    /// (`guard_in_format` / `guard_off_format`) under `labels`. The drift
    /// counters are exported as live reads of the shared [`GuardStats`],
    /// so a snapshot always agrees with [`UnorderedMap::drift_stats`].
    ///
    /// # Errors
    ///
    /// Propagates [`sepe_obs::RegistryError`] on duplicate registration.
    pub fn export_metrics(
        &self,
        registry: &sepe_obs::Registry,
        labels: &[(&str, &str)],
    ) -> Result<(), sepe_obs::RegistryError> {
        self.export_table_metrics(registry, labels)?;
        self.hasher()
            .stats_handle()
            .export_metrics(registry, labels)
    }
}

impl<K, V, F, G> UnorderedMap<K, V, GuardedHash<F, G>>
where
    K: Eq + AsRef<[u8]>,
    F: ByteHash + Clone,
    G: ByteHash + Clone,
{
    /// Degrades unconditionally: flips the hasher to fallback-for-all-keys
    /// and opens a migration epoch so stored entries re-file incrementally
    /// instead of in one stop-the-world rebuild. Lookups stay consistent
    /// throughout — they probe both epochs until the drain completes.
    pub fn degrade_now(&mut self) {
        if self.hasher().is_degraded() {
            return;
        }
        // Snapshot the pre-flip routing first: the epoch's entries were
        // filed under it. Both frozen copies are counter-silent, so an
        // amortized drain and an eager rebuild leave identical drift stats.
        let old = self.table.hasher().epoch_frozen(GuardMode::Guarded);
        self.table.hasher().degrade();
        let rehasher = self.table.hasher().epoch_frozen(GuardMode::Degraded);
        self.table.begin_migration(old, rehasher);
    }

    /// Checks the *windowed* drift counters against `policy` and degrades
    /// when the off-format rate of the current observation window exceeds
    /// the threshold; full clean windows are rolled away, so early clean
    /// traffic cannot mask a later drift burst. Returns whether a
    /// transition happened during this call. Idempotent once degraded.
    pub fn maybe_degrade(&mut self, policy: &DriftPolicy) -> bool {
        if self.hasher().is_degraded() {
            return false;
        }
        let (off, total) = self.drift_stats().window_counts();
        if policy.should_degrade(off, total) {
            self.degrade_now();
            return true;
        }
        if policy.window_full(total) {
            self.drift_stats().roll_window();
        }
        false
    }

    /// Takes one upward rung on the escalation ladder, opening a
    /// migration epoch so the re-keying is an incremental rehash:
    ///
    /// * `Specialized (Guarded)` → `GuardedFallback (Degraded)` — format
    ///   drift handling doubles as the first escalation step;
    /// * `Degraded` → `Keyed(seed)` — the fallback is unkeyed and
    ///   precomputable, so a detected storm moves to a secret seed;
    /// * `Keyed` → `Keyed(rotated seed)` — a storm *while keyed* means
    ///   the seed leaked; rotate it.
    ///
    /// Each call bumps the `table_escalations` counter (rotations also
    /// bump `table_seed_rotations`), which the adversarial harness checks
    /// against its own transcript.
    pub fn escalate_now(&mut self, seeds: &impl SeedSource) {
        let mode = self.guard_mode();
        // Pin the pre-transition routing first: stored entries were filed
        // under it, and for the keyed rung the frozen copy must keep the
        // *old* seed through the rotation below.
        let old = self.table.hasher().epoch_frozen(mode);
        let next = match mode {
            GuardMode::Guarded => {
                self.table.hasher().degrade();
                GuardMode::Degraded
            }
            GuardMode::Degraded => {
                self.table.hasher().escalate_keyed(seeds);
                GuardMode::Keyed
            }
            GuardMode::Keyed => {
                self.table.hasher().rotate_seed(seeds);
                if sepe_obs::enabled() {
                    self.table.obs().seed_rotations.inc();
                }
                GuardMode::Keyed
            }
        };
        let rehasher = self.table.hasher().epoch_frozen(next);
        self.table.begin_migration(old, rehasher);
        if sepe_obs::enabled() {
            self.table.obs().escalations.inc();
        }
    }

    /// Gathers one [`AttackSignals`] snapshot from the table's own
    /// accounting and escalates when `policy` has judged it stormy
    /// [`AttackPolicy::trip_streak`] times in a row. Returns whether an
    /// escalation happened during this call.
    ///
    /// Call this from the same maintenance cadence as
    /// [`UnorderedMap::maybe_degrade`]; the streak state makes the cadence
    /// itself part of the hysteresis.
    pub fn maybe_escalate(&mut self, policy: &AttackPolicy, seeds: &impl SeedSource) -> bool {
        let signals = self.attack_signals();
        if !policy.storm(&signals) {
            self.attack.storm_streak = 0;
            return false;
        }
        self.attack.quiet_streak = 0;
        self.attack.storm_streak += 1;
        if self.attack.storm_streak < policy.trip_streak.max(1) {
            return false;
        }
        self.attack.storm_streak = 0;
        self.escalate_now(seeds);
        true
    }

    /// Counts one calm observation and, after
    /// [`AttackPolicy::quiet_streak`] of them on an escalated rung,
    /// de-escalates all the way back to the specialized hasher (guard
    /// re-armed, counters reset, reservoir cleared) under an incremental
    /// migration. Returns whether the de-escalation happened.
    pub fn maybe_deescalate(&mut self, policy: &AttackPolicy) -> bool {
        if self.guard_mode() == GuardMode::Guarded {
            return false;
        }
        if policy.storm(&self.attack_signals()) {
            self.attack.quiet_streak = 0;
            return false;
        }
        self.attack.quiet_streak += 1;
        if self.attack.quiet_streak < policy.quiet_streak.max(1) {
            return false;
        }
        self.attack.quiet_streak = 0;
        let old = self.table.hasher().epoch_frozen(self.guard_mode());
        self.table.hasher().rearm();
        let rehasher = self.table.hasher().epoch_frozen(GuardMode::Guarded);
        self.table.begin_migration(old, rehasher);
        if sepe_obs::enabled() {
            self.table.obs().deescalations.inc();
        }
        true
    }

    /// The detector's view of the table right now. Public so harnesses
    /// and benchmarks can log exactly what the policy judged.
    ///
    /// Takes `&mut self` because reading the probe tail advances the
    /// per-tick histogram window: `probe_p99` covers the probes since the
    /// *previous* call, so a long-past storm cannot keep the signal hot.
    pub fn attack_signals(&mut self) -> AttackSignals {
        let (window_off, window_total) = self.drift_stats().window_counts();
        let probe_p99 = if sepe_obs::enabled() {
            let counts = self.table.obs().probe_len.bucket_counts();
            let p99 = windowed_quantile(&self.attack.probe_baseline, &counts, 0.99);
            self.attack.probe_baseline = counts;
            if let Some(p) = p99 {
                self.table
                    .obs()
                    .probe_tail
                    .store(p, std::sync::atomic::Ordering::Relaxed);
            }
            p99
        } else {
            None
        };
        AttackSignals {
            max_bucket_len: self.table.max_bucket_len(),
            len: self.len(),
            bucket_count: self.bucket_count(),
            window_off,
            window_total,
            probe_p99,
        }
    }

    /// Escalation-ladder rungs taken (lifetime, `obs` builds only).
    pub fn escalations(&self) -> u64 {
        self.table.obs().escalations.get()
    }

    /// Quiet-window de-escalations (lifetime, `obs` builds only).
    pub fn deescalations(&self) -> u64 {
        self.table.obs().deescalations.get()
    }

    /// Keyed-rung seed rotations (lifetime, `obs` builds only).
    pub fn seed_rotations(&self) -> u64 {
        self.table.obs().seed_rotations.get()
    }
}

impl<K, V, G> UnorderedMap<K, V, GuardedHash<sepe_core::SynthesizedHash, G>>
where
    K: Eq + AsRef<[u8]>,
    G: ByteHash + Clone,
{
    /// Re-synthesizes the specialized hash from the reservoir of off-format
    /// keys the guard sampled, re-arms the guard (counters and reservoir
    /// reset), and opens a migration epoch that re-files stored entries
    /// incrementally. Returns the typed outcome: [`Resynth::NoDrift`] (and
    /// changes nothing) when no off-format keys were observed,
    /// [`Resynth::SynthFailed`] (and changes nothing) when synthesis failed,
    /// panicked, or produced a plan that does not fit the widened pattern.
    pub fn resynthesize(&mut self) -> Resynth {
        let mut out = Resynth::NoDrift;
        self.resynthesize_by(|h| {
            out = h.resynthesize();
            out.is_applied()
        });
        out
    }

    /// The reservoir-widened pattern and the family a resynthesis would
    /// synthesize, or `None` when no drift was sampled.
    pub fn resynth_request(&self) -> Option<SynthRequest> {
        self.hasher().resynth_request()
    }

    /// Serves a drift event from a memoized [`PlanCache`]: when the widened
    /// pattern's plan is already cached (same format drifted before, here or
    /// on another container), that plan is validated and installed exactly
    /// as [`UnorderedMap::resynthesize`] installs a fresh one, with no
    /// synthesis. Returns whether a plan was installed; `false` means no
    /// drift was sampled, the cache missed, or the cached plan failed
    /// validation, and nothing changed.
    ///
    /// [`PlanCache`]: sepe_core::PlanCache
    pub fn resynth_from_cache(&mut self, cache: &sepe_core::PlanCache) -> bool {
        self.resynthesize_by(|h| h.resynthesize_from_cache(cache))
    }

    /// Runs one resynthesis `step` on the hasher and, when it installed a
    /// plan, opens a migration epoch from the routing stored entries are
    /// filed under to the re-armed one.
    fn resynthesize_by(
        &mut self,
        step: impl FnOnce(&mut GuardedHash<sepe_core::SynthesizedHash, G>) -> bool,
    ) -> bool {
        // Snapshot the current routing before the plan is replaced: entries
        // are filed under it, whatever mode the map is in right now.
        let old = self.table.hasher().epoch_frozen(self.table.hasher().mode());
        let applied = step(self.table.hasher_mut());
        if applied {
            let rehasher = self.table.hasher().epoch_frozen(GuardMode::Guarded);
            self.table.begin_migration(old, rehasher);
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_baselines::StlHash;

    fn map() -> UnorderedMap<String, u32, StlHash> {
        UnorderedMap::with_hasher(StlHash::new())
    }

    #[test]
    fn insert_get_remove_cycle() {
        let mut m = map();
        assert!(m.is_empty());
        for i in 0..5000u32 {
            assert_eq!(m.insert(format!("key-{i:06}"), i), None);
        }
        assert_eq!(m.len(), 5000);
        for i in 0..5000u32 {
            assert_eq!(m.get(&format!("key-{i:06}")), Some(&i));
        }
        for i in (0..5000u32).step_by(2) {
            assert_eq!(m.remove(&format!("key-{i:06}")), Some(i));
        }
        assert_eq!(m.len(), 2500);
        for i in 0..5000u32 {
            let expect = if i % 2 == 0 { None } else { Some(&i) };
            assert_eq!(m.get(&format!("key-{i:06}")), expect);
        }
    }

    #[test]
    fn insert_replaces_existing() {
        let mut m = map();
        assert_eq!(m.insert("k".to_owned(), 1), None);
        assert_eq!(m.insert("k".to_owned(), 2), Some(1));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get("k"), Some(&2));
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut m = map();
        m.insert("k".to_owned(), 10);
        *m.get_mut("k").expect("present") += 5;
        assert_eq!(m.get("k"), Some(&15));
    }

    #[test]
    fn load_factor_stays_bounded() {
        let mut m = map();
        for i in 0..10_000u32 {
            m.insert(format!("{i:08}"), i);
        }
        assert!(m.load_factor() <= m.max_load_factor() + f64::EPSILON);
        assert!(m.bucket_count() >= 10_000);
        assert!(crate::primes::is_prime(m.bucket_count() as u64));
    }

    #[test]
    fn bucket_lens_sum_to_len() {
        let mut m = map();
        for i in 0..3000u32 {
            m.insert(format!("{i:07}"), i);
        }
        let total: usize = (0..m.bucket_count()).map(|b| m.bucket_len(b)).sum();
        assert_eq!(total, m.len());
    }

    #[test]
    fn clear_resets() {
        let mut m = map();
        for i in 0..100u32 {
            m.insert(format!("{i}"), i);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get("50"), None);
        m.insert("50".to_owned(), 1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut m = map();
        for round in 0..10u32 {
            for i in 0..500u32 {
                m.insert(format!("{i:05}"), round);
            }
            for i in 0..500u32 {
                assert_eq!(m.remove(&format!("{i:05}")), Some(round));
            }
        }
        assert!(m.is_empty());
    }

    #[test]
    fn low_mixing_policy_is_honored() {
        let mut m: UnorderedMap<String, u32, StlHash> = UnorderedMap::with_hasher_and_policy(
            StlHash::new(),
            BucketPolicy::HighBits { discard_low: 32 },
        );
        for i in 0..1000u32 {
            m.insert(format!("{i:06}"), i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&format!("{i:06}")), Some(&i));
        }
    }

    #[test]
    fn reserve_prevents_rehashes() {
        let mut m = map();
        m.reserve(10_000);
        let buckets = m.bucket_count();
        assert!(buckets >= 10_000);
        for i in 0..10_000u32 {
            m.insert(format!("{i:08}"), i);
        }
        assert_eq!(m.bucket_count(), buckets, "no rehash after reserve");
        assert_eq!(m.len(), 10_000);
    }

    fn guarded_ssn_map(
        family: sepe_core::Family,
    ) -> UnorderedMap<String, u32, GuardedHash<sepe_core::SynthesizedHash, StlHash>> {
        let pattern = sepe_core::regex::Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("compiles");
        UnorderedMap::with_hasher(GuardedHash::from_pattern(&pattern, family, StlHash::new()))
    }

    #[test]
    fn drift_threshold_flips_the_table_to_the_fallback() {
        let mut m = guarded_ssn_map(sepe_core::Family::Pext);
        let policy = DriftPolicy {
            threshold: 0.10,
            min_samples: 16,
            ..DriftPolicy::default()
        };
        for i in 0..64u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i, i % 100, i * 7 % 10_000), i);
        }
        assert!(!m.maybe_degrade(&policy), "no drift yet");
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        // 20% of subsequent traffic is off-format.
        for i in 0..40u32 {
            m.insert(format!("off-format key {i}"), i);
        }
        assert!(m.drift_stats().off_rate() > policy.threshold);
        assert!(m.maybe_degrade(&policy), "transition happens exactly once");
        assert_eq!(m.guard_mode(), GuardMode::Degraded);
        assert!(!m.maybe_degrade(&policy), "idempotent once degraded");
        // Every key is still found after the wholesale rehash: the cached
        // hashes were rebuilt under the fallback hasher.
        for i in 0..64u32 {
            let key = format!("{:03}-{:02}-{:04}", i, i % 100, i * 7 % 10_000);
            assert_eq!(m.get(key.as_str()), Some(&i), "{key}");
        }
        for i in 0..40u32 {
            assert_eq!(m.get(format!("off-format key {i}").as_str()), Some(&i));
        }
    }

    #[test]
    fn degraded_map_keeps_working_through_growth() {
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        for i in 0..100u32 {
            m.insert(format!("{i:03}-00-0000"), i);
        }
        m.degrade_now();
        // Inserts after the flip use the fallback hash; growth rehashes mix
        // cached pre-flip and post-flip hashes only if rebuild missed one.
        for i in 0..5_000u32 {
            m.insert(format!("post-{i:06}"), i);
        }
        for i in 0..100u32 {
            assert_eq!(m.get(format!("{i:03}-00-0000").as_str()), Some(&i));
        }
        for i in 0..5_000u32 {
            assert_eq!(m.get(format!("post-{i:06}").as_str()), Some(&i));
        }
    }

    #[test]
    fn resynthesis_rearms_the_guard_and_preserves_contents() {
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        for i in 0..50u32 {
            m.insert(format!("{i:03}-11-2222"), i);
        }
        // Drifted keys share the SSN shape except for a trailing letter.
        for i in 0..50u32 {
            m.insert(format!("{i:03}-11-222x"), i);
        }
        assert!(m.resynthesize().is_applied());
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        assert_eq!(m.drift_stats().total(), 0, "counters reset");
        // The widened guard accepts the previously drifted shape...
        assert!(m.hasher().guard().matches(b"123-11-222x"));
        // ...and every pair survived the rebuild.
        for i in 0..50u32 {
            assert_eq!(m.get(format!("{i:03}-11-2222").as_str()), Some(&i));
            assert_eq!(m.get(format!("{i:03}-11-222x").as_str()), Some(&i));
        }
    }

    #[test]
    fn resynthesis_without_drift_reports_no_drift() {
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        m.insert("123-45-6789".to_owned(), 1);
        assert_eq!(m.resynthesize(), sepe_core::guard::Resynth::NoDrift);
        assert!(m.resynth_request().is_none(), "nothing to widen either");
    }

    #[test]
    fn cached_plan_resynthesizes_without_a_search() {
        let cache = sepe_core::PlanCache::new(8);
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        for i in 0..50u32 {
            m.insert(format!("{i:03}-11-2222"), i);
            m.insert(format!("{i:03}-11-222x"), i);
        }
        // Cold cache: the miss changes nothing and the caller would fall
        // back to `resynthesize`.
        assert!(!m.resynth_from_cache(&cache), "cold cache misses");
        assert_eq!(cache.misses(), 1);
        // Prime the cache as a completed search would (same format drifted
        // elsewhere), then the same drift resolves synchronously.
        let request = m.resynth_request().expect("drift was sampled");
        cache.insert(
            &request.widened,
            request.family,
            sepe_core::synthesize(&request.widened, request.family),
        );
        assert!(m.resynth_from_cache(&cache), "warm cache applies");
        assert_eq!(cache.hits(), 1);
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        assert!(m.hasher().guard().matches(b"123-11-222x"));
        for i in 0..50u32 {
            assert_eq!(m.get(format!("{i:03}-11-2222").as_str()), Some(&i));
            assert_eq!(m.get(format!("{i:03}-11-222x").as_str()), Some(&i));
        }
        // Guard re-armed: no drift sampled, so nothing to serve.
        assert!(!m.resynth_from_cache(&cache), "no drift after re-arm");
    }

    #[test]
    fn get_batch_agrees_with_scalar_get() {
        let mut m = guarded_ssn_map(sepe_core::Family::Pext);
        for i in 0..500u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i), i);
        }
        let queries: Vec<String> = (0..137u32)
            .map(|i| {
                if i % 4 == 1 {
                    format!("missing query {i}")
                } else {
                    format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i)
                }
            })
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(String::as_bytes).collect();
        let batched = m.get_batch(&refs);
        assert_eq!(batched.len(), queries.len());
        for (q, got) in queries.iter().zip(batched) {
            assert_eq!(got, m.get(q.as_str()), "{q}");
        }
    }

    #[test]
    fn insert_batch_agrees_with_scalar_insert() {
        let mut batched = guarded_ssn_map(sepe_core::Family::OffXor);
        let mut scalar = guarded_ssn_map(sepe_core::Family::OffXor);
        // Duplicates inside the batch (i % 150) exercise the replace path;
        // off-format keys exercise the guard inside the batch hasher.
        let pairs: Vec<(String, u32)> = (0..300u32)
            .map(|i| {
                let key = if i % 7 == 3 {
                    format!("off format {}", i % 150)
                } else {
                    format!("{:03}-{:02}-{:04}", i % 150, i % 100, i % 150)
                };
                (key, i)
            })
            .collect();
        let scalar_results: Vec<Option<u32>> = pairs
            .iter()
            .map(|(k, v)| scalar.insert(k.clone(), *v))
            .collect();
        let batch_results = batched.insert_batch(pairs.clone());
        assert_eq!(batch_results, scalar_results);
        assert_eq!(batched.len(), scalar.len());
        for (k, _) in &pairs {
            assert_eq!(batched.get(k.as_str()), scalar.get(k.as_str()), "{k}");
        }
    }

    #[test]
    fn batch_ops_work_through_growth_and_plain_hashers() {
        let mut m = map();
        let pairs: Vec<(String, u32)> = (0..10_000u32).map(|i| (format!("{i:08}"), i)).collect();
        let prev = m.insert_batch(pairs);
        assert!(prev.iter().all(Option::is_none));
        assert_eq!(m.len(), 10_000);
        let queries: Vec<String> = (0..10_000u32)
            .step_by(97)
            .map(|i| format!("{i:08}"))
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(String::as_bytes).collect();
        for (q, got) in queries.iter().zip(m.get_batch(&refs)) {
            assert_eq!(got.copied(), q.parse::<u32>().ok(), "{q}");
        }
    }

    #[test]
    fn degradation_migrates_incrementally_not_stop_the_world() {
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        for i in 0..500u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i), i);
        }
        assert!((m.migration_progress() - 1.0).abs() < 1e-12);
        m.degrade_now();
        assert!(m.migration_in_flight(), "degrade opens an epoch");
        assert!(m.migration_progress() < 1.0);
        // Every key is visible mid-migration, from either epoch.
        for i in 0..500u32 {
            let key = format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
            assert_eq!(m.get(key.as_str()), Some(&i), "{key} mid-migration");
        }
        // Mutating traffic drains the epoch a bounded stride at a time.
        let mut last = m.migration_progress();
        let mut i = 0u32;
        while m.migration_in_flight() {
            m.insert(format!("new-{i:05}"), i);
            let now = m.migration_progress();
            assert!(now >= last, "progress is monotone");
            last = now;
            i += 1;
        }
        assert!(i > 1, "the drain took more than one operation");
        for i in 0..500u32 {
            let key = format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
            assert_eq!(m.get(key.as_str()), Some(&i), "{key} after drain");
        }
    }

    #[test]
    fn removals_reach_entries_still_in_the_old_epoch() {
        let mut m = guarded_ssn_map(sepe_core::Family::Pext);
        for i in 0..300u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i), i);
        }
        m.degrade_now();
        assert!(m.migration_in_flight());
        // Remove from the tail of the key space so some targets are still
        // in the old epoch when their removal arrives.
        for i in (0..300u32).rev() {
            let key = format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
            assert_eq!(m.remove(key.as_str()), Some(i), "{key}");
        }
        assert!(m.is_empty());
        assert!(!m.migration_in_flight(), "empty old epoch is dropped");
    }

    #[test]
    fn finish_migration_drains_explicitly() {
        let mut m = guarded_ssn_map(sepe_core::Family::Naive);
        for i in 0..200u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i), i);
        }
        m.degrade_now();
        m.migrate(7);
        assert!(m.migration_in_flight());
        m.finish_migration();
        assert!(!m.migration_in_flight());
        assert!((m.migration_progress() - 1.0).abs() < 1e-12);
        let total: usize = (0..m.bucket_count()).map(|b| m.bucket_len(b)).sum();
        assert_eq!(total, m.len(), "all entries re-filed in the live epoch");
    }

    #[test]
    fn growth_mid_migration_keeps_both_epochs_consistent() {
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        for i in 0..100u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i), i);
        }
        m.degrade_now();
        // Force a live-epoch resize while most entries still sit in the old
        // epoch; old-epoch chains must survive untouched.
        m.rehash(4099);
        for i in 0..100u32 {
            let key = format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
            assert_eq!(
                m.get(key.as_str()),
                Some(&i),
                "{key} after mid-migration rehash"
            );
        }
        m.finish_migration();
        for i in 0..100u32 {
            let key = format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
            assert_eq!(m.get(key.as_str()), Some(&i), "{key} after drain");
        }
    }

    #[test]
    fn sliding_window_catches_drift_after_a_long_clean_prefix() {
        // Regression: with lifetime counters, 10 000 clean observations
        // pinned the off-rate so low that sustained 100% off-format traffic
        // could never push it over a 10% threshold until the table had
        // absorbed over a thousand bad keys. The windowed policy reacts
        // within ~one window regardless of history length.
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        let policy = DriftPolicy {
            threshold: 0.10,
            min_samples: 64,
            window: 512,
        };
        for i in 0..5_000u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i), i);
            assert!(!m.maybe_degrade(&policy), "clean traffic never degrades");
        }
        let clean_total = m.drift_stats().total();
        let mut flipped_after = None;
        for i in 0..2_000u32 {
            m.insert(format!("drifted key {i}"), i);
            if m.maybe_degrade(&policy) {
                flipped_after = Some(i + 1);
                break;
            }
        }
        let flipped_after = flipped_after.expect("windowed policy must degrade");
        // Lifetime rate at the flip stays under the threshold — the old
        // lifetime-counter policy would still be waiting.
        let stats = m.drift_stats();
        assert!(
            stats.off_rate() < policy.threshold,
            "lifetime rate {} should still be below the threshold (clean prefix {clean_total})",
            stats.off_rate()
        );
        assert!(
            u64::from(flipped_after) * 2 <= policy.window * 2,
            "flip came within ~one window of off-format traffic, got {flipped_after}"
        );
        assert_eq!(m.guard_mode(), GuardMode::Degraded);
    }

    #[test]
    fn read_only_lookups_drain_a_starving_migration() {
        // Regression: `RawTable::migrate` used to run only from mutating
        // ops, so a read-heavy table kept its old epoch (and paid the
        // dual-epoch probe) forever. Lookup-shaped calls with mutable
        // access now drain a small stride each.
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        for i in 0..300u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i), i);
        }
        m.degrade_now();
        assert!(m.migration_in_flight());
        let mut last = m.migration_progress();
        let mut lookups = 0u32;
        while m.migration_in_flight() && lookups < 100_000 {
            let key = format!(
                "{:03}-{:02}-{:04}",
                lookups % 1000,
                lookups % 100,
                lookups % 300
            );
            let _ = m.get_mut(key.as_str());
            let now = m.migration_progress();
            assert!(now >= last, "progress is monotone under lookups");
            last = now;
            lookups += 1;
        }
        assert!(
            !m.migration_in_flight(),
            "read-only traffic drained the epoch"
        );
        for i in 0..300u32 {
            let key = format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
            assert_eq!(m.get(key.as_str()), Some(&i), "{key} after read drain");
        }
    }

    #[test]
    fn stale_reads_trigger_a_full_drain() {
        // Pure `&self` gets cannot drain, but they record starvation; once
        // the staleness threshold is crossed, the next drain opportunity
        // finishes the epoch outright instead of amortizing.
        let mut m = guarded_ssn_map(sepe_core::Family::Pext);
        for i in 0..200u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i), i);
        }
        m.degrade_now();
        assert!(m.migration_in_flight());
        assert_eq!(m.stale_reads(), 0);
        for round in 0..6u32 {
            for i in 0..200u32 {
                let key = format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
                assert_eq!(m.get(key.as_str()), Some(&i), "round {round} {key}");
            }
        }
        assert!(
            m.migration_in_flight(),
            "immutable gets alone cannot relink chains"
        );
        assert!(m.stale_reads() >= 1024, "starvation was recorded");
        m.drain_on_read();
        assert!(
            !m.migration_in_flight(),
            "a stale epoch is drained outright, not stride by stride"
        );
        assert_eq!(m.stale_reads(), 0, "counter resets with the epoch");
    }

    #[test]
    fn matches_std_hashmap_under_random_ops() {
        // Model-based check against std::collections::HashMap.
        let mut ours = map();
        let mut model: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        for step in 0..20_000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = format!("{:04}", (state >> 33) % 3000);
            match state % 3 {
                0 => {
                    assert_eq!(ours.insert(key.clone(), step), model.insert(key, step));
                }
                1 => {
                    assert_eq!(ours.get(&key), model.get(&key));
                }
                _ => {
                    assert_eq!(ours.remove(&key), model.remove(&key));
                }
            }
            assert_eq!(ours.len(), model.len());
        }
        let mut ours_sorted: Vec<(String, u32)> =
            ours.iter().map(|(k, v)| (k.clone(), *v)).collect();
        ours_sorted.sort();
        let mut model_sorted: Vec<(String, u32)> =
            model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        model_sorted.sort();
        assert_eq!(ours_sorted, model_sorted);
    }

    #[test]
    fn escalation_ladder_climbs_rung_by_rung() {
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(0x5E9E);
        for i in 0..200u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 900, i % 90, i), i);
        }
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        m.escalate_now(&seeds);
        assert_eq!(m.guard_mode(), GuardMode::Degraded);
        m.escalate_now(&seeds);
        assert_eq!(m.guard_mode(), GuardMode::Keyed);
        let seed_before = m.hasher().current_seed();
        m.escalate_now(&seeds);
        assert_eq!(m.guard_mode(), GuardMode::Keyed);
        assert_ne!(m.hasher().current_seed(), seed_before, "rotation rung");
        if sepe_obs::enabled() {
            assert_eq!(m.escalations(), 3);
            assert_eq!(m.seed_rotations(), 1);
        }
        // Contents survive every rung; lookups probe both epochs.
        for i in 0..200u32 {
            let key = format!("{:03}-{:02}-{:04}", i % 900, i % 90, i);
            assert_eq!(m.get(&key), Some(&i), "{key} lost during escalation");
        }
        m.finish_migration();
        assert_eq!(m.len(), 200);
    }

    #[test]
    fn storm_trips_the_detector_and_quiet_rearms_it() {
        let mut m = guarded_ssn_map(sepe_core::Family::Pext);
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(7);
        let policy = AttackPolicy {
            min_len: 32,
            trip_streak: 2,
            quiet_streak: 2,
            ..AttackPolicy::default()
        };
        // Benign fill: detector stays quiet on every tick.
        for i in 0..200u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 900, i % 90, i), i);
            assert!(!m.maybe_escalate(&policy, &seeds));
        }
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        // Flood one bucket, brute-forcing collisions against the live
        // (adversary-computable) hash — family-agnostic forgery.
        let target = m.hash_of(b"000-00-0000!") % m.bucket_count() as u64;
        let mut attack_keys = Vec::new();
        let mut i = 0u64;
        while attack_keys.len() < 48 {
            let key = format!("atk-{i:016x}");
            if m.hash_of(key.as_bytes()) % m.bucket_count() as u64 == target {
                m.insert(key.clone(), 0);
                attack_keys.push(key);
            }
            i += 1;
        }
        // First stormy tick arms the streak, second trips it.
        assert!(!m.maybe_escalate(&policy, &seeds));
        assert!(m.maybe_escalate(&policy, &seeds));
        assert_eq!(m.guard_mode(), GuardMode::Degraded);
        // The storm subsides: the crafted keys age out of the table and
        // the escalation migration drains. Quiet ticks then de-escalate.
        for key in &attack_keys {
            m.remove(key);
        }
        m.finish_migration();
        assert!(!m.maybe_deescalate(&policy));
        assert!(m.maybe_deescalate(&policy));
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        m.finish_migration();
        if sepe_obs::enabled() {
            assert_eq!(m.escalations(), 1);
            assert_eq!(m.deescalations(), 1);
        }
        // The drift counters were reset by the re-arm.
        assert_eq!(m.drift_stats().total(), 0);
    }
}
