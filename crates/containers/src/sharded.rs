//! Lock-striped concurrent containers: [`ShardedMap`] and [`ShardedSet`].
//!
//! A [`ShardedMap`] splits a guarded [`UnorderedMap`] into `N` independent
//! shards, each behind its own [`RwLock`]. The shard for a key is chosen by
//! the **high bits of a routing hash**, so the low bits — the ones the
//! modulo bucket policy consumes — stay fully mixed within every shard.
//!
//! Two design points keep the sharding correct under drift:
//!
//! * **The router never moves.** Routing goes through an epoch-frozen,
//!   counter-silent copy of the guarded hasher pinned to
//!   [`GuardMode::Guarded`]. A live guarded hash changes its output when a
//!   shard degrades or resynthesizes; if shard selection followed it, a
//!   degradation would silently re-route keys to a *different* shard and
//!   orphan everything already stored. The frozen router hashes every key
//!   the same way forever, and it bumps no drift counters, so routing is
//!   invisible to the drift policies.
//! * **Each shard drifts alone.** Every shard owns a
//!   [`detached`](GuardedHash::detached) copy of the hasher — same guard
//!   and hash functions, private statistics, mode, and reservoir. One
//!   shard's off-format burst degrades *that shard only*; its siblings
//!   keep serving specialized hashes, which is the entire point of
//!   bounding the blast radius of drift.
//!
//! Reads take a shard read lock; writes take the shard write lock. Batched
//! operations group keys by shard first, lock each touched shard once, and
//! reuse the single-shard batch kernels (one [`HashBatch`] call and one
//! prefetch sweep per chunk) inside the lock.

use crate::map::UnorderedMap;
use crate::policy::{AttackPolicy, BucketPolicy, DriftPolicy};
use sepe_core::guard::{GuardMode, GuardedHash, SynthRequest};
use sepe_core::hash::keyed::SeedSource;
use sepe_core::hash::{ByteHash, HashBatch};
use sepe_obs::{Counter, EventTrace, ObsEvent};
use std::borrow::Borrow;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Maximum shard count: 64 shards consume 6 high hash bits, leaving 58
/// well-mixed bits for bucket indexing inside each shard.
pub const MAX_SHARDS: usize = 64;

/// Ring capacity for a sharded map's degradation event trace: generous
/// for `MAX_SHARDS` shards degrading and re-arming many times over.
const SHARD_EVENT_CAPACITY: usize = 1024;

/// Map-wide observability: lock acquisitions, shard degradations, and a
/// bounded trace of [`ObsEvent::ShardDegrade`] events. Shared handles so
/// an exported [`sepe_obs::Registry`] reads live values; bumps are gated
/// on [`sepe_obs::enabled`].
#[derive(Debug)]
struct ShardObs {
    /// Shard read locks taken (including non-blocking upgrade probes).
    read_locks: Arc<Counter>,
    /// Shard write locks taken.
    write_locks: Arc<Counter>,
    /// Guarded→Degraded transitions, counted once per actual flip.
    shard_degrades: Arc<Counter>,
    /// Upward escalation-ladder rungs taken across shards (rotations
    /// included).
    shard_escalations: Arc<Counter>,
    /// Quiet-window de-escalations back to specialized hashing.
    shard_deescalations: Arc<Counter>,
    /// Keyed-rung seed rotations (a subset of `shard_escalations`).
    shard_seed_rotations: Arc<Counter>,
    /// Degradation and escalation events, oldest first.
    events: Arc<EventTrace<ObsEvent>>,
}

impl Default for ShardObs {
    fn default() -> Self {
        ShardObs {
            read_locks: Arc::new(Counter::new()),
            write_locks: Arc::new(Counter::new()),
            shard_degrades: Arc::new(Counter::new()),
            shard_escalations: Arc::new(Counter::new()),
            shard_deescalations: Arc::new(Counter::new()),
            shard_seed_rotations: Arc::new(Counter::new()),
            events: Arc::new(EventTrace::new(SHARD_EVENT_CAPACITY)),
        }
    }
}

/// A lock-striped concurrent hash map over guarded hashers.
///
/// All operations take `&self`; interior mutability lives in the per-shard
/// [`RwLock`]s, so a `ShardedMap` can be shared across threads (it is
/// `Send + Sync` whenever its pieces are).
///
/// # Examples
///
/// ```
/// use sepe_baselines::StlHash;
/// use sepe_containers::ShardedMap;
/// use sepe_core::guard::GuardedHash;
/// use sepe_core::hash::SynthesizedHash;
/// use sepe_core::regex::Regex;
/// use sepe_core::synth::Family;
///
/// let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}")?;
/// let hash = SynthesizedHash::from_pattern(&pattern, Family::Pext);
/// let guarded = GuardedHash::new(&pattern, hash, StlHash::new());
/// let map = ShardedMap::with_hasher(guarded, 8);
///
/// std::thread::scope(|s| {
///     for t in 0..4u32 {
///         let map = &map;
///         s.spawn(move || {
///             for i in (t..100).step_by(4) {
///                 map.insert(format!("{:03}-{:02}-{:04}", i, i % 100, i), i);
///             }
///         });
///     }
/// });
/// assert_eq!(map.len(), 100);
/// assert_eq!(map.get("007-07-0007"), Some(7));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ShardedMap<K, V, F, G> {
    /// Epoch-frozen, silent, `Guarded`-pinned router (see module docs).
    router: GuardedHash<F, G>,
    shards: Box<[Shard<K, V, F, G>]>,
    /// `log2(shards.len())`; shard index = top `shard_bits` of the hash.
    shard_bits: u32,
    obs: ShardObs,
}

/// One lock-striped shard: a self-healing map behind its own `RwLock`.
type Shard<K, V, F, G> = RwLock<UnorderedMap<K, V, GuardedHash<F, G>>>;

impl<K, V, F, G> ShardedMap<K, V, F, G>
where
    K: Eq + AsRef<[u8]>,
    F: ByteHash + Clone,
    G: ByteHash + Clone,
{
    /// Creates an empty map striped across `shards` locks (rounded up to a
    /// power of two, clamped to `1..=`[`MAX_SHARDS`]), with modulo bucket
    /// indexing inside each shard.
    pub fn with_hasher(hasher: GuardedHash<F, G>, shards: usize) -> Self {
        Self::with_hasher_and_policy(hasher, shards, BucketPolicy::Modulo)
    }

    /// As [`ShardedMap::with_hasher`], with an explicit bucket-index policy
    /// for the shards.
    pub fn with_hasher_and_policy(
        hasher: GuardedHash<F, G>,
        shards: usize,
        policy: BucketPolicy,
    ) -> Self {
        let count = shards.clamp(1, MAX_SHARDS).next_power_of_two();
        let shards: Vec<_> = (0..count)
            .map(|_| {
                RwLock::new(UnorderedMap::with_hasher_and_policy(
                    hasher.detached(),
                    policy,
                ))
            })
            .collect();
        ShardedMap {
            router: hasher.epoch_frozen(GuardMode::Guarded),
            shards: shards.into_boxed_slice(),
            shard_bits: count.trailing_zeros(),
            obs: ShardObs::default(),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of_hash(&self, hash: u64) -> usize {
        if self.shard_bits == 0 {
            0 // `hash >> 64` would overflow the shift, not return 0.
        } else {
            (hash >> (64 - self.shard_bits)) as usize
        }
    }

    /// The shard index `key` routes to — stable for the lifetime of the
    /// map, across shard degradations and resynthesis.
    #[inline]
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.shard_of_hash(self.router.hash_bytes(key))
    }

    #[inline]
    fn read(&self, i: usize) -> RwLockReadGuard<'_, UnorderedMap<K, V, GuardedHash<F, G>>> {
        // A poisoned shard saw a panic mid-operation; its chains are still
        // structurally sound (no unsafe in the table), so recover rather
        // than cascade the panic through every thread touching the map.
        if sepe_obs::enabled() {
            self.obs.read_locks.inc();
        }
        self.shards[i]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    #[inline]
    fn write(&self, i: usize) -> RwLockWriteGuard<'_, UnorderedMap<K, V, GuardedHash<F, G>>> {
        if sepe_obs::enabled() {
            self.obs.write_locks.inc();
        }
        self.shards[i]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Total number of pairs across all shards. Taken shard by shard, so
    /// under concurrent writers the value is a moment-to-moment estimate.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.read(i).len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        (0..self.shards.len()).all(|i| self.read(i).is_empty())
    }

    /// Inserts a pair, returning the previous value for an equal key.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        let idx = self.shard_of(key.as_ref());
        self.write(idx).insert(key, value)
    }

    /// Looks up a key, cloning the value out (references cannot outlive
    /// the shard lock).
    ///
    /// When the shard has a migration epoch in flight, the lookup also
    /// tries a non-blocking write-lock upgrade afterwards and drains a
    /// small stride ([`UnorderedMap::drain_on_read`]) — read-heavy
    /// workloads converge out of the dual-epoch state instead of paying
    /// the double probe forever, but never block behind other readers.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
        V: Clone,
    {
        let idx = self.shard_of(key.as_ref().as_ref());
        let (hit, migrating) = {
            let shard = self.read(idx);
            (shard.get(key).cloned(), shard.migration_in_flight())
        };
        if migrating {
            if let Ok(mut shard) = self.shards[idx].try_write() {
                shard.drain_on_read();
            }
        }
        hit
    }

    /// Whether the map contains `key`.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        let idx = self.shard_of(key.as_ref().as_ref());
        self.read(idx).contains_key(key)
    }

    /// Removes a key, returning its value.
    pub fn remove<Q>(&self, key: &Q) -> Option<V>
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        let idx = self.shard_of(key.as_ref().as_ref());
        self.write(idx).remove(key)
    }

    /// Removes every pair from every shard.
    pub fn clear(&self) {
        for i in 0..self.shards.len() {
            self.write(i).clear();
        }
    }

    /// Calls `f` on every pair, shard by shard in shard order (arena order
    /// within a shard). Holds one shard read lock at a time.
    pub fn for_each<Func>(&self, mut f: Func)
    where
        Func: FnMut(&K, &V),
    {
        for i in 0..self.shards.len() {
            let shard = self.read(i);
            for (k, v) in shard.iter() {
                f(k, v);
            }
        }
    }

    /// Σ over all shards of the paper's bucket-collision count.
    pub fn bucket_collisions(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| self.read(i).bucket_collisions())
            .sum()
    }

    /// Lifetime drift counters summed across shards: `(in_format,
    /// off_format)`. The router is silent, so these match what a single
    /// unsharded map would have counted for the same operations.
    pub fn drift_counts(&self) -> (u64, u64) {
        let mut in_f = 0u64;
        let mut off_f = 0u64;
        for i in 0..self.shards.len() {
            let shard = self.read(i);
            let stats = shard.drift_stats();
            in_f = in_f.saturating_add(stats.in_format());
            off_f = off_f.saturating_add(stats.off_format());
        }
        (in_f, off_f)
    }

    /// Stale reads recorded across shards (see
    /// [`UnorderedMap::stale_reads`]).
    pub fn stale_reads(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| self.read(i).stale_reads())
            .sum()
    }

    /// The routing mode of shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn shard_mode(&self, i: usize) -> GuardMode {
        self.read(i).guard_mode()
    }

    /// The bucket count of shard `i`'s live epoch — a diagnostic for
    /// harnesses and capacity planning (the adversarial suite uses it to
    /// craft worst-case key streams with full knowledge of the layout).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn shard_bucket_count(&self, i: usize) -> usize {
        self.read(i).bucket_count()
    }

    /// The longest live bucket chain in shard `i` — the per-shard twin of
    /// [`UnorderedMap::max_bucket_len`], and the detector's skew signal.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn shard_max_bucket_len(&self, i: usize) -> usize {
        self.read(i).max_bucket_len()
    }

    /// How many shards have degraded to fallback-for-all-keys.
    pub fn degraded_shards(&self) -> usize {
        (0..self.shards.len())
            .filter(|&i| self.read(i).guard_mode() == GuardMode::Degraded)
            .count()
    }

    /// Degrades shard `i` unconditionally and opens its migration epoch.
    /// Other shards are untouched — they keep their specialized hashes.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn degrade_shard(&self, i: usize) {
        let flipped = {
            let mut shard = self.write(i);
            let was_degraded = shard.guard_mode() == GuardMode::Degraded;
            shard.degrade_now();
            !was_degraded
        };
        if flipped {
            self.record_degrade(i);
        }
    }

    /// Degrades every shard (mainly for tests and the verify harness).
    pub fn degrade_all(&self) {
        for i in 0..self.shards.len() {
            self.degrade_shard(i);
        }
    }

    /// Applies `policy` to each shard's *own* windowed drift counters,
    /// degrading the shards whose windows exceed it. Returns how many
    /// shards degraded during this call.
    pub fn maybe_degrade(&self, policy: &DriftPolicy) -> usize {
        (0..self.shards.len())
            .filter(|&i| {
                let flipped = self.write(i).maybe_degrade(policy);
                if flipped {
                    self.record_degrade(i);
                }
                flipped
            })
            .count()
    }

    /// Counts one actual Guarded→Degraded flip of shard `i`.
    fn record_degrade(&self, i: usize) {
        if sepe_obs::enabled() {
            self.obs.shard_degrades.inc();
            self.obs
                .events
                .push(ObsEvent::ShardDegrade { shard: i as u64 });
        }
    }

    /// Takes one upward escalation rung on shard `i` — see
    /// [`UnorderedMap::escalate_now`] for the ladder — leaving its
    /// siblings untouched. The per-shard blast radius that bounds drift
    /// degradation bounds HashDoS escalation the same way: a flood aimed
    /// at one shard re-keys that shard only.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn escalate_shard(&self, i: usize, seeds: &impl SeedSource) {
        let from = {
            let mut shard = self.write(i);
            let from = shard.guard_mode();
            shard.escalate_now(seeds);
            from
        };
        self.record_escalate(i, from);
    }

    /// Applies `policy` to each shard's own collision-storm signals,
    /// escalating the shards whose streaks tripped it. Returns how many
    /// shards escalated during this call.
    pub fn maybe_escalate(&self, policy: &AttackPolicy, seeds: &impl SeedSource) -> usize {
        (0..self.shards.len())
            .filter(|&i| {
                let (escalated, from) = {
                    let mut shard = self.write(i);
                    let from = shard.guard_mode();
                    (shard.maybe_escalate(policy, seeds), from)
                };
                if escalated {
                    self.record_escalate(i, from);
                }
                escalated
            })
            .count()
    }

    /// Counts one calm observation per shard and de-escalates the shards
    /// whose quiet streaks satisfied `policy`. Returns how many shards
    /// re-armed during this call.
    pub fn maybe_deescalate(&self, policy: &AttackPolicy) -> usize {
        (0..self.shards.len())
            .filter(|&i| {
                let rearmed = self.write(i).maybe_deescalate(policy);
                if rearmed && sepe_obs::enabled() {
                    self.obs.shard_deescalations.inc();
                    self.obs
                        .events
                        .push(ObsEvent::ShardDeescalate { shard: i as u64 });
                }
                rearmed
            })
            .count()
    }

    /// Counts one escalation of shard `i`; a rung taken *from* the keyed
    /// mode is a seed rotation and is recorded as such.
    fn record_escalate(&self, i: usize, from: GuardMode) {
        if sepe_obs::enabled() {
            self.obs.shard_escalations.inc();
            if from == GuardMode::Keyed {
                self.obs.shard_seed_rotations.inc();
                self.obs
                    .events
                    .push(ObsEvent::SeedRotation { shard: i as u64 });
            } else {
                self.obs
                    .events
                    .push(ObsEvent::ShardEscalate { shard: i as u64 });
            }
        }
    }

    /// Lifetime count of escalation rungs taken across shards.
    pub fn shard_escalation_count(&self) -> u64 {
        self.obs.shard_escalations.get()
    }

    /// Lifetime count of quiet-window de-escalations across shards.
    pub fn shard_deescalation_count(&self) -> u64 {
        self.obs.shard_deescalations.get()
    }

    /// Lifetime count of keyed-rung seed rotations across shards.
    pub fn shard_seed_rotation_count(&self) -> u64 {
        self.obs.shard_seed_rotations.get()
    }

    /// Advances in-flight migrations by up to `budget` entries total,
    /// split evenly across the shards still draining.
    pub fn migrate(&self, budget: usize) {
        let draining: Vec<usize> = (0..self.shards.len())
            .filter(|&i| self.read(i).migration_in_flight())
            .collect();
        if draining.is_empty() {
            return;
        }
        let per_shard = (budget / draining.len()).max(1);
        for i in draining {
            self.write(i).migrate(per_shard);
        }
    }

    /// Drains every in-flight migration completely.
    pub fn finish_migrations(&self) {
        for i in 0..self.shards.len() {
            self.write(i).finish_migration();
        }
    }

    /// How many shards currently have a migration epoch in flight.
    pub fn migrations_in_flight(&self) -> usize {
        (0..self.shards.len())
            .filter(|&i| self.read(i).migration_in_flight())
            .count()
    }

    /// Mean migration progress across shards: 1.0 when fully drained
    /// (idle shards count as 1.0, matching
    /// [`UnorderedMap::migration_progress`]).
    pub fn migration_progress(&self) -> f64 {
        let sum: f64 = (0..self.shards.len())
            .map(|i| self.read(i).migration_progress())
            .sum();
        sum / self.shards.len() as f64
    }

    /// Lifetime count of shards flipped Guarded→Degraded (each flip
    /// counted once, however it was triggered).
    pub fn shard_degrade_count(&self) -> u64 {
        self.obs.shard_degrades.get()
    }

    /// The recorded [`ObsEvent::ShardDegrade`] events, oldest first.
    /// Empty in `obs`-off builds.
    pub fn degrade_events(&self) -> Vec<ObsEvent> {
        self.obs.events.snapshot()
    }

    /// Registers the map-wide families (`shard_read_locks`,
    /// `shard_write_locks`, `shard_degrades`) plus, per shard `i` under
    /// label `shard="i"`, the shard's table metrics and guard drift
    /// counters (see [`UnorderedMap::export_metrics`]).
    ///
    /// Takes each shard's read lock once to reach its shared handles;
    /// snapshots afterwards read live values without locking shards.
    ///
    /// # Errors
    ///
    /// Propagates [`sepe_obs::RegistryError`] on duplicate registration
    /// (export each map into its own registry, or label them apart).
    pub fn export_metrics(
        &self,
        registry: &sepe_obs::Registry,
    ) -> Result<(), sepe_obs::RegistryError> {
        registry.register_counter("shard_read_locks", &[], self.obs.read_locks.clone())?;
        registry.register_counter("shard_write_locks", &[], self.obs.write_locks.clone())?;
        registry.register_counter("shard_degrades", &[], self.obs.shard_degrades.clone())?;
        registry.register_counter("shard_escalations", &[], self.obs.shard_escalations.clone())?;
        registry.register_counter(
            "shard_deescalations",
            &[],
            self.obs.shard_deescalations.clone(),
        )?;
        registry.register_counter(
            "shard_seed_rotations",
            &[],
            self.obs.shard_seed_rotations.clone(),
        )?;
        for i in 0..self.shards.len() {
            let label = i.to_string();
            let labels = [("shard", label.as_str())];
            self.read(i).export_metrics(registry, &labels)?;
        }
        Ok(())
    }
}

impl<K, V, F, G> ShardedMap<K, V, F, G>
where
    K: Eq + AsRef<[u8]>,
    F: ByteHash + Clone,
    G: ByteHash + Clone,
    GuardedHash<F, G>: HashBatch,
{
    /// Batched lookup across shards: routes all keys first, then locks
    /// each touched shard once and runs the single-shard batch kernel
    /// (chunked [`HashBatch`] hashing + bucket prefetch) inside the lock.
    /// `result[i]` corresponds to `keys[i]`, as if by [`ShardedMap::get`].
    pub fn get_batch(&self, keys: &[&[u8]]) -> Vec<Option<V>>
    where
        V: Clone,
    {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (pos, key) in keys.iter().enumerate() {
            by_shard[self.shard_of(key)].push(pos);
        }
        let mut results: Vec<Option<V>> = vec![None; keys.len()];
        for (idx, positions) in by_shard.iter().enumerate() {
            if positions.is_empty() {
                continue;
            }
            let shard_keys: Vec<&[u8]> = positions.iter().map(|&p| keys[p]).collect();
            let migrating = {
                let shard = self.read(idx);
                for (&pos, value) in positions.iter().zip(shard.get_batch(&shard_keys)) {
                    results[pos] = value.cloned();
                }
                shard.migration_in_flight()
            };
            if migrating {
                if let Ok(mut shard) = self.shards[idx].try_write() {
                    shard.drain_on_read();
                }
            }
        }
        results
    }

    /// Batched insert across shards: groups pairs by shard (preserving
    /// batch order within each shard, so duplicate keys resolve exactly as
    /// sequential [`ShardedMap::insert`] calls would), locks each touched
    /// shard once, and runs the single-shard batch kernel. `result[i]` is
    /// the previous value for `pairs[i].0`.
    pub fn insert_batch(&self, pairs: Vec<(K, V)>) -> Vec<Option<V>> {
        let total = pairs.len();
        let mut by_shard: Vec<Vec<(usize, (K, V))>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (pos, pair) in pairs.into_iter().enumerate() {
            let idx = self.shard_of(pair.0.as_ref());
            by_shard[idx].push((pos, pair));
        }
        let mut results: Vec<Option<V>> = Vec::with_capacity(total);
        results.resize_with(total, || None);
        for (idx, group) in by_shard.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let (positions, shard_pairs): (Vec<usize>, Vec<(K, V)>) = group.into_iter().unzip();
            let mut shard = self.write(idx);
            for (pos, prev) in positions.into_iter().zip(shard.insert_batch(shard_pairs)) {
                results[pos] = prev;
            }
        }
        results
    }
}

impl<K, V, G> ShardedMap<K, V, sepe_core::SynthesizedHash, G>
where
    K: Eq + AsRef<[u8]>,
    G: ByteHash + Clone,
{
    /// Re-synthesizes shard `i` under its write lock: widen the shard's
    /// reservoir, synthesize, validate, install, and open a migration
    /// epoch (see [`UnorderedMap::resynthesize`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn resynthesize_shard(&self, i: usize) -> sepe_core::Resynth {
        self.write(i).resynthesize()
    }

    /// Shard `i`'s reservoir-widened pattern and family, or `None` when
    /// the shard sampled no drift. Takes only the shard *read* lock.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn resynth_request(&self, i: usize) -> Option<SynthRequest> {
        self.read(i).resynth_request()
    }

    /// Serves shard `i`'s drift from a memoized plan cache when possible:
    /// a hit is validated and installed under the shard write lock and
    /// returns `true`; a miss (or no sampled drift) changes nothing and
    /// the caller should fall back to [`ShardedMap::resynthesize_shard`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn resynth_shard_from_cache(&self, i: usize, cache: &sepe_core::PlanCache) -> bool {
        self.write(i).resynth_from_cache(cache)
    }
}

/// A lock-striped concurrent hash set: a [`ShardedMap`] with unit values.
///
/// # Examples
///
/// ```
/// use sepe_baselines::StlHash;
/// use sepe_containers::ShardedSet;
/// use sepe_core::guard::GuardedHash;
/// use sepe_core::hash::SynthesizedHash;
/// use sepe_core::regex::Regex;
/// use sepe_core::synth::Family;
///
/// let pattern = Regex::compile(r"\d{4}")?;
/// let hash = SynthesizedHash::from_pattern(&pattern, Family::OffXor);
/// let set = ShardedSet::with_hasher(GuardedHash::new(&pattern, hash, StlHash::new()), 4);
/// assert!(set.insert("1234".to_owned()));
/// assert!(!set.insert("1234".to_owned()));
/// assert!(set.contains("1234"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ShardedSet<K, F, G> {
    inner: ShardedMap<K, (), F, G>,
}

impl<K, F, G> ShardedSet<K, F, G>
where
    K: Eq + AsRef<[u8]>,
    F: ByteHash + Clone,
    G: ByteHash + Clone,
{
    /// Creates an empty set striped across `shards` locks (rounded up to a
    /// power of two, clamped to `1..=`[`MAX_SHARDS`]).
    pub fn with_hasher(hasher: GuardedHash<F, G>, shards: usize) -> Self {
        ShardedSet {
            inner: ShardedMap::with_hasher(hasher, shards),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    /// The shard index `key` routes to.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.inner.shard_of(key)
    }

    /// Number of elements across all shards.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Inserts an element; returns whether it was newly added.
    pub fn insert(&self, key: K) -> bool {
        self.inner.insert(key, ()).is_none()
    }

    /// Whether the set contains `key`.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.inner.contains_key(key)
    }

    /// Removes an element; returns whether it was present.
    pub fn remove<Q>(&self, key: &Q) -> bool
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.inner.remove(key).is_some()
    }

    /// Removes every element.
    pub fn clear(&self) {
        self.inner.clear();
    }

    /// Lifetime drift counters summed across shards: `(in_format,
    /// off_format)`.
    pub fn drift_counts(&self) -> (u64, u64) {
        self.inner.drift_counts()
    }

    /// Degrades shard `i` unconditionally.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn degrade_shard(&self, i: usize) {
        self.inner.degrade_shard(i);
    }

    /// Applies `policy` per shard; returns how many shards degraded.
    pub fn maybe_degrade(&self, policy: &DriftPolicy) -> usize {
        self.inner.maybe_degrade(policy)
    }

    /// How many shards have degraded.
    pub fn degraded_shards(&self) -> usize {
        self.inner.degraded_shards()
    }

    /// Drains every in-flight migration completely.
    pub fn finish_migrations(&self) {
        self.inner.finish_migrations();
    }

    /// Mean migration progress across shards.
    pub fn migration_progress(&self) -> f64 {
        self.inner.migration_progress()
    }
}

impl<K, F, G> ShardedSet<K, F, G>
where
    K: Eq + AsRef<[u8]>,
    F: ByteHash + Clone,
    G: ByteHash + Clone,
    GuardedHash<F, G>: HashBatch,
{
    /// Batched membership with per-shard lock and prefetch grouping:
    /// `result[i] == self.contains(keys[i])`.
    pub fn contains_batch(&self, keys: &[&[u8]]) -> Vec<bool> {
        self.inner
            .get_batch(keys)
            .into_iter()
            .map(|v| v.is_some())
            .collect()
    }

    /// Batched insert; returns how many elements were newly added.
    pub fn insert_batch(&self, keys: Vec<K>) -> usize {
        self.inner
            .insert_batch(keys.into_iter().map(|k| (k, ())).collect())
            .into_iter()
            .filter(Option::is_none)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_baselines::StlHash;
    use sepe_core::hash::SynthesizedHash;
    use sepe_core::regex::Regex;
    use sepe_core::synth::Family;

    type Map = ShardedMap<String, u32, SynthesizedHash, StlHash>;
    type Set = ShardedSet<String, SynthesizedHash, StlHash>;

    fn ssn(i: u32) -> String {
        format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i % 10_000)
    }

    fn sharded(shards: usize) -> Map {
        let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("pattern");
        let hash = SynthesizedHash::from_pattern(&pattern, Family::Pext);
        ShardedMap::with_hasher(GuardedHash::new(&pattern, hash, StlHash::new()), shards)
    }

    #[test]
    fn sharded_map_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Map>();
        assert_send_sync::<Set>();
    }

    #[test]
    fn shard_count_is_clamped_power_of_two() {
        assert_eq!(sharded(0).shard_count(), 1);
        assert_eq!(sharded(1).shard_count(), 1);
        assert_eq!(sharded(3).shard_count(), 4);
        assert_eq!(sharded(8).shard_count(), 8);
        assert_eq!(sharded(1000).shard_count(), MAX_SHARDS);
    }

    #[test]
    fn insert_get_remove_across_shards() {
        let m = sharded(8);
        for i in 0..2000 {
            assert_eq!(m.insert(ssn(i), i), None);
        }
        assert_eq!(m.len(), 2000);
        for i in 0..2000 {
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{}", ssn(i));
        }
        for i in (0..2000).step_by(2) {
            assert_eq!(m.remove(ssn(i).as_str()), Some(i));
        }
        assert_eq!(m.len(), 1000);
        assert!(!m.contains_key(ssn(0).as_str()));
        assert!(m.contains_key(ssn(1).as_str()));
    }

    #[test]
    fn routing_is_stable_across_degradation() {
        let m = sharded(8);
        for i in 0..500 {
            m.insert(ssn(i), i);
        }
        let homes: Vec<usize> = (0..500).map(|i| m.shard_of(ssn(i).as_bytes())).collect();
        // Degrade a couple of shards; every key must still route home.
        m.degrade_shard(homes[0]);
        m.degrade_shard(homes[499]);
        m.finish_migrations();
        for i in 0..500 {
            assert_eq!(
                m.shard_of(ssn(i).as_bytes()),
                homes[i as usize],
                "routing moved for {}",
                ssn(i)
            );
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{} lost", ssn(i));
        }
    }

    #[test]
    fn degrading_one_shard_leaves_siblings_guarded() {
        let m = sharded(8);
        for i in 0..1000 {
            m.insert(ssn(i), i);
        }
        m.degrade_shard(3);
        assert_eq!(m.degraded_shards(), 1);
        assert_eq!(m.shard_mode(3), GuardMode::Degraded);
        for i in 0..8 {
            if i != 3 {
                assert_eq!(m.shard_mode(i), GuardMode::Guarded, "shard {i}");
            }
        }
        // The degraded shard still answers correctly mid-migration.
        for i in 0..1000 {
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{}", ssn(i));
        }
    }

    #[test]
    fn concurrent_writers_on_disjoint_keys() {
        let m = sharded(8);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let m = &m;
                s.spawn(move || {
                    for i in (t..4000).step_by(4) {
                        m.insert(ssn(i), i);
                    }
                });
            }
        });
        assert_eq!(m.len(), 4000); // ssn() wraps at 10k, so all 4000 are distinct
        for i in 0..4000 {
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{}", ssn(i));
        }
    }

    #[test]
    fn concurrent_readers_during_shard_degradation() {
        let m = sharded(4);
        for i in 0..2000 {
            m.insert(ssn(i), i);
        }
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let m = &m;
                s.spawn(move || {
                    for round in 0..5u32 {
                        for i in (t..2000).step_by(2) {
                            assert_eq!(m.get(ssn(i).as_str()), Some(i), "round {round}");
                        }
                    }
                });
            }
            let m = &m;
            s.spawn(move || {
                for shard in 0..2 {
                    m.degrade_shard(shard);
                }
            });
        });
        m.finish_migrations();
        assert_eq!(m.degraded_shards(), 2);
        for i in 0..2000 {
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{} after drain", ssn(i));
        }
    }

    #[test]
    fn batches_straddle_shards() {
        let m = sharded(8);
        let keys: Vec<String> = (0..600).map(ssn).collect();
        let pairs: Vec<(String, u32)> = keys.iter().cloned().zip(0..600).collect();
        let prev = m.insert_batch(pairs);
        assert!(prev.iter().all(Option::is_none));
        // Re-insert with shifted values: every previous value must come back.
        let pairs: Vec<(String, u32)> = keys.iter().cloned().zip(1000..1600).collect();
        let prev = m.insert_batch(pairs);
        for (i, p) in prev.iter().enumerate() {
            assert_eq!(*p, Some(i as u32), "slot {i}");
        }
        let refs: Vec<&[u8]> = keys.iter().map(String::as_bytes).collect();
        let got = m.get_batch(&refs);
        for (i, g) in got.iter().enumerate() {
            assert_eq!(*g, Some(1000 + i as u32), "slot {i}");
        }
    }

    #[test]
    fn insert_batch_duplicate_keys_resolve_in_order() {
        let m = sharded(4);
        let pairs: Vec<(String, u32)> = vec![(ssn(7), 1), (ssn(8), 2), (ssn(7), 3), (ssn(7), 4)];
        let prev = m.insert_batch(pairs);
        assert_eq!(prev, vec![None, None, Some(1), Some(3)]);
        assert_eq!(m.get(ssn(7).as_str()), Some(4));
    }

    #[test]
    fn reads_drain_migrations_without_writers() {
        let m = sharded(2);
        for i in 0..600 {
            m.insert(ssn(i), i);
        }
        m.degrade_all();
        assert_eq!(m.migrations_in_flight(), 2);
        let mut spins = 0u32;
        while m.migrations_in_flight() > 0 && spins < 100_000 {
            let key = ssn(spins % 600);
            assert_eq!(m.get(key.as_str()), Some(spins % 600));
            spins += 1;
        }
        assert_eq!(
            m.migrations_in_flight(),
            0,
            "gets alone drained both shards"
        );
        assert!((m.migration_progress() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn drift_counts_match_an_unsharded_twin() {
        // The router is silent and every key hashes in exactly one shard,
        // so summed shard counters must equal what a single unsharded map
        // counts for the identical operation sequence.
        let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("pattern");
        let hash = SynthesizedHash::from_pattern(&pattern, Family::Pext);
        let m = sharded(8);
        let mut twin =
            crate::UnorderedMap::with_hasher(GuardedHash::new(&pattern, hash, StlHash::new()));
        for i in 0..300 {
            m.insert(ssn(i), i); // in-format
            twin.insert(ssn(i), i);
        }
        for i in 0..40u32 {
            m.insert(format!("not-an-ssn-{i}"), i); // off-format
            twin.insert(format!("not-an-ssn-{i}"), i);
        }
        for i in 0..500 {
            let key = ssn(i);
            assert_eq!(m.get(key.as_str()), twin.get(key.as_str()).copied());
        }
        let (in_f, off_f) = m.drift_counts();
        assert_eq!(in_f, twin.drift_stats().in_format());
        assert_eq!(off_f, twin.drift_stats().off_format());
        assert!(off_f > 0, "off-format traffic was observed");
    }

    #[test]
    fn shard_resynthesis_round_trip() {
        let m = sharded(4);
        for i in 0..400 {
            m.insert(ssn(i), i);
        }
        // Drift exactly one shard: keep only the off-format keys the
        // router sends there, so sibling reservoirs stay empty.
        let drifted = 0usize;
        let mut off_format: Vec<(String, u32)> = Vec::new();
        let mut i = 0u32;
        while off_format.len() < 40 {
            let key = format!("drifted-{i:05}");
            if m.shard_of(key.as_bytes()) == drifted {
                m.insert(key.clone(), i);
                off_format.push((key, i));
            }
            i += 1;
        }
        m.degrade_shard(drifted);
        m.finish_migrations();

        // Undrifted shards have nothing to resynthesize.
        let clean = (0..4).find(|&i| i != drifted).unwrap();
        assert!(m.resynth_request(clean).is_none());
        assert_eq!(m.resynthesize_shard(clean), sepe_core::Resynth::NoDrift);

        assert!(m.resynth_request(drifted).is_some(), "drift was sampled");
        assert!(m.resynthesize_shard(drifted).is_applied(), "plan installs");
        assert_eq!(
            m.resynthesize_shard(drifted),
            sepe_core::Resynth::NoDrift,
            "the reservoir was cleared by the install"
        );
        assert_eq!(m.shard_mode(drifted), GuardMode::Guarded, "shard re-armed");
        m.finish_migrations();
        for i in 0..400 {
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{} preserved", ssn(i));
        }
        for (key, v) in &off_format {
            assert_eq!(m.get(key.as_str()), Some(*v), "{key} preserved");
        }
    }

    #[test]
    fn shard_drift_resolves_from_a_warm_plan_cache() {
        let cache = sepe_core::PlanCache::new(8);
        let m = sharded(4);
        for i in 0..400 {
            m.insert(ssn(i), i);
        }
        let drifted = 0usize;
        let mut i = 0u32;
        let mut planted = 0;
        while planted < 40 {
            let key = format!("drifted-{i:05}");
            if m.shard_of(key.as_bytes()) == drifted {
                m.insert(key, i);
                planted += 1;
            }
            i += 1;
        }
        assert!(
            !m.resynth_shard_from_cache(drifted, &cache),
            "cold cache misses and changes nothing"
        );
        let request = m.resynth_request(drifted).expect("drift was sampled");
        cache.insert(
            &request.widened,
            request.family,
            sepe_core::synthesize(&request.widened, request.family),
        );
        assert!(
            m.resynth_shard_from_cache(drifted, &cache),
            "warm cache installs without a search"
        );
        assert_eq!(cache.hits(), 1);
        assert_eq!(m.shard_mode(drifted), GuardMode::Guarded, "shard re-armed");
        m.finish_migrations();
        for i in 0..400 {
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{} preserved", ssn(i));
        }
    }

    #[test]
    fn escalation_is_contained_to_the_targeted_shard() {
        let m = sharded(8);
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(0x5E9E);
        for i in 0..400 {
            m.insert(ssn(i), i);
        }
        let target = m.shard_of(ssn(0).as_bytes());
        // Climb the whole ladder on one shard: degrade, key, rotate.
        m.escalate_shard(target, &seeds);
        m.escalate_shard(target, &seeds);
        m.escalate_shard(target, &seeds);
        assert_eq!(m.shard_mode(target), GuardMode::Keyed);
        for i in 0..m.shard_count() {
            if i != target {
                assert_eq!(m.shard_mode(i), GuardMode::Guarded, "sibling {i} flipped");
            }
        }
        if sepe_obs::enabled() {
            assert_eq!(m.shard_escalation_count(), 3);
            assert_eq!(m.shard_seed_rotation_count(), 1);
            let names: Vec<&str> = m.degrade_events().iter().map(ObsEvent::name).collect();
            assert_eq!(
                names,
                vec!["shard_escalate", "shard_escalate", "seed_rotation"]
            );
        }
        // Contents survive; de-escalation restores the specialized hash.
        m.finish_migrations();
        for i in 0..400 {
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{} lost", ssn(i));
        }
        let policy = AttackPolicy {
            quiet_streak: 2,
            ..AttackPolicy::default()
        };
        assert_eq!(m.maybe_deescalate(&policy), 0, "first calm tick arms only");
        assert_eq!(m.maybe_deescalate(&policy), 1, "second calm tick re-arms");
        assert_eq!(m.shard_mode(target), GuardMode::Guarded);
        m.finish_migrations();
        for i in 0..400 {
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{} lost", ssn(i));
        }
        if sepe_obs::enabled() {
            assert_eq!(m.shard_deescalation_count(), 1);
        }
    }

    #[test]
    fn sharded_set_semantics() {
        let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("pattern");
        let hash = SynthesizedHash::from_pattern(&pattern, Family::OffXor);
        let s: Set = ShardedSet::with_hasher(GuardedHash::new(&pattern, hash, StlHash::new()), 4);
        for i in 0..500 {
            assert!(s.insert(ssn(i)));
        }
        for i in 0..500 {
            assert!(!s.insert(ssn(i)));
        }
        assert_eq!(s.len(), 500);
        assert!(s.contains(ssn(9).as_str()));
        assert!(s.remove(ssn(9).as_str()));
        assert!(!s.contains(ssn(9).as_str()));
        let keys: Vec<String> = (500..800).map(ssn).collect();
        let refs: Vec<&[u8]> = keys.iter().map(String::as_bytes).collect();
        assert_eq!(s.insert_batch(keys.clone()), 300);
        assert!(s.contains_batch(&refs).iter().all(|&b| b));
    }
}
