//! `churn_drift_attack`: get/insert/remove churn on a sharded IPv4 map
//! with a scripted drift-and-flood cycle.
//!
//! Fifteen-byte IPv4 keys in a `ShardedMap` of 8 shards (guarded Pext,
//! CityHash fallback). Regular ops are 50% get, 30% insert and 20% remove,
//! uniform over a key space 5/3 of the resident size, which is where
//! 30/20 insert/remove churn holds the table size steady (the resident
//! share p solves 0.3(1 - p) = 0.2p). A maintenance tick runs every fixed
//! number of ops; there are no timers, so every count repeats exactly for
//! a seed. The run is eight cycles; cycle `c`:
//!
//! 1. a drift burst of off-format keys (a digit replaced by `x`) lands in
//!    shard `c`: `maybe_degrade` opens a migration epoch and the tick
//!    resynthesizes the shard, from the `PlanCache` after the first cycle
//!    (every shard widens the same pattern the same way); the drift keys
//!    are removed again two intervals later;
//! 2. halfway through, a bucket flood forged the way
//!    `sepe_verify::attacker::bucket_flood` forges it (off-format keys the
//!    unkeyed fallback sends to one bucket of one shard) lands in another
//!    shard: `maybe_escalate` moves it to keyed, the next tick rotates its
//!    seed, the flood is removed, and `maybe_deescalate` re-arms the shard
//!    after a quiet period;
//! 3. calm churn fills the rest of the cycle.
//!
//! It is the only workload with writes, migration, fallback and keyed
//! hashing, the detector, the plan cache and shard locks on the path.

use crate::measure::{Chunks, Report, SetupParts};
use crate::trace::Tracer;
use crate::{probe, Config, Scale};
use sepe_baselines::CityHash;
use sepe_containers::{AttackPolicy, DriftPolicy, ShardedMap, UnorderedMap};
use sepe_core::guard::{GuardMode, GuardedHash};
use sepe_core::hash::{ByteHash, FixedSeedSource, SynthesizedHash};
use sepe_core::infer::infer_pattern;
use sepe_core::synth::{synthesize, Family};
use sepe_core::PlanCache;
use sepe_keygen::{KeyFormat, SplitMix64};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Shards of the map.
pub const SHARDS: usize = 8;
/// Ops per timed chunk.
pub const CHUNK_OPS: usize = 256;
/// Script cycles per pass; cycle `c` drifts shard `c`.
pub const CYCLES: u64 = SHARDS as u64;
/// Examples the pattern is inferred from.
const EXAMPLES: usize = 256;
/// Forged keys per flood: half again the detector's 32-entry chain floor.
const FLOOD_KEYS: usize = 48;
/// The digit position drift keys overwrite with `x`.
const DRIFT_POS: usize = 13;
/// Entries migrated per tick, on top of the stride each write drains.
const MIGRATE_BUDGET: usize = 1024;
/// Free buckets the flood's target shard must keep beyond the flood, so
/// churn cannot resize it (and scatter the flood) while it lands.
const FLOOD_HEADROOM: usize = 128;
const NOMINAL_OPS_PER_S: u64 = 1_000_000;

type Hasher = GuardedHash<SynthesizedHash, CityHash>;
type Map = ShardedMap<Box<[u8]>, u64, SynthesizedHash, CityHash>;
type Twin = UnorderedMap<Box<[u8]>, u64, Hasher>;

struct Sizes {
    key_space: usize,
    tick_chunks: u64,
    min_cycle_ticks: u64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            key_space: 327_680,
            tick_chunks: 256,
            min_cycle_ticks: 16,
        },
        Scale::Tiny => Sizes {
            key_space: 4_096,
            tick_chunks: 2,
            min_cycle_ticks: 16,
        },
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum KeyRef {
    Regular(u32),
    Drift(u32),
    Flood(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Get,
    Insert,
    Remove,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: Kind,
    key: KeyRef,
    value: u64,
}

/// The regular key space, shared by every pass, and the drift and flood
/// keys one pass generated.
struct Keys<'k> {
    regular: &'k [Box<[u8]>],
    drift: Vec<Box<[u8]>>,
    flood: Vec<Box<[u8]>>,
}

impl Keys<'_> {
    fn get(&self, k: KeyRef) -> &[u8] {
        match k {
            KeyRef::Regular(i) => &self.regular[i as usize],
            KeyRef::Drift(i) => &self.drift[i as usize],
            KeyRef::Flood(i) => &self.flood[i as usize],
        }
    }
}

fn ipv4(rng: &mut SplitMix64) -> Vec<u8> {
    KeyFormat::Ipv4
        .materialize(u128::from(rng.next_u64() % 1_000_000_000_000))
        .into_bytes()
}

fn regular_keys(n: usize, seed: u64) -> Vec<Box<[u8]>> {
    let mut rng = SplitMix64::new(seed);
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let k = ipv4(&mut rng);
        if seen.insert(k.clone()) {
            out.push(k.into_boxed_slice());
        }
    }
    out
}

/// The reference map the outputs are checked against: a dense slot per
/// regular key, a `HashMap` for the few drift and flood keys.
struct Shadow {
    regular: Vec<Option<u64>>,
    other: HashMap<KeyRef, u64>,
    len: usize,
}

impl Shadow {
    fn new(key_space: usize, resident: usize) -> Self {
        let mut regular = vec![None; key_space];
        for (i, slot) in regular.iter_mut().enumerate().take(resident) {
            *slot = Some(i as u64);
        }
        Shadow {
            regular,
            other: HashMap::new(),
            len: resident,
        }
    }

    fn get(&self, k: KeyRef) -> Option<u64> {
        match k {
            KeyRef::Regular(i) => self.regular[i as usize],
            _ => self.other.get(&k).copied(),
        }
    }

    fn insert(&mut self, k: KeyRef, v: u64) -> Option<u64> {
        let old = match k {
            KeyRef::Regular(i) => self.regular[i as usize].replace(v),
            _ => self.other.insert(k, v),
        };
        self.len += usize::from(old.is_none());
        old
    }

    fn remove(&mut self, k: KeyRef) -> Option<u64> {
        let old = match k {
            KeyRef::Regular(i) => self.regular[i as usize].take(),
            _ => self.other.remove(&k),
        };
        self.len -= usize::from(old.is_some());
        old
    }

    fn iter(&self) -> impl Iterator<Item = (KeyRef, u64)> + '_ {
        let regular = self
            .regular
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (KeyRef::Regular(i as u32), v)));
        regular.chain(self.other.iter().map(|(k, v)| (*k, *v)))
    }
}

/// Counts the script must produce, identical for a given seed.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    degrades: u64,
    resynth: u64,
    resynth_from_cache: u64,
    escalations: u64,
    deescalations: u64,
    rotations: u64,
    ops_to_escalate: u64,
}

/// Per-op timings the traced pass splits by map state.
#[derive(Debug, Default, Clone, Copy)]
struct Split {
    in_flight_ns: u64,
    in_flight_ops: u64,
    steady_ns: u64,
    steady_ops: u64,
    keyed_ns: u64,
    keyed_ops: u64,
    stale_reads: u64,
    last_stale: u64,
}

#[derive(Debug, Default)]
struct Cycle {
    drift_shard: usize,
    drift_ids: Vec<u32>,
    resynthesized: bool,
    flood_shard: Option<usize>,
    flood_ids: Vec<u32>,
    flood_start_op: u64,
    keyed_interval: Option<u64>,
    rotated: bool,
    deescalated: bool,
}

fn begin(t: &mut Option<&mut Tracer>, name: &'static str, parent: Option<usize>) -> Option<usize> {
    t.as_deref_mut().map(|t| t.begin(name, parent))
}

fn end(t: &mut Option<&mut Tracer>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (t.as_deref_mut(), id) {
        t.end(id);
    }
}

/// Whether slot `s` of an interval of `len` slots is one of `n <= len`
/// evenly spread slots, and if so which one.
fn spread_slot(s: usize, n: usize, len: usize) -> Option<usize> {
    let k = s * n / len;
    ((s + 1) * n / len > k).then_some(k)
}

/// Writes the low `2 * out.len()` hex digits of `v` into `out`, the key
/// spelling of `sepe_verify::attacker::bucket_flood` without allocating.
fn hex(out: &mut [u8], v: u64) {
    for (i, b) in out.iter_mut().rev().enumerate() {
        *b = b"0123456789abcdef"[((v >> (4 * i)) & 0xF) as usize];
    }
}

/// One pass: a freshly set-up map, its shadow, and the script state.
struct Pass<'k> {
    keys: Keys<'k>,
    map: Map,
    oracle: Hasher,
    shadow: Shadow,
    /// Floods forged ahead, per shard: the bucket count each was forged
    /// against, and its keys. A flood is forged again if its shard resized.
    floods: Vec<Option<(usize, Vec<u32>)>>,
    cache: PlanCache,
    seeds: FixedSeedSource,
    drift_policy: DriftPolicy,
    attack_policy: AttackPolicy,
    rng: SplitMix64,
    drift_seen: HashSet<Box<[u8]>>,
    counts: Counts,
    split: Split,
    twin: Option<Twin>,
    op_index: u64,
    geometry: Geometry,
}

/// How a pass is laid out: chunks per tick interval, tick intervals per
/// cycle, and the seed its forged keys are tagged with.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    tick_chunks: u64,
    cycle_ticks: u64,
    seed: u64,
}

/// Program set-up: inference, synthesis, and populating the sharded map
/// with the first 3/5 of the key space. Owned pairs are built untimed.
fn set_up(regular: &[Box<[u8]>], resident: usize) -> (Map, Hasher, SetupParts) {
    let pairs: Vec<(Box<[u8]>, u64)> = regular[..resident]
        .iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), i as u64))
        .collect();
    let t0 = Instant::now();
    let pattern = infer_pattern(regular[..EXAMPLES.min(resident)].iter().map(|k| &k[..]))
        .expect("the example set is not empty");
    let t1 = Instant::now();
    let hasher: Hasher = GuardedHash::from_pattern(&pattern, Family::Pext, CityHash::new());
    let t2 = Instant::now();
    let oracle = hasher.epoch_frozen(GuardMode::Guarded);
    let map = ShardedMap::with_hasher(hasher, SHARDS);
    map.insert_batch(pairs);
    let t3 = Instant::now();
    let parts = SetupParts {
        infer: t1 - t0,
        synth: t2 - t1,
        populate: t3 - t2,
    };
    (map, oracle, parts)
}

impl<'k> Pass<'k> {
    fn new(regular: &'k [Box<[u8]>], resident: usize, geometry: Geometry) -> Self {
        let (map, oracle, _) = set_up(regular, resident);
        let seed = geometry.seed;
        Pass {
            keys: Keys {
                regular,
                drift: Vec::new(),
                flood: Vec::new(),
            },
            shadow: Shadow::new(regular.len(), resident),
            map,
            oracle,
            floods: vec![None; SHARDS],
            cache: PlanCache::new(64),
            seeds: FixedSeedSource::new(seed | 1),
            drift_policy: DriftPolicy::default(),
            attack_policy: AttackPolicy::default(),
            rng: SplitMix64::new(seed ^ 0xC4A2_17F0),
            drift_seen: HashSet::new(),
            counts: Counts::default(),
            split: Split::default(),
            twin: None,
            op_index: 0,
            geometry,
        }
    }

    fn regular_op(&mut self) -> Op {
        let r = self.rng.next_u64();
        let key = KeyRef::Regular((self.rng.next_u64() % self.keys.regular.len() as u64) as u32);
        let kind = match r % 10 {
            0..=4 => Kind::Get,
            5..=7 => Kind::Insert,
            _ => Kind::Remove,
        };
        Op {
            kind,
            key,
            value: self.rng.next_u64() >> 1,
        }
    }

    /// A fresh off-format key that routes to `shard`; returns its id.
    fn drift_key(&mut self, shard: usize) -> u32 {
        loop {
            let mut k = ipv4(&mut self.rng);
            k[DRIFT_POS] = b'x';
            if self.map.shard_of(&k) == shard && self.drift_seen.insert(k.clone().into()) {
                self.keys.drift.push(k.into_boxed_slice());
                return (self.keys.drift.len() - 1) as u32;
            }
        }
    }

    /// Forges a flood for each of `shards` against its current bucket
    /// count: keys the frozen router sends to the shard and the unkeyed
    /// fallback sends to one of its buckets. Candidates are counted per
    /// bucket until some bucket of every shard holds a full flood, then
    /// drawn again to collect that bucket's keys, which takes far fewer
    /// candidates than fixing each bucket in advance.
    fn forge(&mut self, shards: &[usize], tag: u64) -> Vec<Vec<u32>> {
        let shard_bits = SHARDS.trailing_zeros();
        let buckets: Vec<u64> = shards
            .iter()
            .map(|&s| self.map.shard_bucket_count(s) as u64)
            .collect();
        let mut slot = [usize::MAX; SHARDS];
        for (j, &s) in shards.iter().enumerate() {
            slot[s] = j;
        }
        let mut counts: Vec<Vec<u8>> = buckets.iter().map(|&b| vec![0; b as usize]).collect();
        let mut target: Vec<Option<u64>> = vec![None; shards.len()];
        let mut key = *b"atk-00000000-0000000000000000";
        hex(&mut key[4..12], tag);
        let draw = |i: u64, key: &mut [u8; 29]| {
            hex(&mut key[13..], i);
            let h = self.oracle.hash_bytes(&key[..]);
            let j = slot[(h >> (64 - shard_bits)) as usize];
            (j != usize::MAX).then(|| (j, h % buckets[j]))
        };
        let mut n = 0u64;
        let mut done = 0;
        while done < shards.len() {
            if let Some((j, b)) = draw(n, &mut key) {
                if target[j].is_none() {
                    counts[j][b as usize] += 1;
                    if usize::from(counts[j][b as usize]) == FLOOD_KEYS {
                        target[j] = Some(b);
                        done += 1;
                    }
                }
            }
            n += 1;
        }
        let mut floods: Vec<Vec<Box<[u8]>>> = vec![Vec::new(); shards.len()];
        for i in 0..n {
            if let Some((j, b)) = draw(i, &mut key) {
                if target[j] == Some(b) && floods[j].len() < FLOOD_KEYS {
                    floods[j].push(Box::from(&key[..]));
                }
            }
        }
        floods
            .into_iter()
            .map(|keys| {
                keys.into_iter()
                    .map(|k| {
                        self.keys.flood.push(k);
                        (self.keys.flood.len() - 1) as u32
                    })
                    .collect()
            })
            .collect()
    }

    /// Picks the flood's target shard (not the drift shard, with room for
    /// the flood without a resize) and takes its flood, forging it again
    /// if the shard resized since.
    fn forge_flood(&mut self, cycle: &mut Cycle, tag: u64) {
        let mut lens = [0usize; SHARDS];
        for (k, _) in self.shadow.iter() {
            lens[self.map.shard_of(self.keys.get(k))] += 1;
        }
        let candidates: Vec<usize> = (0..SHARDS)
            .map(|i| (cycle.drift_shard + SHARDS / 2 + i) % SHARDS)
            .filter(|&s| s != cycle.drift_shard)
            .collect();
        let rooms: Vec<i64> = (0..SHARDS)
            .map(|s| self.map.shard_bucket_count(s) as i64 - lens[s] as i64)
            .collect();
        let room = |s: usize| rooms[s];
        let roomy: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&s| room(s) >= (FLOOD_KEYS + FLOOD_HEADROOM) as i64)
            .collect();
        let buckets: Vec<usize> = (0..SHARDS)
            .map(|s| self.map.shard_bucket_count(s))
            .collect();
        let fresh = |floods: &[Option<(usize, Vec<u32>)>], s: usize| {
            floods[s].as_ref().is_some_and(|(b, _)| *b == buckets[s])
        };
        if !roomy.iter().any(|&s| fresh(&self.floods, s)) {
            let stale: Vec<usize> = (0..SHARDS).filter(|&s| !fresh(&self.floods, s)).collect();
            for (&s, ids) in stale.iter().zip(self.forge(&stale, tag)) {
                self.floods[s] = Some((buckets[s], ids));
            }
        }
        let shard = roomy
            .iter()
            .copied()
            .find(|&s| fresh(&self.floods, s))
            .unwrap_or_else(|| {
                candidates
                    .iter()
                    .copied()
                    .max_by_key(|&s| room(s))
                    .expect("more than one shard")
            });
        cycle.flood_ids = match self.floods[shard].take() {
            Some((_, ids)) => ids,
            None => self.forge(&[shard], tag ^ 0xF00D).swap_remove(0),
        };
        cycle.flood_shard = Some(shard);
    }

    /// The ops of one chunk. `interval` is the tick interval within the
    /// cycle, `slot0` the chunk's first op within the interval.
    fn chunk_ops(
        &mut self,
        cycle: &mut Cycle,
        interval: u64,
        flood_interval: u64,
        slot0: usize,
        interval_ops: usize,
        out: &mut Vec<Op>,
    ) {
        out.clear();
        let cleanup_drift = interval == 3;
        let insert_flood = interval == flood_interval;
        let cleanup_flood = cycle.keyed_interval.is_some_and(|k| interval == k + 2);
        let drift_n = cycle.drift_ids.len();
        for slot in slot0..slot0 + CHUNK_OPS {
            let flood_slot = spread_slot(slot, FLOOD_KEYS, interval_ops);
            let op = if interval == 1 && self.rng.next_u64().is_multiple_of(4) {
                let id = self.drift_key(cycle.drift_shard);
                cycle.drift_ids.push(id);
                Op {
                    kind: Kind::Insert,
                    key: KeyRef::Drift(id),
                    value: self.rng.next_u64() >> 1,
                }
            } else if let (true, Some(k)) =
                (cleanup_drift, spread_slot(slot, drift_n, interval_ops))
            {
                Op {
                    kind: Kind::Remove,
                    key: KeyRef::Drift(cycle.drift_ids[k]),
                    value: 0,
                }
            } else if let (true, Some(k)) = (insert_flood, flood_slot) {
                let i = cycle.flood_ids[k];
                Op {
                    kind: Kind::Insert,
                    key: KeyRef::Flood(i),
                    value: u64::from(i),
                }
            } else if let (true, Some(k)) = (cleanup_flood, flood_slot) {
                Op {
                    kind: Kind::Remove,
                    key: KeyRef::Flood(cycle.flood_ids[k]),
                    value: 0,
                }
            } else {
                self.regular_op()
            };
            out.push(op);
        }
    }

    #[inline]
    fn apply(&mut self, op: &Op, owned: &mut Option<Box<[u8]>>) -> Option<u64> {
        match op.kind {
            Kind::Get => self.map.get(self.keys.get(op.key)),
            Kind::Insert => self
                .map
                .insert(owned.take().expect("insert ops own their key"), op.value),
            Kind::Remove => self.map.remove(self.keys.get(op.key)),
        }
    }

    /// Replays the chunk on the shadow map and counts disagreements.
    fn check(&mut self, ops: &[Op], results: &[Option<u64>], report: &mut Report) {
        for (op, got) in ops.iter().zip(results) {
            let want = match op.kind {
                Kind::Get => self.shadow.get(op.key),
                Kind::Insert => self.shadow.insert(op.key, op.value),
                Kind::Remove => self.shadow.remove(op.key),
            };
            report.attempted += 1;
            if want != *got {
                report.failed += 1;
            }
        }
    }

    /// The maintenance tick: drift policy (and resynthesis of the cycle's
    /// drift shard once it degraded), attack detector, the scripted seed
    /// rotation, de-escalation, a migration step, and a metrics snapshot.
    fn tick(
        &mut self,
        cycle: &mut Cycle,
        interval: u64,
        op_index: u64,
        mut tracer: Option<&mut Tracer>,
    ) {
        let t = &mut tracer;
        let root = begin(t, "tick", None);

        let id = begin(t, "tick.degrade", root);
        self.counts.degrades += self.map.maybe_degrade(&self.drift_policy) as u64;
        end(t, id);

        let s_d = cycle.drift_shard;
        if interval >= 1 && !cycle.resynthesized && self.map.shard_mode(s_d) == GuardMode::Degraded
        {
            let id = begin(t, "tick.resynth", root);
            let request = self.map.resynth_request(s_d);
            if let (Some(req), true) = (&request, id.is_some()) {
                let lookup = begin(t, "cache.lookup", id);
                black_box(self.cache.lookup(&req.widened, req.family));
                end(t, lookup);
            }
            if self.map.resynth_shard_from_cache(s_d, &self.cache) {
                self.counts.resynth_from_cache += 1;
            } else if let Some(req) = request {
                if self.map.resynthesize_shard(s_d).is_applied() {
                    let plan = synthesize(&req.widened, req.family);
                    self.cache.insert(&req.widened, req.family, plan);
                }
            }
            end(t, id);
            self.counts.resynth += 1;
            cycle.resynthesized = true;
        }

        let id = begin(t, "tick.escalate", root);
        self.counts.escalations += self.map.maybe_escalate(&self.attack_policy, &self.seeds) as u64;
        end(t, id);
        if let Some(s_a) = cycle.flood_shard {
            match cycle.keyed_interval {
                None if self.map.shard_mode(s_a) == GuardMode::Keyed => {
                    cycle.keyed_interval = Some(interval);
                    self.counts.ops_to_escalate += op_index - cycle.flood_start_op;
                }
                Some(k) if interval == k + 1 => {
                    let id = begin(t, "tick.rotate", root);
                    self.map.escalate_shard(s_a, &self.seeds);
                    end(t, id);
                    self.counts.rotations += 1;
                    cycle.rotated = true;
                }
                _ => {}
            }
        }

        let id = begin(t, "tick.deescalate", root);
        let de = self.map.maybe_deescalate(&self.attack_policy) as u64;
        end(t, id);
        self.counts.deescalations += de;
        if de > 0 && cycle.rotated {
            cycle.deescalated = true;
        }

        let id = begin(t, "tick.migrate", root);
        self.map.migrate(MIGRATE_BUDGET);
        end(t, id);

        let id = begin(t, "tick.obs", root);
        let registry = sepe_obs::Registry::new();
        self.map
            .export_metrics(&registry)
            .expect("a fresh registry has no duplicate ids");
        black_box(registry.snapshot());
        end(t, id);

        end(t, root);
    }

    fn end_cycle(&mut self, c: u64, cycle: &Cycle, report: &mut Report) {
        let mut missing = Vec::new();
        if !cycle.resynthesized {
            missing.push("resynthesis");
        }
        if cycle.keyed_interval.is_none() {
            missing.push("escalation to keyed");
        }
        if !cycle.rotated {
            missing.push("seed rotation");
        }
        if !cycle.deescalated {
            missing.push("de-escalation");
        }
        if !missing.is_empty() {
            report
                .problems
                .push(format!("cycle {c}: no {}", missing.join(", ")));
        }
    }

    /// Runs script cycle `c` as one segment of `chunks`; outputs are
    /// checked against the shadow after every chunk.
    fn cycle(
        &mut self,
        c: u64,
        chunks: &mut Chunks,
        mut tracer: Option<&mut Tracer>,
        report: &mut Report,
    ) {
        let Geometry {
            tick_chunks,
            cycle_ticks,
            seed,
        } = self.geometry;
        let interval_ops = tick_chunks as usize * CHUNK_OPS;
        let flood_interval = cycle_ticks / 2;
        let mut ops: Vec<Op> = Vec::with_capacity(CHUNK_OPS);
        let mut owned: Vec<Option<Box<[u8]>>> = Vec::with_capacity(CHUNK_OPS);
        let mut results: Vec<Option<u64>> = Vec::with_capacity(CHUNK_OPS);
        chunks.segment();
        let mut cycle = Cycle {
            drift_shard: c as usize % SHARDS,
            ..Cycle::default()
        };
        for interval in 0..cycle_ticks {
            if interval == flood_interval {
                self.forge_flood(&mut cycle, seed ^ c);
                cycle.flood_start_op = self.op_index;
            }
            for k in 0..tick_chunks {
                let slot0 = k as usize * CHUNK_OPS;
                self.chunk_ops(
                    &mut cycle,
                    interval,
                    flood_interval,
                    slot0,
                    interval_ops,
                    &mut ops,
                );
                owned.clear();
                owned.extend(
                    ops.iter().map(|op| {
                        (op.kind == Kind::Insert).then(|| Box::from(self.keys.get(op.key)))
                    }),
                );
                results.clear();
                let tick_here = k + 1 == tick_chunks;
                let op_index = self.op_index;
                let start = Instant::now();
                match tracer.as_deref_mut() {
                    None => {
                        for (op, key) in ops.iter().zip(owned.iter_mut()) {
                            let r = self.apply(op, key);
                            results.push(r);
                        }
                        if tick_here {
                            self.tick(&mut cycle, interval, op_index + CHUNK_OPS as u64, None);
                        }
                    }
                    Some(t) => {
                        for (j, (op, key)) in ops.iter().zip(owned.iter_mut()).enumerate() {
                            t.set_op(op_index + j as u64);
                            let r = self.traced_apply(t, op, key, &cycle);
                            results.push(r);
                        }
                        if tick_here {
                            t.set_op(op_index + CHUNK_OPS as u64);
                            let at = op_index + CHUNK_OPS as u64;
                            self.tick(&mut cycle, interval, at, Some(t));
                        }
                    }
                }
                chunks.record(CHUNK_OPS, start.elapsed());
                self.op_index += CHUNK_OPS as u64;
                self.check(&ops, &results, report);
                if let Some(t) = tracer.as_deref_mut() {
                    let refs: Vec<&[u8]> = ops.iter().map(|op| self.keys.get(op.key)).collect();
                    let hasher = &self.oracle;
                    probe::probe(t, Some(hasher.guard()), hasher.specialized(), &refs);
                    t.fold();
                }
            }
        }
        self.end_cycle(c, &cycle, report);
    }

    /// End-of-pass checks: the plan cache served a resynthesis, and the
    /// map holds exactly what the shadow holds.
    fn finish(&mut self, report: &mut Report) {
        if self.counts.resynth_from_cache == 0 {
            report
                .problems
                .push("no resynthesis was served from the plan cache".into());
        }
        self.final_check(report);
    }

    /// One op under a span, with the map state it ran in: whether a
    /// migration epoch was in flight, whether the flood shard was keyed,
    /// and (on gets) the same lookup on an unsharded twin map.
    fn traced_apply(
        &mut self,
        t: &mut Tracer,
        op: &Op,
        owned: &mut Option<Box<[u8]>>,
        cycle: &Cycle,
    ) -> Option<u64> {
        let in_flight = self.map.migrations_in_flight() > 0;
        let keyed = cycle.keyed_interval.is_some() && !cycle.deescalated;
        let twin_key = (op.kind == Kind::Insert).then(|| owned.clone()).flatten();
        let name = match op.kind {
            Kind::Get => "op.get",
            Kind::Insert => "op.insert",
            Kind::Remove => "op.remove",
        };
        let id = t.begin(name, None);
        let r = self.apply(op, owned);
        t.end(id);
        let ns = t.duration(id);
        let s = &mut self.split;
        if in_flight {
            s.in_flight_ns += ns;
            s.in_flight_ops += 1;
        } else {
            s.steady_ns += ns;
            s.steady_ops += 1;
        }
        if keyed {
            s.keyed_ns += ns;
            s.keyed_ops += 1;
        }
        if in_flight {
            let now = self.map.stale_reads();
            s.stale_reads += now.saturating_sub(s.last_stale.min(now));
            s.last_stale = now;
        } else {
            s.last_stale = 0;
        }
        if let Some(twin) = self.twin.as_mut() {
            let key = self.keys.get(op.key);
            match op.kind {
                Kind::Get => {
                    let id = t.begin("twin.get", None);
                    black_box(twin.get(key));
                    t.end(id);
                }
                Kind::Insert => {
                    twin.insert(twin_key.expect("insert ops own their key"), op.value);
                }
                Kind::Remove => {
                    twin.remove(key);
                }
            }
        }
        r
    }

    /// Whole-contents comparison against the shadow at the end of a pass.
    fn final_check(&mut self, report: &mut Report) {
        report.attempted += 1;
        let agree = self.map.len() == self.shadow.len
            && self
                .shadow
                .iter()
                .all(|(k, v)| self.map.get(self.keys.get(k)) == Some(v));
        if !agree {
            report.failed += 1;
            report
                .problems
                .push("final contents differ from the shadow map".into());
        }
    }
}

/// Runs the workload.
#[must_use]
pub fn run(config: &Config) -> Report {
    let sizes = sizes(config.scale);
    let resident = sizes.key_space * 3 / 5;
    let interval_ops = sizes.tick_chunks * CHUNK_OPS as u64;
    let target_ops = config.ops(NOMINAL_OPS_PER_S, 0);
    let cycle_ticks = (target_ops / (interval_ops * CYCLES)).max(sizes.min_cycle_ticks);
    let ops = cycle_ticks * CYCLES * interval_ops;
    let mut report = Report::default();
    report.note("key_space", sizes.key_space);
    report.note("resident_keys", resident);
    report.note("shards", SHARDS);
    report.note("chunk_ops", CHUNK_OPS);
    report.note("tick_every_ops", interval_ops);
    report.note("cycles", CYCLES);
    report.note("ticks_per_cycle", cycle_ticks);
    report.note("ops", ops);
    report.note("chunks", ops / CHUNK_OPS as u64);
    report.note("setups", CYCLES);

    let regular = regular_keys(sizes.key_space, config.seed);
    let geometry = Geometry {
        tick_chunks: sizes.tick_chunks,
        cycle_ticks,
        seed: config.seed,
    };
    let mut pass = Pass::new(&regular, resident, geometry);
    // The traced pass runs on its own map, cycle by cycle alternating with
    // the untraced one, so both see the same stretches of machine load and
    // their ratio is the tracing overhead. Its unsharded twin serves the
    // same gets without routing or shard locks.
    let mut traced = config.trace.then(|| {
        let mut pass = Pass::new(&regular, resident, geometry);
        let mut twin = UnorderedMap::with_hasher(pass.oracle.detached());
        twin.insert_batch(
            regular[..resident]
                .iter()
                .enumerate()
                .map(|(i, k)| (k.clone(), i as u64))
                .collect(),
        );
        pass.twin = Some(twin);
        (pass, Tracer::new(), Chunks::default())
    });
    // A throwaway set-up before every cycle spreads the timed set-ups over
    // the run like the timed chunks are.
    let mut parts = Vec::with_capacity(CYCLES as usize);
    let mut chunks = Chunks::default();
    for c in 0..CYCLES {
        let (map, _, p) = set_up(&regular, resident);
        drop(map);
        parts.push(p);
        pass.cycle(c, &mut chunks, None, &mut report);
        if let Some((tp, tracer, tchunks)) = traced.as_mut() {
            tp.cycle(c, tchunks, Some(tracer), &mut report);
        }
    }
    pass.finish(&mut report);
    report.chunks = chunks;
    let (setup_s, [infer_s, synth_s, populate_s]) = SetupParts::medians(&parts);
    report.setup_s = setup_s;
    let Some((mut tpass, tracer, tchunks)) = traced else {
        return report;
    };
    tpass.finish(&mut report);
    if tpass.counts.degrades != pass.counts.degrades
        || tpass.counts.escalations != pass.counts.escalations
        || tpass.counts.resynth_from_cache != pass.counts.resynth_from_cache
    {
        report
            .problems
            .push("traced and untraced passes took different script paths".into());
    }
    drop(pass);
    let pass = tpass;
    let traced = tchunks;
    report.trace_overhead(&traced, tracer.total_spans());
    let counts = pass.counts;
    let split = pass.split;
    let epochs = {
        let registry = sepe_obs::Registry::new();
        pass.map
            .export_metrics(&registry)
            .expect("a fresh registry has no duplicate ids");
        registry
            .snapshot()
            .counter_family_total("table_epochs_opened")
    };
    let plan_loads = probe::plan_loads(pass.oracle.specialized());
    drop(pass);

    let mean = |name: &str| tracer.agg(name).mean_ns();
    let ratio = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    report.layer("shard.get_ns", mean("op.get"));
    report.layer("shard.insert_ns", mean("op.insert"));
    report.layer("shard.remove_ns", mean("op.remove"));
    report.layer("shard.route_lock_ns", mean("op.get") - mean("twin.get"));
    report.layer("drift.degrades", counts.degrades as f64);
    report.layer("drift.tick_ns", mean("tick.degrade"));
    report.layer("migration.epochs", epochs as f64);
    report.layer(
        "migration.in_flight_op_share",
        ratio(split.in_flight_ops, split.in_flight_ops + split.steady_ops),
    );
    report.layer(
        "migration.in_flight_ns_per_op",
        ratio(split.in_flight_ns, split.in_flight_ops),
    );
    report.layer(
        "migration.steady_ns_per_op",
        ratio(split.steady_ns, split.steady_ops),
    );
    report.layer("migration.stale_reads", split.stale_reads as f64);
    report.layer("resynth.count", counts.resynth as f64);
    report.layer("resynth.from_cache", counts.resynth_from_cache as f64);
    report.layer("resynth.ns", mean("tick.resynth"));
    report.layer(
        "cache.hit_share",
        ratio(counts.resynth_from_cache, counts.resynth),
    );
    report.layer("cache.lookup_ns", mean("cache.lookup"));
    report.layer("attack.escalations", counts.escalations as f64);
    report.layer("attack.deescalations", counts.deescalations as f64);
    report.layer("attack.seed_rotations", counts.rotations as f64);
    report.layer(
        "attack.ops_to_escalate",
        ratio(counts.ops_to_escalate, CYCLES),
    );
    report.layer(
        "attack.keyed_ns_per_op",
        ratio(split.keyed_ns, split.keyed_ops),
    );
    report.layer("obs.snapshot_us", mean("tick.obs") / 1000.0);
    probe::report(&mut report, &tracer, traced.ops);
    report.layer("infer.setup_s", infer_s);
    report.layer("synth.setup_s", synth_s);
    report.layer("map.populate_s", populate_s);
    report.layer("synth.plan_loads", plan_loads as f64);
    let spans = tracer.finish();
    report.spans = spans;
    report
}
