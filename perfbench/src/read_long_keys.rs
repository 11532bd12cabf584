//! `read_long_keys`: batched lookups of 100-byte INTS keys.
//!
//! A guarded Pext hasher with CityHash fallback, in an `UnorderedMap`;
//! every op is one `get_batch` of 32 keys, 90% hits and 10% in-format
//! misses, drawn uniformly from a resident set of 400k keys (about 40 MiB
//! of key bytes alone, ten times a 4 MiB L2: a working set near L2 size
//! makes lookup time bimodal from run to run). Long keys give the kernel
//! and the guard their largest share; misses walk whole chains. There are
//! no writes, drift or attacks, so synthesis, migration and escalation are
//! idle.

use crate::measure::{per_key, Chunks, Report, SetupParts};
use crate::trace::Tracer;
use crate::{probe, Config, Scale};
use sepe_baselines::CityHash;
use sepe_containers::UnorderedMap;
use sepe_core::guard::GuardedHash;
use sepe_core::hash::SynthesizedHash;
use sepe_core::infer::infer_pattern;
use sepe_core::synth::Family;
use sepe_keygen::SplitMix64;
use std::time::Instant;

/// INTS keys: 100 decimal digits, every digit drawn.
pub const KEY_LEN: usize = 100;
/// Keys per `get_batch` op.
pub const BATCH: usize = 32;
/// Ops per timed chunk (1024 keys, roughly half a millisecond).
pub const CHUNK_OPS: usize = 32;
/// Examples the pattern is inferred from.
pub const EXAMPLES: usize = 256;
/// Nominal ops per second; `--seconds` times this is the op count.
const NOMINAL_OPS_PER_S: u64 = 60_000;
const MISS_PERCENT: u64 = 10;

type Map = UnorderedMap<Box<[u8]>, u64, GuardedHash<SynthesizedHash, CityHash>>;

struct Sizes {
    resident: usize,
    misses: usize,
    /// Segments of the untraced pass, each on a freshly set-up map.
    segments: u64,
    tiny_ops: u64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            resident: 400_000,
            misses: 50_000,
            segments: 16,
            tiny_ops: 0,
        },
        Scale::Tiny => Sizes {
            resident: 2_000,
            misses: 500,
            segments: 2,
            tiny_ops: 16 * CHUNK_OPS as u64,
        },
    }
}

/// Fixed-length keys stored back to back: `0..resident` are inserted,
/// the rest are in-format keys that never are.
struct Keys {
    bytes: Vec<u8>,
}

impl Keys {
    fn generate(n: usize, rng: &mut SplitMix64) -> Keys {
        let mut bytes = Vec::with_capacity(n * KEY_LEN);
        for _ in 0..n * KEY_LEN {
            bytes.push(b'0' + (rng.next_u64() % 10) as u8);
        }
        Keys { bytes }
    }

    fn key(&self, i: usize) -> &[u8] {
        &self.bytes[i * KEY_LEN..(i + 1) * KEY_LEN]
    }
}

/// Program set-up: inference, synthesis and populating the map. Building
/// the owned key/value pairs happens before the clock starts.
fn set_up(keys: &Keys, resident: usize, report: &mut Report) -> (Map, SetupParts) {
    let pairs: Vec<(Box<[u8]>, u64)> = (0..resident)
        .map(|i| (Box::from(keys.key(i)), i as u64))
        .collect();
    let t0 = Instant::now();
    let pattern = infer_pattern((0..EXAMPLES.min(resident)).map(|i| keys.key(i)))
        .expect("the example set is not empty");
    let t1 = Instant::now();
    let hasher = GuardedHash::from_pattern(&pattern, Family::Pext, CityHash::new());
    let t2 = Instant::now();
    let mut map = UnorderedMap::with_hasher(hasher);
    let previous = map.insert_batch(pairs);
    let t3 = Instant::now();
    report.attempted += 1;
    if previous.iter().any(Option::is_some) || map.len() != resident {
        report.failed += 1;
    }
    let parts = SetupParts {
        infer: t1 - t0,
        synth: t2 - t1,
        populate: t3 - t2,
    };
    (map, parts)
}

/// `n_chunks` chunks of batched lookups, outputs checked after each chunk.
#[allow(clippy::too_many_arguments)]
fn run_chunks(
    map: &Map,
    keys: &Keys,
    sizes: &Sizes,
    n_chunks: u64,
    rng: &mut SplitMix64,
    chunks: &mut Chunks,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) {
    let mut refs: Vec<&[u8]> = Vec::with_capacity(CHUNK_OPS * BATCH);
    let mut expect: Vec<Option<u64>> = Vec::with_capacity(CHUNK_OPS * BATCH);
    let mut results: Vec<Vec<Option<&u64>>> = Vec::with_capacity(CHUNK_OPS);
    for _ in 0..n_chunks {
        refs.clear();
        expect.clear();
        results.clear();
        for _ in 0..CHUNK_OPS * BATCH {
            if rng.next_u64() % 100 < MISS_PERCENT {
                let j = (rng.next_u64() % sizes.misses as u64) as usize;
                refs.push(keys.key(sizes.resident + j));
                expect.push(None);
            } else {
                let i = (rng.next_u64() % sizes.resident as u64) as usize;
                refs.push(keys.key(i));
                expect.push(Some(i as u64));
            }
        }
        let first_op = chunks.ops;
        let start = Instant::now();
        match tracer.as_deref_mut() {
            None => {
                for op in refs.chunks(BATCH) {
                    results.push(map.get_batch(op));
                }
            }
            Some(t) => {
                for (j, op) in refs.chunks(BATCH).enumerate() {
                    t.set_op(first_op + j as u64);
                    let id = t.begin("op.get_batch", None);
                    results.push(map.get_batch(op));
                    t.end(id);
                }
            }
        }
        chunks.record(CHUNK_OPS, start.elapsed());
        for (got, want) in results.iter().zip(expect.chunks(BATCH)) {
            report.attempted += 1;
            let ok = got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.copied() == *w);
            if !ok {
                report.failed += 1;
            }
        }
        if let Some(t) = tracer.as_deref_mut() {
            let hasher = map.hasher();
            probe::probe(t, Some(hasher.guard()), hasher.specialized(), &refs);
            t.fold();
        }
    }
}

/// Exact table-shape counts: probes per hit averaged over the resident
/// set (an entry at chain position `p` costs `p` probes), probes per miss
/// averaged over the miss keys (a miss walks its whole chain), and the
/// paper's bucket-collision count.
fn table_counts(map: &Map, keys: &Keys, sizes: &Sizes, report: &mut Report) {
    let buckets = map.bucket_count();
    let positions: u64 = (0..buckets)
        .map(|b| {
            let l = map.bucket_len(b) as u64;
            l * (l + 1) / 2
        })
        .sum();
    let miss_probes: u64 = (0..sizes.misses)
        .map(|j| {
            let h = map.hash_of(keys.key(sizes.resident + j));
            map.bucket_len(map.policy().bucket_of(h, buckets as u64) as usize) as u64
        })
        .sum();
    report.layer(
        "table.probes_per_hit",
        positions as f64 / map.len().max(1) as f64,
    );
    report.layer(
        "table.probes_per_miss",
        miss_probes as f64 / sizes.misses.max(1) as f64,
    );
    report.layer("table.bucket_collisions", map.bucket_collisions() as f64);
}

/// Runs the workload.
#[must_use]
pub fn run(config: &Config) -> Report {
    let sizes = sizes(config.scale);
    let ops = config.ops(NOMINAL_OPS_PER_S, sizes.tiny_ops);
    let mut report = Report::default();
    report.note("resident_keys", sizes.resident);
    report.note("miss_keys", sizes.misses);
    report.note("key_bytes", KEY_LEN);
    report.note("batch", BATCH);
    report.note("chunk_ops", CHUNK_OPS);
    let n_chunks = ops.div_ceil(CHUNK_OPS as u64).div_ceil(sizes.segments) * sizes.segments;
    report.note("ops", n_chunks * CHUNK_OPS as u64);
    report.note("chunks", n_chunks);
    report.note("setups", sizes.segments);

    let mut rng = SplitMix64::new(config.seed);
    let keys = Keys::generate(sizes.resident + sizes.misses, &mut rng);
    let segment_chunks = ops.div_ceil(CHUNK_OPS as u64).div_ceil(sizes.segments);
    let query_seed = config.seed ^ 0x9E37_79B9_7F4A_7C15;

    // Each segment runs on a map set up just before it, so the set-ups
    // are spread over the run like the timed chunks are.
    // Each segment runs on a map set up just before it, so the set-ups are
    // spread over the run like the timed chunks are. A traced run follows
    // every untraced segment with a traced one on the same map and the same
    // queries, so both see the same stretches of machine load and their
    // ratio is the tracing overhead.
    let mut parts = Vec::with_capacity(sizes.segments as usize);
    let mut chunks = Chunks::default();
    let mut rng = SplitMix64::new(query_seed);
    let mut tracer = Tracer::new();
    let mut traced = Chunks::default();
    let mut traced_rng = SplitMix64::new(query_seed);
    let mut map = None;
    for _ in 0..sizes.segments {
        drop(map.take());
        let (m, p) = set_up(&keys, sizes.resident, &mut report);
        parts.push(p);
        chunks.segment();
        let n = segment_chunks;
        run_chunks(
            &m,
            &keys,
            &sizes,
            n,
            &mut rng,
            &mut chunks,
            None,
            &mut report,
        );
        if config.trace {
            traced.segment();
            let t = Some(&mut tracer);
            run_chunks(
                &m,
                &keys,
                &sizes,
                n,
                &mut traced_rng,
                &mut traced,
                t,
                &mut report,
            );
        }
        map = Some(m);
    }
    let map = map.expect("at least one segment");
    let (setup_s, [infer_s, synth_s, populate_s]) = SetupParts::medians(&parts);
    report.setup_s = setup_s;
    report.chunks = chunks;

    if config.trace {
        report.trace_overhead(&traced, tracer.total_spans());
        let probed = traced.ops * BATCH as u64;
        let get_batch = per_key(tracer.agg("op.get_batch"), probed);
        let guard = per_key(tracer.agg("probe.guard"), probed);
        let kernel = per_key(tracer.agg("probe.kernel"), probed);
        report.layer("map.get_batch_ns_per_key", get_batch);
        report.layer("map.self_ns_per_key", get_batch - guard - kernel);
        probe::report(&mut report, &tracer, probed);
        report.layer("infer.setup_s", infer_s);
        report.layer("synth.setup_s", synth_s);
        report.layer("map.populate_s", populate_s);
        report.layer(
            "synth.plan_loads",
            probe::plan_loads(map.hasher().specialized()) as f64,
        );
        table_counts(&map, &keys, &sizes, &mut report);
        let spans = tracer.finish();
        report.spans = spans;
    }
    report
}
