//! `synth_cold`: one op is `infer_pattern` over 256 examples followed by
//! `SynthesizedHash::from_pattern`, with no cache.
//!
//! The corpus is the paper's eight formats plus UUID and INT4, and four
//! reservoirs like those drift bursts and floods feed to resynthesis
//! (format keys mixed with off-format or forged keys), each under all four
//! families. It is the only workload where inference and synthesis do the
//! work; containers are idle. Its set-up warms a fresh `PlanCache` with
//! the plan of every corpus entry, several rounds over, which is what a
//! service pre-planning its formats at start-up pays.

use crate::measure::{per_key, Chunks, Report, SetupParts};
use crate::trace::Tracer;
use crate::{probe, Config, Scale};
use sepe_baselines::CityHash;
use sepe_core::hash::{ByteHash, SynthesizedHash};
use sepe_core::infer::infer_pattern;
use sepe_core::synth::{synthesize, Family};
use sepe_core::{FormatGuard, KeyPattern, Plan, PlanCache};
use sepe_keygen::{Distribution, KeyFormat, KeySampler, SplitMix64};
use std::time::Instant;

/// Examples per op.
pub const EXAMPLES: usize = 256;
/// Ops per timed chunk. Single ops cost 10–500 µs depending on the corpus
/// entry, a distribution with a mode per entry class, whose p90 fell
/// between modes and swung 40% between runs; the mean of 8 shuffled
/// entries is unimodal.
pub const CHUNK_OPS: usize = 8;
const NOMINAL_OPS_PER_S: u64 = 8_000;
/// Corpus passes per set-up, so a set-up is a few hundred ms of work.
const SETUP_ROUNDS: usize = 16;
/// Segments of a pass, each after its own set-up.
const SEGMENTS: u64 = 16;

/// One corpus entry: a named example set and the family to synthesize.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Format or reservoir name.
    pub name: &'static str,
    /// Family synthesized.
    pub family: Family,
    /// The examples inference joins.
    pub examples: Vec<Vec<u8>>,
}

/// A 100-digit key with every digit drawn (the keygen INTS sampler draws a
/// 128-bit index, which leaves 61 leading zeros constant).
#[must_use]
pub fn ints_key(rng: &mut SplitMix64) -> Vec<u8> {
    (0..100)
        .map(|_| b'0' + (rng.next_u64() % 10) as u8)
        .collect()
}

fn format_keys(format: KeyFormat, n: usize, seed: u64) -> Vec<Vec<u8>> {
    if format == KeyFormat::Ints {
        let mut rng = SplitMix64::new(seed);
        return (0..n).map(|_| ints_key(&mut rng)).collect();
    }
    KeySampler::new(format, Distribution::Uniform, seed)
        .pool(n)
        .into_iter()
        .map(String::into_bytes)
        .collect()
}

/// Off-format drift keys: format keys with one digit position overwritten
/// by `x`.
fn drifted(keys: Vec<Vec<u8>>, rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    keys.into_iter()
        .map(|mut k| {
            let digits: Vec<usize> = (0..k.len()).filter(|&i| k[i].is_ascii_digit()).collect();
            if !digits.is_empty() {
                let at = digits[(rng.next_u64() % digits.len() as u64) as usize];
                k[at] = b'x';
            }
            k
        })
        .collect()
}

/// The corpus: ten formats and four reservoirs, each under four families.
#[must_use]
pub fn corpus(seed: u64) -> Vec<Entry> {
    let formats = [
        ("SSN", KeyFormat::Ssn),
        ("CPF", KeyFormat::Cpf),
        ("MAC", KeyFormat::Mac),
        ("IPv4", KeyFormat::Ipv4),
        ("IPv6", KeyFormat::Ipv6),
        ("INTS", KeyFormat::Ints),
        ("URL1", KeyFormat::Url1),
        ("URL2", KeyFormat::Url2),
        ("UUID", KeyFormat::Uuid),
        ("INT4", KeyFormat::FourDigits),
    ];
    let mut rng = SplitMix64::new(seed ^ 0x00C0_4F05);
    let mut sets: Vec<(&'static str, Vec<Vec<u8>>)> = formats
        .iter()
        .enumerate()
        .map(|(i, &(name, f))| (name, format_keys(f, EXAMPLES, seed ^ (i as u64) << 32)))
        .collect();
    let city = CityHash::new();
    let flood = |tag: u64, n: usize| {
        sepe_verify::attacker::bucket_flood(|k| city.hash_bytes(k), 1543, n, tag)
    };
    let reservoir = |name, format, extra: Vec<Vec<u8>>, salt: u64| {
        let mut keys = format_keys(format, EXAMPLES - extra.len(), seed ^ salt);
        keys.extend(extra);
        (name, keys)
    };
    let ipv4_drift = drifted(format_keys(KeyFormat::Ipv4, 16, seed ^ 0xD1), &mut rng);
    let ints_drift = drifted(format_keys(KeyFormat::Ints, 16, seed ^ 0xD2), &mut rng);
    sets.push(reservoir("IPv4+drift", KeyFormat::Ipv4, ipv4_drift, 0xA1));
    sets.push(reservoir(
        "IPv4+flood",
        KeyFormat::Ipv4,
        flood(seed, 32),
        0xA2,
    ));
    sets.push(reservoir("INTS+drift", KeyFormat::Ints, ints_drift, 0xA3));
    sets.push(reservoir(
        "SSN+flood",
        KeyFormat::Ssn,
        flood(seed ^ 1, 32),
        0xA4,
    ));
    sets.into_iter()
        .flat_map(|(name, examples)| {
            Family::ALL.into_iter().map(move |family| Entry {
                name,
                family,
                examples: examples.clone(),
            })
        })
        .collect()
}

fn synth_span(family: Family) -> &'static str {
    match family {
        Family::Naive => "op.synth.naive",
        Family::OffXor => "op.synth.offxor",
        Family::Aes => "op.synth.aes",
        Family::Pext => "op.synth.pext",
    }
}

/// Set-up: warm a fresh plan cache with every corpus entry's plan,
/// [`SETUP_ROUNDS`] times over.
fn set_up(corpus: &[Entry], rounds: usize) -> SetupParts {
    let mut parts = SetupParts::default();
    for _ in 0..rounds {
        let cache = PlanCache::new(corpus.len());
        for e in corpus {
            let t0 = Instant::now();
            let pattern = infer_pattern(e.examples.iter().map(Vec::as_slice))
                .expect("the example set is not empty");
            let t1 = Instant::now();
            cache.insert(&pattern, e.family, synthesize(&pattern, e.family));
            parts.infer += t1 - t0;
            parts.synth += t1.elapsed();
        }
    }
    parts
}

/// Whether `hash` agrees with the reference plan interpreter, and the
/// inferred pattern accepts, on every example.
fn check(hash: &SynthesizedHash, pattern_ok: bool, examples: &[Vec<u8>]) -> bool {
    pattern_ok
        && examples.iter().all(|k| {
            hash.hash_bytes(k)
                == sepe_verify::interp::interpret(hash.plan(), hash.family(), hash.seed(), k)
        })
}

/// Corpus entries in seeded shuffled rounds: every entry once per round.
struct Order {
    rng: SplitMix64,
    left: Vec<usize>,
    entries: usize,
}

impl Order {
    fn new(seed: u64, entries: usize) -> Self {
        Order {
            rng: SplitMix64::new(seed ^ 0x005E_C00D),
            left: Vec::new(),
            entries,
        }
    }

    fn next(&mut self) -> usize {
        if self.left.is_empty() {
            self.left = (0..self.entries).collect();
            for i in (1..self.left.len()).rev() {
                self.left
                    .swap(i, (self.rng.next_u64() % (i as u64 + 1)) as usize);
            }
        }
        self.left.pop().expect("refilled above")
    }
}

/// The pattern and plan each corpus entry produced the first time, once
/// the interpreter agreed with that plan on every example.
type Verified = Vec<Option<(KeyPattern, Plan)>>;

/// `n` chunks of [`CHUNK_OPS`] ops, checked after each chunk: an entry's
/// first plan against the reference interpreter on every example, later
/// ops of the entry against that verified pattern and plan.
fn run_chunks(
    corpus: &[Entry],
    n: u64,
    order: &mut Order,
    verified: &mut Verified,
    chunks: &mut Chunks,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) {
    let mut batch: Vec<usize> = Vec::with_capacity(CHUNK_OPS);
    let mut out: Vec<(KeyPattern, SynthesizedHash)> = Vec::with_capacity(CHUNK_OPS);
    for _ in 0..n {
        batch.clear();
        batch.extend((0..CHUNK_OPS).map(|_| order.next()));
        out.clear();
        let first_op = chunks.ops;
        let start = Instant::now();
        match tracer.as_deref_mut() {
            None => {
                for e in batch.iter().map(|&i| &corpus[i]) {
                    let pattern = infer_pattern(e.examples.iter().map(Vec::as_slice))
                        .expect("the example set is not empty");
                    let hash = SynthesizedHash::from_pattern(&pattern, e.family);
                    out.push((pattern, hash));
                }
            }
            Some(t) => {
                for (j, e) in batch.iter().map(|&i| &corpus[i]).enumerate() {
                    t.set_op(first_op + j as u64);
                    let root = t.begin("op", None);
                    let pattern = t.span("op.infer", Some(root), || {
                        infer_pattern(e.examples.iter().map(Vec::as_slice))
                            .expect("the example set is not empty")
                    });
                    let hash = t.span(synth_span(e.family), Some(root), || {
                        SynthesizedHash::from_pattern(&pattern, e.family)
                    });
                    t.end(root);
                    out.push((pattern, hash));
                }
            }
        }
        chunks.record(CHUNK_OPS, start.elapsed());
        for (&i, (pattern, hash)) in batch.iter().zip(&out) {
            let e = &corpus[i];
            report.attempted += 1;
            let ok = match &verified[i] {
                Some((p, plan)) => p == pattern && plan == hash.plan(),
                None => {
                    let pattern_ok = e.examples.iter().all(|k| pattern.matches(k));
                    let ok = check(hash, pattern_ok, &e.examples);
                    if ok {
                        verified[i] = Some((pattern.clone(), hash.plan().clone()));
                    }
                    ok
                }
            };
            if !ok {
                report.failed += 1;
                report.problems.push(format!(
                    "{} {:?}: plan disagrees with the interpreter or an earlier plan",
                    e.name, e.family
                ));
            }
            if let Some(t) = tracer.as_deref_mut() {
                let guard = FormatGuard::compile(pattern);
                let refs: Vec<&[u8]> = e.examples.iter().map(Vec::as_slice).collect();
                probe::probe(t, Some(&guard), hash, &refs);
            }
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.fold();
        }
    }
}

/// Runs the workload.
#[must_use]
pub fn run(config: &Config) -> Report {
    let corpus = corpus(config.seed);
    let (segments, rounds) = match config.scale {
        Scale::Full => (SEGMENTS, SETUP_ROUNDS),
        Scale::Tiny => (2, 1),
    };
    let ops = config.ops(NOMINAL_OPS_PER_S, corpus.len() as u64);
    let segment_chunks = ops.div_ceil(segments * CHUNK_OPS as u64);
    let total_chunks = segment_chunks * segments;
    let mut report = Report::default();
    report.note("corpus_entries", corpus.len());
    report.note("examples", EXAMPLES);
    report.note("chunk_ops", CHUNK_OPS);
    report.note("ops", total_chunks * CHUNK_OPS as u64);
    report.note("chunks", total_chunks);
    report.note("setups", segments);
    report.note("setup_rounds", rounds);

    // A set-up before every segment spreads the set-ups over the run. A
    // traced run follows every untraced segment with a traced one over the
    // same entries, so both see the same stretches of machine load and
    // their ratio is the tracing overhead.
    let mut parts = Vec::with_capacity(segments as usize);
    let mut chunks = Chunks::default();
    let mut order = Order::new(config.seed, corpus.len());
    let mut tracer = Tracer::new();
    let mut traced = Chunks::default();
    let mut traced_order = Order::new(config.seed, corpus.len());
    let mut verified: Verified = vec![None; corpus.len()];
    for _ in 0..segments {
        parts.push(set_up(&corpus, rounds));
        chunks.segment();
        let n = segment_chunks;
        run_chunks(
            &corpus,
            n,
            &mut order,
            &mut verified,
            &mut chunks,
            None,
            &mut report,
        );
        if config.trace {
            traced.segment();
            let t = Some(&mut tracer);
            let v = &mut verified;
            run_chunks(
                &corpus,
                n,
                &mut traced_order,
                v,
                &mut traced,
                t,
                &mut report,
            );
        }
    }
    let (setup_s, [infer_s, synth_s, _]) = SetupParts::medians(&parts);
    report.setup_s = setup_s;
    report.chunks = chunks;

    if config.trace {
        report.trace_overhead(&traced, tracer.total_spans());
        let keys = traced.ops * EXAMPLES as u64;
        report.layer("infer.ns_per_key", per_key(tracer.agg("op.infer"), keys));
        for (family, name) in [
            (Family::Naive, "synth.search_ns.naive"),
            (Family::OffXor, "synth.search_ns.offxor"),
            (Family::Aes, "synth.search_ns.aes"),
            (Family::Pext, "synth.search_ns.pext"),
        ] {
            report.layer(name, tracer.agg(synth_span(family)).mean_ns());
        }
        probe::report(&mut report, &tracer, keys);
        report.layer("infer.setup_s", infer_s);
        report.layer("synth.setup_s", synth_s);
        let loads: usize = corpus
            .iter()
            .map(|e| {
                let pattern = infer_pattern(e.examples.iter().map(Vec::as_slice))
                    .expect("the example set is not empty");
                probe::plan_loads(&SynthesizedHash::from_pattern(&pattern, e.family))
            })
            .sum();
        report.layer("synth.plan_loads", loads as f64);
        let spans = tracer.finish();
        report.spans = spans;
    }
    report
}
