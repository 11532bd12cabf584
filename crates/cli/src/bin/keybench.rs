//! `keybench` — benchmark synthesized and baseline hash functions on *your*
//! keys: the end-to-end tool a downstream user actually wants.
//!
//! ```text
//! keybench my_keys.txt             # one key per line
//! keybench --iterations 200000 my_keys.txt
//! ```
//!
//! Infers the key format, synthesizes all four SEPE families, and reports
//! hashing time (latency-chained), true collisions and bucket collisions
//! against the general-purpose baselines.

use sepe_baselines::CityHash;
use sepe_containers::{DriftPolicy, UnorderedMap};
use sepe_core::guard::GuardedHash;
use sepe_core::hash::SynthesizedHash;
use sepe_core::infer::{infer_pattern, infer_regex};
use sepe_core::multi::LengthDispatchHash;
use sepe_core::synth::Family;
use sepe_core::{ByteHash, Isa, KeyPattern};
use sepe_driver::measure::collisions_of;
use sepe_driver::HashId;
use std::io::Read;
use std::process::ExitCode;
use std::time::Instant;

struct Options {
    iterations: usize,
    guard: bool,
    drift_threshold: Option<f64>,
    batch: Option<usize>,
    churn: Option<usize>,
    threads: Option<usize>,
    metrics: bool,
    adversarial: bool,
    synth: bool,
    path: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut iterations = 100_000;
    let mut guard = false;
    let mut drift_threshold = None;
    let mut batch = None;
    let mut churn = None;
    let mut threads = None;
    let mut metrics = false;
    let mut adversarial = false;
    let mut synth = false;
    let mut path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--iterations" | "-n" => {
                iterations = args
                    .next()
                    .ok_or("--iterations needs a value")?
                    .parse()
                    .map_err(|e| format!("bad iteration count: {e}"))?;
            }
            "--threads" | "-t" => {
                let n: usize = args
                    .next()
                    .ok_or("--threads needs a count")?
                    .parse()
                    .map_err(|e| format!("bad thread count: {e}"))?;
                if n == 0 {
                    return Err("thread count must be positive".to_owned());
                }
                threads = Some(n);
            }
            "--batch" | "-b" => {
                let w: usize = args
                    .next()
                    .ok_or("--batch needs a width")?
                    .parse()
                    .map_err(|e| format!("bad batch width: {e}"))?;
                if w < 2 {
                    return Err(format!("batch width {w} must be at least 2"));
                }
                batch = Some(w);
            }
            "--churn" => {
                let n: usize = args
                    .next()
                    .ok_or("--churn needs an op count")?
                    .parse()
                    .map_err(|e| format!("bad churn op count: {e}"))?;
                if n == 0 {
                    return Err("churn op count must be positive".to_owned());
                }
                churn = Some(n);
            }
            "--guard" | "-g" => guard = true,
            "--metrics" => metrics = true,
            "--adversarial" => adversarial = true,
            "--synth" => synth = true,
            "--drift-threshold" => {
                let t: f64 = args
                    .next()
                    .ok_or("--drift-threshold needs a value")?
                    .parse()
                    .map_err(|e| format!("bad drift threshold: {e}"))?;
                if !(0.0..=1.0).contains(&t) {
                    return Err(format!("drift threshold {t} is outside 0..=1"));
                }
                drift_threshold = Some(t);
            }
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(other.to_owned());
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Options {
        iterations,
        guard,
        drift_threshold,
        batch,
        churn,
        threads,
        metrics,
        adversarial,
        synth,
        path,
    })
}

/// `--threads N`: machine-readable thread-scaling report. Prints a
/// pure-JSON `sepe-keybench/v1` document with a `concurrency` array in the
/// bench-json row schema: the churn workload (get/insert/remove mix over
/// the user's keys) fanned across 1, 2, 4, … up to `N` worker threads over
/// a lock-striped `ShardedMap`, with aggregate ns/op, Mops/s, and speedup
/// relative to the single-thread row.
fn threads_report(pattern: &KeyPattern, keys: &[String], max_threads: usize, iterations: usize) {
    use sepe_containers::ShardedMap;
    use sepe_core::plan_io::Json;
    use sepe_keygen::SplitMix64;
    use std::collections::BTreeMap;

    type Map = ShardedMap<String, usize, SynthesizedHash, CityHash>;
    let shards = 8usize;

    let churn = |map: &Map, seed: u64, ops: usize| {
        let mut rng = SplitMix64::new(seed);
        for i in 0..ops {
            let key = &keys[(rng.next_u64() % keys.len() as u64) as usize];
            match rng.next_u64() % 10 {
                0..=4 => {
                    std::hint::black_box(map.get(key.as_str()));
                }
                5..=7 => {
                    map.insert(key.clone(), i);
                }
                _ => {
                    map.remove(key.as_str());
                    map.insert(key.clone(), i);
                }
            }
        }
    };

    // Doubling thread counts up to the requested maximum (always ending on
    // the maximum itself, so `--threads 6` measures 1, 2, 4, 6).
    let mut counts = vec![1usize];
    while counts.last().copied().unwrap_or(1) * 2 < max_threads {
        counts.push(counts.last().unwrap() * 2);
    }
    if max_threads > 1 {
        counts.push(max_threads);
    }

    let mut rows = Vec::new();
    let mut baseline_ns = None;
    for threads in counts {
        let hasher = GuardedHash::from_pattern(pattern, Family::OffXor, CityHash::new());
        let map: Map = ShardedMap::with_hasher(hasher, shards);
        for (i, key) in keys.iter().enumerate() {
            map.insert(key.clone(), i);
        }
        let per_thread_ops = (iterations / threads).max(256);
        churn(&map, 0x5EED, per_thread_ops.min(10_000)); // warm-up
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let map = &map;
                let churn = &churn;
                s.spawn(move || churn(map, 0xC4A0 ^ t as u64, per_thread_ops));
            }
        });
        let ns = start.elapsed().as_secs_f64() * 1e9 / (per_thread_ops * threads) as f64;
        let baseline = *baseline_ns.get_or_insert(ns);
        let mut row = BTreeMap::new();
        row.insert("threads".to_string(), Json::Num(threads as f64));
        row.insert("shards".to_string(), Json::Num(shards as f64));
        row.insert("ns_per_op".to_string(), Json::Num(ns));
        row.insert(
            "throughput_mops".to_string(),
            Json::Num(if ns > 0.0 { 1e3 / ns } else { 0.0 }),
        );
        row.insert(
            "speedup".to_string(),
            Json::Num(if ns > 0.0 { baseline / ns } else { 0.0 }),
        );
        rows.push(Json::Obj(row));
    }
    let mut doc = BTreeMap::new();
    doc.insert(
        "schema".to_string(),
        Json::Str("sepe-keybench/v1".to_string()),
    );
    doc.insert("max_threads".to_string(), Json::Num(max_threads as f64));
    doc.insert("keys".to_string(), Json::Num(keys.len() as f64));
    doc.insert("concurrency".to_string(), Json::Arr(rows));
    println!("{}", Json::Obj(doc));
}

/// `--batch W`: machine-readable batched-vs-scalar comparison. Prints a
/// pure-JSON `sepe-keybench/v1` document (no prose, so the output pipes
/// straight into tooling): per family, ns/key at width 1 (latency-chained)
/// and width `W` (interleaved kernels).
fn batch_report(pattern: &KeyPattern, key_bytes: &[&[u8]], width: usize, iterations: usize) {
    use sepe_core::plan_io::Json;
    use sepe_driver::bench_json::{batched_ns_per_key, scalar_ns_per_key};
    use std::collections::BTreeMap;

    // The chained measurements mask indices, so use the largest
    // power-of-two prefix of the key pool.
    let pot = if key_bytes.len().is_power_of_two() {
        key_bytes.len()
    } else {
        (key_bytes.len().next_power_of_two() / 2).max(1)
    };
    let pool = &key_bytes[..pot];

    let mut rows = Vec::new();
    for family in Family::ALL {
        let hash = SynthesizedHash::from_pattern(pattern, family);
        for w in [1usize, width] {
            let ns = if w <= 1 {
                scalar_ns_per_key(&hash, pool, iterations)
            } else {
                batched_ns_per_key(&hash, pool, w, iterations)
            };
            let mut row = BTreeMap::new();
            row.insert(
                "family".to_string(),
                Json::Str(family.to_string().to_ascii_lowercase()),
            );
            row.insert("width".to_string(), Json::Num(w as f64));
            row.insert("ns_per_key".to_string(), Json::Num(ns));
            row.insert(
                "throughput_mkeys".to_string(),
                Json::Num(if ns > 0.0 { 1e3 / ns } else { 0.0 }),
            );
            rows.push(Json::Obj(row));
        }
    }
    let mut doc = BTreeMap::new();
    doc.insert(
        "schema".to_string(),
        Json::Str("sepe-keybench/v1".to_string()),
    );
    doc.insert("batch_width".to_string(), Json::Num(width as f64));
    doc.insert("keys".to_string(), Json::Num(pool.len() as f64));
    doc.insert("records".to_string(), Json::Arr(rows));
    println!("{}", Json::Obj(doc));
}

/// Latency-chained hashing time over the key set.
fn chained_time(hash: &dyn ByteHash, keys: &[&[u8]], iterations: usize) -> f64 {
    let pot = if keys.len().is_power_of_two() {
        keys.len()
    } else {
        (keys.len().next_power_of_two() / 2).max(1)
    };
    let mask = pot - 1;
    let mut idx = 0usize;
    let mut acc = 0u64;
    let start = Instant::now();
    for _ in 0..iterations {
        let h = hash.hash_bytes(keys[idx]);
        acc ^= h;
        idx = (h as usize) & mask;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e9 / iterations as f64
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("keybench: {msg}");
            }
            eprintln!(
                "usage: keybench [--iterations N] [--guard] [--drift-threshold T] \
                 [--batch W] [--churn N] [--threads N] [--metrics] \
                 [--adversarial] [FILE]\n\
                 \x20      (keys on stdin or FILE, one per line)"
            );
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };

    let mut input = String::new();
    let read = match &opts.path {
        Some(p) => std::fs::read_to_string(p).map(|s| {
            input = s;
        }),
        None => std::io::stdin()
            .lock()
            .read_to_string(&mut input)
            .map(|_| ()),
    };
    if let Err(e) = read {
        eprintln!("keybench: cannot read keys: {e}");
        return ExitCode::FAILURE;
    }

    let mut keys: Vec<&str> = input
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    if keys.is_empty() {
        eprintln!("keybench: no keys given");
        return ExitCode::FAILURE;
    }
    let key_bytes: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
    let key_strings: Vec<String> = keys.iter().map(|k| (*k).to_owned()).collect();

    let pattern = match infer_pattern(key_bytes.iter().copied()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("keybench: cannot infer a key format: {e}");
            return ExitCode::FAILURE;
        }
    };
    let regex = match infer_regex(key_bytes.iter().copied()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("keybench: cannot infer a key format: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(width) = opts.batch {
        batch_report(&pattern, &key_bytes, width, opts.iterations);
        return ExitCode::SUCCESS;
    }
    if let Some(n_ops) = opts.churn {
        churn_report(&pattern, &key_strings, n_ops);
        return ExitCode::SUCCESS;
    }
    if let Some(n_threads) = opts.threads {
        threads_report(&pattern, &key_strings, n_threads, opts.iterations);
        return ExitCode::SUCCESS;
    }
    if opts.metrics {
        metrics_report(&pattern, &key_strings, opts.iterations);
        return ExitCode::SUCCESS;
    }
    if opts.adversarial {
        adversarial_report(&pattern, &key_strings, opts.iterations);
        return ExitCode::SUCCESS;
    }
    if opts.synth {
        synth_report(&pattern, opts.iterations);
        return ExitCode::SUCCESS;
    }

    println!("{} distinct keys, inferred format: {}", keys.len(), regex);
    println!(
        "length {}..={}, {} variable bits{}\n",
        pattern.min_len(),
        pattern.max_len(),
        pattern.variable_bits(),
        if pattern.variable_bits() <= 64 && pattern.is_fixed_len() {
            " (Pext bijection possible)"
        } else {
            ""
        }
    );

    println!(
        "{:<22} {:>12} {:>10} {:>12}",
        "function", "ns/hash", "T-Coll", "B-Coll"
    );
    let report = |name: &str, hash: &dyn ByteHash| {
        let ns = chained_time(hash, &key_bytes, opts.iterations);
        let (b_coll, t_coll) =
            collisions_of(hash, &key_strings, sepe_containers::BucketPolicy::Modulo);
        println!("{name:<22} {ns:>12.1} {t_coll:>10} {b_coll:>12}");
    };

    for family in Family::ALL {
        let hash = SynthesizedHash::from_pattern(&pattern, family);
        report(&format!("sepe/{family}"), &hash);
    }
    let mut drift_line = None;
    if opts.guard {
        for family in Family::ALL {
            let hash = GuardedHash::from_pattern(&pattern, family, CityHash::new());
            report(&format!("sepe/{family}+guard"), &hash);
            if family == Family::OffXor {
                let stats = hash.stats();
                drift_line = Some(format!(
                    "guard drift: {} in-format, {} off-format of {} keys seen ({:.1}% drift)",
                    stats.in_format(),
                    stats.off_format(),
                    stats.total(),
                    stats.off_rate() * 100.0
                ));
            }
        }
    }
    if !pattern.is_fixed_len() {
        if let Ok(dispatch) =
            LengthDispatchHash::from_examples(key_bytes.iter().copied(), Family::OffXor)
        {
            report("sepe/OffXor+dispatch", &dispatch);
        }
    }
    // Related work: entropy-learned hashing (Hentschel et al.), trained on
    // the same keys with a byte budget matching the variable region.
    let budget = key_bytes
        .iter()
        .map(|k| k.len())
        .max()
        .unwrap_or(1)
        .clamp(1, 16);
    let elh = sepe_baselines::EntropyLearnedHash::train(&key_bytes, budget);
    report(
        &format!("related/ELH({} bytes)", elh.positions().len()),
        &elh,
    );

    for id in [HashId::Stl, HashId::City, HashId::Abseil, HashId::Fnv] {
        // Baselines are format-independent; any format argument works.
        let hash = id.build(sepe_keygen::KeyFormat::Ssn, Isa::Native);
        report(&format!("baseline/{}", id.name()), hash.as_ref());
    }
    if let Some(line) = drift_line {
        println!("\n{line}");
    }
    if let Some(threshold) = opts.drift_threshold {
        println!();
        drift_demo(&pattern, &key_strings, threshold);
    }
    ExitCode::SUCCESS
}

/// `--churn N`: measures the latency-cliff fix. Fills a guarded map with
/// the user's keys, runs `N` churn operations (get/insert/remove mix) at
/// steady state, then triggers `degrade_now()` and keeps churning while
/// the epoch migration drains incrementally — reporting ops/sec at steady
/// state, ops/sec while the migration is in flight, and how many
/// operations the amortized drain took.
fn churn_report(pattern: &KeyPattern, keys: &[String], n_ops: usize) {
    use sepe_keygen::SplitMix64;

    let hasher = GuardedHash::from_pattern(pattern, Family::OffXor, CityHash::new());
    let mut map: UnorderedMap<String, usize, _> = UnorderedMap::with_hasher(hasher);
    for (i, key) in keys.iter().enumerate() {
        map.insert(key.clone(), i);
    }
    let mut rng = SplitMix64::new(0xC4A0_5EED);
    let mut churn = |map: &mut UnorderedMap<String, usize, _>, ops: usize| -> f64 {
        let start = Instant::now();
        for i in 0..ops {
            let key = &keys[(rng.next_u64() % keys.len() as u64) as usize];
            match rng.next_u64() % 10 {
                0..=4 => {
                    std::hint::black_box(map.get(key.as_str()));
                }
                5..=7 => {
                    map.insert(key.clone(), i);
                }
                _ => {
                    map.remove(key.as_str());
                    map.insert(key.clone(), i);
                }
            }
        }
        start.elapsed().as_secs_f64() * 1e9 / ops as f64
    };

    println!(
        "churn workload: {} keys resident, {} ops per phase, mode {:?}",
        map.len(),
        n_ops,
        map.guard_mode()
    );
    // Warm-up pass, then the measured steady-state phase.
    churn(&mut map, n_ops.min(10_000));
    let steady_ns = churn(&mut map, n_ops);
    println!(
        "  steady state          {steady_ns:>10.1} ns/op  ({:.2} Mops/s)",
        1e3 / steady_ns
    );

    map.degrade_now();
    let entries = map.len();
    // Measure while the epoch is actually in flight: churn in small slices
    // until the amortized drain completes.
    let mut inflight_ops = 0usize;
    let start = Instant::now();
    while map.migration_in_flight() && inflight_ops < n_ops {
        churn(&mut map, 64);
        inflight_ops += 64;
    }
    let inflight_ns = start.elapsed().as_secs_f64() * 1e9 / inflight_ops.max(1) as f64;
    let drained = !map.migration_in_flight();
    println!(
        "  migration in flight   {inflight_ns:>10.1} ns/op  ({:.2} Mops/s)",
        1e3 / inflight_ns
    );
    match drained {
        true => println!(
            "  drain: {entries} entries re-filed across {inflight_ops} ops \
             (progress 100%, no stop-the-world rebuild)"
        ),
        false => println!(
            "  drain: still in flight after {inflight_ops} ops \
             (progress {:.0}%)",
            map.migration_progress() * 100.0
        ),
    }

    let after_ns = churn(&mut map, n_ops);
    println!(
        "  degraded steady state {after_ns:>10.1} ns/op  ({:.2} Mops/s)",
        1e3 / after_ns
    );
}

/// `--metrics`: machine-readable observability snapshot. Runs a
/// deterministic, seeded, single-threaded workload over the user's keys —
/// fill a guarded map, churn (get/insert/remove mix), degrade, drain the
/// epoch migration with seeded strides, churn again — with the table and
/// guard metrics exported into a [`sepe_obs::Registry`], then prints the
/// canonical `sepe-metrics/v1` snapshot as pure JSON. The same keys and
/// iteration count always print byte-identical output, so the snapshot
/// diffs cleanly and pipes into `sepe-repro --check-metrics`.
fn metrics_report(pattern: &KeyPattern, keys: &[String], iterations: usize) {
    use sepe_keygen::SplitMix64;

    let registry = sepe_obs::Registry::new();
    let hasher = GuardedHash::from_pattern(pattern, Family::OffXor, CityHash::new());
    let mut map: UnorderedMap<String, usize, _> = UnorderedMap::with_hasher(hasher);
    map.export_metrics(&registry, &[])
        .expect("fresh registry accepts the first export");
    for (i, key) in keys.iter().enumerate() {
        map.insert(key.clone(), i);
    }
    let ops = iterations.clamp(512, 65_536);
    let mut rng = SplitMix64::new(0x0B5E_C4A0);
    let mut churn = |map: &mut UnorderedMap<String, usize, _>, ops: usize| {
        for i in 0..ops {
            let key = &keys[(rng.next_u64() % keys.len() as u64) as usize];
            match rng.next_u64() % 10 {
                0..=4 => {
                    std::hint::black_box(map.get(key.as_str()));
                }
                5..=7 => {
                    map.insert(key.clone(), i);
                }
                _ => {
                    map.remove(key.as_str());
                    map.insert(key.clone(), i);
                }
            }
        }
    };
    churn(&mut map, ops);
    map.degrade_now();
    let mut drain_rng = SplitMix64::new(0x0B5E_D8A1);
    while map.migration_in_flight() {
        map.migrate(1 + (drain_rng.next_u64() % 32) as usize);
    }
    churn(&mut map, ops);
    println!("{}", registry.snapshot().render());
}

/// `--adversarial`: demonstrates the HashDoS defense on the user's keys.
/// Fills a guarded map, measures benign churn at steady state (ticking the
/// collision-storm detector, which must stay quiet), then brute-forces a
/// collision flood against the map's own hash — the strongest attacker
/// model for the unkeyed rungs — and lets the detector climb the
/// escalation ladder to the keyed hasher. Reports ns/op benign vs. under
/// attack vs. after escalation, the flooded-chain lengths, the wall-clock
/// escalation latency (detector ticks plus the incremental re-key drain),
/// and the quiet-window recovery back to the specialized hasher.
fn adversarial_report(pattern: &KeyPattern, keys: &[String], iterations: usize) {
    use sepe_containers::AttackPolicy;
    use sepe_core::guard::GuardMode;
    use sepe_core::hash::FixedSeedSource;
    use sepe_keygen::SplitMix64;
    use sepe_verify::attacker::bucket_flood;

    const FLOOD_KEYS: usize = 64;
    let ops = iterations.clamp(512, 65_536);
    let policy = AttackPolicy {
        min_len: 32,
        trip_streak: 2,
        quiet_streak: 2,
        ..AttackPolicy::default()
    };
    let seeds = FixedSeedSource::new(0xADE5_EED5);

    let hasher = GuardedHash::from_pattern(pattern, Family::OffXor, CityHash::new());
    let mut map: UnorderedMap<String, usize, _> = UnorderedMap::with_hasher(hasher);
    for (i, key) in keys.iter().enumerate() {
        map.insert(key.clone(), i);
    }
    // Pin the bucket count before forging: the flood collides modulo the
    // *current* table size, so the attack inserts must never resize it.
    map.reserve(FLOOD_KEYS + 16);

    let mut rng = SplitMix64::new(0xADE5_C4A0);
    let mut churn = |map: &mut UnorderedMap<String, usize, _>, ops: usize| -> f64 {
        let start = Instant::now();
        for i in 0..ops {
            let key = &keys[(rng.next_u64() % keys.len() as u64) as usize];
            match rng.next_u64() % 10 {
                0..=4 => {
                    std::hint::black_box(map.get(key.as_str()));
                }
                5..=7 => {
                    map.insert(key.clone(), i);
                }
                _ => {
                    map.remove(key.as_str());
                    map.insert(key.clone(), i);
                }
            }
        }
        start.elapsed().as_secs_f64() * 1e9 / ops as f64
    };
    let probe = |map: &UnorderedMap<String, usize, _>, flood: &[String], iters: usize| -> f64 {
        let mut acc = 0usize;
        let start = Instant::now();
        for i in 0..iters {
            if map.get(flood[i % flood.len()].as_str()).is_some() {
                acc += 1;
            }
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64() * 1e9 / iters as f64
    };

    println!(
        "adversarial workload: {} keys resident, {ops} ops per phase, \
         flood of {FLOOD_KEYS} forged collisions",
        map.len()
    );
    churn(&mut map, ops.min(10_000)); // warm-up
    let steady_ns = churn(&mut map, ops);
    let benign_chain = map.max_bucket_len();
    let mut benign_trips = 0usize;
    for _ in 0..4 {
        if map.maybe_escalate(&policy, &seeds) {
            benign_trips += 1;
        }
    }
    println!(
        "  benign steady state   {steady_ns:>10.1} ns/op  ({:.2} Mops/s), \
         max chain {benign_chain}, detector trips {benign_trips}/4 ticks",
        1e3 / steady_ns
    );

    // The flood: distinct keys brute-forced onto one bucket of this map.
    let flood: Vec<String> = bucket_flood(
        |k| map.hash_of(k),
        map.bucket_count() as u64,
        FLOOD_KEYS,
        0xADE5,
    )
    .into_iter()
    .map(|k| String::from_utf8(k).expect("forged keys are ascii"))
    .collect();
    for (i, key) in flood.iter().enumerate() {
        map.insert(key.clone(), 1_000_000 + i);
    }
    let attack_chain = map.max_bucket_len();
    let attack_probe_ns = probe(&map, &flood, ops);
    let attack_churn_ns = churn(&mut map, ops);
    println!(
        "  under attack          {attack_churn_ns:>10.1} ns/op  ({:.2} Mops/s), \
         max chain {attack_chain}, forged-key probe {attack_probe_ns:.1} ns/get",
        1e3 / attack_churn_ns
    );

    // Let the detector climb the ladder; the off-format flood survives the
    // unkeyed fallback rung, so it must reach the keyed hasher.
    let start = Instant::now();
    let mut rungs = 0usize;
    let mut ticks = 0usize;
    while map.guard_mode() != GuardMode::Keyed && ticks < 16 {
        ticks += 1;
        if map.maybe_escalate(&policy, &seeds) {
            rungs += 1;
            while map.migration_in_flight() {
                map.migrate(1024);
            }
        }
    }
    let escalation_us = start.elapsed().as_secs_f64() * 1e6;
    let keyed_chain = map.max_bucket_len();
    let keyed_probe_ns = probe(&map, &flood, ops);
    let keyed_churn_ns = churn(&mut map, ops);
    println!(
        "  escalation: {rungs} rungs over {ticks} detector ticks to mode {:?} \
         in {escalation_us:.0} us (incremental re-key included)",
        map.guard_mode()
    );
    println!(
        "  keyed steady state    {keyed_churn_ns:>10.1} ns/op  ({:.2} Mops/s), \
         max chain {keyed_chain}, forged-key probe {keyed_probe_ns:.1} ns/get",
        1e3 / keyed_churn_ns
    );

    // Recovery: drop the flood and let a quiet window re-arm the
    // specialized hasher.
    for key in &flood {
        map.remove(key.as_str());
    }
    let mut rearm_ticks = 0usize;
    while map.guard_mode() != GuardMode::Guarded && rearm_ticks < 8 {
        rearm_ticks += 1;
        if map.maybe_deescalate(&policy) {
            while map.migration_in_flight() {
                map.migrate(1024);
            }
        }
    }
    println!(
        "  recovery: mode {:?} after {rearm_ticks} quiet ticks, \
         {} entries intact",
        map.guard_mode(),
        map.len()
    );
    if sepe_obs::enabled() {
        println!(
            "  counters: {} escalations, {} seed rotations, {} de-escalations",
            map.escalations(),
            map.seed_rotations(),
            map.deescalations()
        );
    }
}

/// `--synth`: machine-readable plan-cache report. Prints a pure-JSON
/// `sepe-keybench/v1` document with a `plan_cache` array comparing, per
/// family, a cold synthesis against a memoized [`PlanCache`] hit on the
/// same pattern.
///
/// [`PlanCache`]: sepe_core::PlanCache
fn synth_report(pattern: &KeyPattern, iterations: usize) {
    use sepe_core::plan_io::Json;
    use sepe_core::synthesize;
    use sepe_core::PlanCache;
    use std::collections::BTreeMap;

    let reps = (iterations / 1_000).clamp(8, 256);
    let cache = PlanCache::new(Family::ALL.len());
    let mut cache_rows = Vec::new();
    for family in Family::ALL {
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(synthesize(pattern, family));
        }
        let cold_ns = start.elapsed().as_secs_f64() * 1e9 / reps as f64;
        cache.insert(pattern, family, synthesize(pattern, family));
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(cache.lookup(pattern, family));
        }
        let warm_ns = start.elapsed().as_secs_f64() * 1e9 / reps as f64;
        let mut row = BTreeMap::new();
        row.insert(
            "family".to_string(),
            Json::Str(family.to_string().to_ascii_lowercase()),
        );
        row.insert("cold_ns".to_string(), Json::Num(cold_ns));
        row.insert("warm_ns".to_string(), Json::Num(warm_ns));
        row.insert(
            "speedup".to_string(),
            Json::Num(if warm_ns > 0.0 {
                cold_ns / warm_ns
            } else {
                0.0
            }),
        );
        cache_rows.push(Json::Obj(row));
    }

    let mut doc = BTreeMap::new();
    doc.insert(
        "schema".to_string(),
        Json::Str("sepe-keybench/v1".to_string()),
    );
    doc.insert("reps".to_string(), Json::Num(reps as f64));
    doc.insert("plan_cache".to_string(), Json::Arr(cache_rows));
    println!("{}", Json::Obj(doc));
}

/// Demonstrates the degradation state machine: fills a guarded map with the
/// user's keys, then streams progressively off-format traffic through it
/// until the drift policy flips the table to the fallback hasher.
fn drift_demo(pattern: &KeyPattern, keys: &[String], threshold: f64) {
    let policy = DriftPolicy::with_threshold(threshold);
    let hasher = GuardedHash::from_pattern(pattern, Family::OffXor, CityHash::new());
    let mut map: UnorderedMap<String, usize, _> = UnorderedMap::with_hasher(hasher);
    for (i, key) in keys.iter().enumerate() {
        map.insert(key.clone(), i);
    }
    println!(
        "drift demo: {} keys inserted, mode {:?}, threshold {:.0}%",
        map.len(),
        map.guard_mode(),
        threshold * 100.0
    );
    // Off-format traffic: the same keys with a marker byte appended.
    let mut flipped_at = None;
    for (i, key) in keys.iter().enumerate() {
        map.insert(format!("{key}!"), i);
        if map.maybe_degrade(&policy) {
            flipped_at = Some(i + 1);
            break;
        }
    }
    let stats = map.drift_stats();
    match flipped_at {
        Some(n) => println!(
            "degraded to the fallback hasher after {n} off-format keys \
             ({:.1}% drift over {} observations); table rehashed, mode {:?}",
            stats.off_rate() * 100.0,
            stats.total(),
            map.guard_mode()
        ),
        None => println!(
            "threshold never exceeded ({:.1}% drift over {} observations); mode {:?}",
            stats.off_rate() * 100.0,
            stats.total(),
            map.guard_mode()
        ),
    }
}
