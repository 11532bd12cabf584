//! Property-based tests for synthesis: over seeded random formats, a
//! [`PlanCache`] hit must be indistinguishable from a fresh search; over
//! reservoirs an attacker or a drifting workload can fill, resynthesis
//! yields a valid plan with a load count linear in the widened key length.

use proptest::prelude::*;
use sepe_baselines::CityHash;
use sepe_core::cache::PlanCache;
use sepe_core::guard::GuardedHash;
use sepe_core::hash::ByteHash;
use sepe_core::plan_io::{plan_to_string, validate_plan, validate_plan_for};
use sepe_core::regex::Regex;
use sepe_core::synth::{synthesize, Family, Plan};
use sepe_keygen::{Distribution, KeyFormat, KeySampler, SplitMix64};
use sepe_verify::attacker::bucket_flood;
use sepe_verify::formats::RandomFormat;

/// The three reservoirs of one seed, as (format, off-format keys):
/// IPv4 and SSN with 32 forged keys that all land in one bucket of a
/// 1543-bucket table under CityHash, and INTS with 32 keys that each have
/// one digit overwritten by `x`.
fn attacked_reservoirs(seed: u64) -> Vec<(KeyFormat, Vec<Vec<u8>>)> {
    let city = CityHash::new();
    let flood = |tag: u64| bucket_flood(|k| city.hash_bytes(k), 1543, 32, tag);
    let mut rng = SplitMix64::new(seed);
    let drift = (0..32)
        .map(|_| {
            let mut key: Vec<u8> = (0..100)
                .map(|_| b'0' + (rng.next_u64() % 10) as u8)
                .collect();
            key[(rng.next_u64() % 100) as usize] = b'x';
            key
        })
        .collect();
    vec![
        (KeyFormat::Ipv4, flood(seed)),
        (KeyFormat::Ssn, flood(seed ^ 1)),
        (KeyFormat::Ints, drift),
    ]
}

/// Loads a plan performs: words for the xor/pext families, 16-byte
/// blocks for Aes.
fn load_count(plan: &Plan) -> usize {
    match plan {
        Plan::FixedWords { ops, .. } | Plan::VarWords { ops, .. } => ops.len(),
        Plan::FixedBlocks { offsets, .. } | Plan::VarBlocks { offsets, .. } => offsets.len(),
        Plan::StlFallback => 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A cache hit is semantically equal to a fresh search, for any
    /// random format and any family — and re-probing never mutates the
    /// memoized plan.
    #[test]
    fn cache_hit_equals_fresh_search(seed in any::<u64>()) {
        let cache = PlanCache::new(Family::ALL.len());
        let mut rng = SplitMix64::new(seed);
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        for family in Family::ALL {
            let fresh = synthesize(&pattern, family);
            prop_assert!(
                cache.lookup(&pattern, family).is_none(),
                "{}: cold cache must miss",
                family
            );
            cache.insert(&pattern, family, fresh.clone());
            for probe in 0..2 {
                let hit = cache.lookup(&pattern, family);
                prop_assert_eq!(
                    hit.as_ref().map(plan_to_string),
                    Some(plan_to_string(&fresh)),
                    "{} probe {}: memoized plan diverged",
                    family,
                    probe
                );
            }
        }
        prop_assert_eq!(cache.misses(), Family::ALL.len() as u64);
        prop_assert_eq!(cache.hits(), 2 * Family::ALL.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Resynthesis over a reservoir filled by a bucket flood or by
    /// one-digit drift widens the pattern, and synthesis of the widened
    /// pattern is one greedy pass: the plan validates and needs at most
    /// ⌈L/8⌉ word loads (⌈L/16⌉ blocks for Aes), L the widened maximum
    /// length. The guard then installs it.
    #[test]
    fn attacked_reservoirs_resynthesize_in_linear_loads(seed in any::<u64>()) {
        for (format, off_format) in attacked_reservoirs(seed) {
            let base = Regex::compile(&format.regex()).expect("paper formats compile");
            let in_format = KeySampler::new(format, Distribution::Uniform, seed).pool(64);
            for family in Family::ALL {
                let mut guarded = GuardedHash::from_pattern(&base, family, CityHash::new());
                for key in &in_format {
                    let _ = guarded.hash_bytes(key.as_bytes());
                }
                for key in &off_format {
                    let _ = guarded.hash_bytes(key);
                }
                let request = guarded.resynth_request().expect("off-format keys were sampled");
                let plan = synthesize(&request.widened, family);
                prop_assert_eq!(validate_plan(&plan), Ok(()));
                prop_assert_eq!(validate_plan_for(&plan, &request.widened, family), Ok(()));
                let width = if family == Family::Aes { 16 } else { 8 };
                let bound = request.widened.max_len().div_ceil(width);
                prop_assert!(
                    load_count(&plan) <= bound,
                    "{} {}: {} loads over a {}-byte widened pattern",
                    format.name(),
                    family,
                    load_count(&plan),
                    request.widened.max_len()
                );
                prop_assert!(guarded.resynthesize().is_applied());
                for key in &off_format {
                    prop_assert!(guarded.guard().matches(key), "widened guard covers the reservoir");
                }
            }
        }
    }
}
