//! Property-based tests for the plan cache: over seeded random formats,
//! a [`PlanCache`] hit must be indistinguishable from a fresh search.

use proptest::prelude::*;
use sepe_core::cache::PlanCache;
use sepe_core::plan_io::plan_to_string;
use sepe_core::synth::{synthesize, Family};
use sepe_keygen::SplitMix64;
use sepe_verify::formats::RandomFormat;

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
