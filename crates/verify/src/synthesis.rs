//! Synthesis checks: every synthesized plan passes the validation a
//! resynthesized plan must pass before it is installed, and a
//! [`PlanCache`] hit is indistinguishable from a fresh search.

use sepe_core::cache::PlanCache;
use sepe_core::pattern::KeyPattern;
use sepe_core::plan_io::{plan_to_string, validate_plan_for};
use sepe_core::synth::{synthesize, Family};

/// Requires the plan of every family for `pattern` to pass
/// [`validate_plan_for`], the check a resynthesized plan must pass before
/// it is installed — a plan that failed it would leave every resynthesis
/// of this format degraded. Returns the number of plans checked.
///
/// # Errors
///
/// Reports the first plan the validation rejects.
pub fn check_plans_fit(name: &str, pattern: &KeyPattern) -> Result<usize, String> {
    for family in Family::ALL {
        let plan = synthesize(pattern, family);
        validate_plan_for(&plan, pattern, family).map_err(|e| {
            format!(
                "{name} {family}: synthesized plan fails install-time validation: {e}\n\
                 plan: {}",
                plan_to_string(&plan)
            )
        })?;
    }
    Ok(Family::ALL.len())
}

/// Feeds a pattern through a [`PlanCache`] and requires the memoized
/// plan to serialize identically to a fresh search, with the
/// hit/miss counters advancing exactly as the probe sequence dictates.
/// Returns the number of verified cache hits.
///
/// # Errors
///
/// Reports an unexpected cold-cache hit, a memoized plan that diverged
/// from a fresh search, or counters that disagree with the probe
/// sequence.
pub fn check_cache_equivalence(
    name: &str,
    pattern: &KeyPattern,
    cache: &PlanCache,
) -> Result<usize, String> {
    let mut hits = 0usize;
    for family in Family::ALL {
        let fresh = synthesize(pattern, family);
        if let Some(stale) = cache.lookup(pattern, family) {
            // A prior pattern with the same fingerprint would be a
            // fingerprint collision — surface it instead of masking it.
            if plan_to_string(&stale) != plan_to_string(&fresh) {
                return Err(format!(
                    "{name} {family}: cold lookup returned a different pattern's plan \
                     (fingerprint collision?)"
                ));
            }
            continue;
        }
        cache.insert(pattern, family, fresh.clone());
        let Some(memoized) = cache.lookup(pattern, family) else {
            return Err(format!("{name} {family}: plan vanished after insert"));
        };
        if plan_to_string(&memoized) != plan_to_string(&fresh) {
            return Err(format!(
                "{name} {family}: memoized plan diverged from a fresh search\n\
                 fresh:    {}\n\
                 memoized: {}",
                plan_to_string(&fresh),
                plan_to_string(&memoized)
            ));
        }
        hits += 1;
    }
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_core::regex::Regex;

    fn pattern(re: &str) -> KeyPattern {
        Regex::compile(re).expect("test regex compiles")
    }

    #[test]
    fn plans_fit_a_deep_and_a_variable_length_pattern() {
        for re in [r"[0-9]{100}", r"[a-z]{8}[0-9]{0,40}"] {
            assert_eq!(check_plans_fit(re, &pattern(re)), Ok(Family::ALL.len()));
        }
    }

    #[test]
    fn cache_round_trip_matches_fresh_search() {
        let cache = PlanCache::new(16);
        let p = pattern(r"[0-9]{20}");
        let hits = check_cache_equivalence("ints20", &p, &cache).expect("cache agrees");
        assert_eq!(hits, Family::ALL.len());
        // A second pass over the same pattern hits the memoized entries.
        let rehits = check_cache_equivalence("ints20", &p, &cache).expect("cache still agrees");
        assert_eq!(rehits, 0, "already memoized");
        assert!(cache.hits() >= Family::ALL.len() as u64);
    }
}
