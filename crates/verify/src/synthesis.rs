//! Synthesis checks: a search cancelled mid-flight leaves no poisoned
//! state (the next search over the same pattern still returns the exact
//! plan), and a [`PlanCache`] hit is indistinguishable from a fresh
//! search.

use sepe_core::cache::PlanCache;
use sepe_core::pattern::KeyPattern;
use sepe_core::plan_io::plan_to_string;
use sepe_core::supervisor::CancelToken;
use sepe_core::synth::{synthesize, synthesize_with_cancel, Family};
use sepe_core::SynthError;

/// Cancels searches both before entry and from a racing thread
/// mid-flight, then requires a fresh search over the same pattern to
/// still produce the exact plan — an aborted search must leave no
/// poisoned state behind. Returns the number of cancelled (or
/// raced) runs.
///
/// # Errors
///
/// Reports a pre-cancelled search that did not return
/// [`SynthError::Cancelled`], a raced search that returned any error
/// other than `Cancelled`, or a post-abort search whose plan diverged.
pub fn check_cancel_no_poison(name: &str, pattern: &KeyPattern) -> Result<usize, String> {
    let mut aborted = 0usize;
    for family in Family::ALL {
        let expected = plan_to_string(&synthesize(pattern, family));

        // Cancellation observed at entry: typed error, nothing else.
        let token = CancelToken::unbounded();
        token.cancel();
        match synthesize_with_cancel(pattern, family, &token) {
            Err(SynthError::Cancelled) => aborted += 1,
            Ok(_) => {
                return Err(format!(
                    "{name} {family}: pre-cancelled search returned a plan"
                ))
            }
            Err(e) => {
                return Err(format!(
                    "{name} {family}: pre-cancelled search returned {e} instead of Cancelled"
                ))
            }
        }

        // A racing cancel: the search either finishes first (and must
        // match the uncancelled plan) or observes the cancel (and must
        // report it as the typed error). Either way the *next* search
        // must be pristine.
        let token = CancelToken::unbounded();
        let racer = {
            let token = token.clone();
            std::thread::spawn(move || token.cancel())
        };
        let raced = synthesize_with_cancel(pattern, family, &token);
        racer.join().map_err(|_| "cancel racer panicked")?;
        match raced {
            Ok((plan, _)) => {
                if plan_to_string(&plan) != expected {
                    return Err(format!(
                        "{name} {family}: race-completed plan diverged from a fresh search"
                    ));
                }
            }
            Err(SynthError::Cancelled) => aborted += 1,
            Err(e) => {
                return Err(format!(
                    "{name} {family}: raced search failed with {e} instead of Cancelled"
                ))
            }
        }

        // No poisoned state: a fresh search with a fresh token still
        // returns the exact plan.
        let token = CancelToken::unbounded();
        let (fresh, _) = synthesize_with_cancel(pattern, family, &token)
            .map_err(|e| format!("{name} {family}: post-abort search failed: {e}"))?;
        if plan_to_string(&fresh) != expected {
            return Err(format!(
                "{name} {family}: post-abort search diverged from an uncancelled one"
            ));
        }
    }
    Ok(aborted)
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
    fn cancel_checks_pass_for_a_deep_pattern() {
        let p = pattern(r"[0-9]{100}");
        let aborted = check_cancel_no_poison("ints", &p).expect("no poisoned state");
        // The pre-cancelled run always aborts; the raced one may or may
        // not, so the floor is one abort per family.
        assert!(aborted >= Family::ALL.len());
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
