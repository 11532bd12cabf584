//! Plan-bytes golden test for the `sepe-verify --suite synthesis` corpus:
//! the eight paper-evaluated formats plus the ten random formats the suite
//! draws at its default seed and `--formats 100`. Every plan is pinned by
//! its canonical [`plan_to_string`] encoding, so any change to synthesis
//! that moves a single plan byte fails here.

use sepe_core::plan_io::plan_to_string;
use sepe_core::regex::render::render;
use sepe_core::regex::Regex;
use sepe_core::synth::{synthesize, Family};
use sepe_core::KeyPattern;
use sepe_keygen::{KeyFormat, SplitMix64};
use sepe_verify::formats::RandomFormat;

/// The default `--seed` of `sepe-verify` and the synthesis suite's salt.
const SUITE_SEED: u64 = 0x5E9E ^ 0x5717;
/// `(--formats 100 / 10)` random formats, as the suite draws them.
const RANDOM_FORMATS: usize = 10;

fn suite_corpus() -> Vec<(String, KeyPattern)> {
    let mut corpus: Vec<(String, KeyPattern)> = KeyFormat::EVALUATED
        .iter()
        .map(|f| {
            let pattern = Regex::compile(&f.regex()).expect("evaluated formats compile");
            (f.name().to_owned(), pattern)
        })
        .collect();
    let mut rng = SplitMix64::new(SUITE_SEED);
    for i in 0..RANDOM_FORMATS {
        corpus.push((
            format!("random-{i}"),
            RandomFormat::generate(&mut rng).pattern(),
        ));
    }
    corpus
}

#[test]
fn synthesis_suite_plans_match_golden() {
    let corpus = suite_corpus();
    assert_eq!(corpus.len(), 18);
    let mut actual = String::new();
    for (name, pattern) in &corpus {
        for family in Family::ALL {
            let plan = plan_to_string(&synthesize(pattern, family));
            actual.push_str(&format!("{name}\t{family}\t{}\t{plan}\n", render(pattern)));
        }
    }
    let golden = include_str!("fixtures/synthesis_plans.txt");
    for (i, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "plan line {} moved", i + 1);
    }
    assert_eq!(actual.lines().count(), golden.lines().count());
}
