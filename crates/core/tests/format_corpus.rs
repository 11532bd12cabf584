//! A corpus of real-world key formats, each pushed through the full
//! pipeline: examples → inference → rendering → re-parsing → synthesis →
//! hashing. Broad coverage that the machinery holds up beyond the paper's
//! eight formats.

use sepe_core::hash::{ByteHash, SynthesizedHash};
use sepe_core::infer::infer_pattern;
use sepe_core::plan_io::plan_to_string;
use sepe_core::regex::render::render;
use sepe_core::regex::Regex;
use sepe_core::synth::{synthesize, synthesize_unchecked, Family};

struct FormatCase {
    name: &'static str,
    /// Example keys that exercise every varying quad.
    examples: &'static [&'static [u8]],
    /// Additional keys that must match the inferred format.
    members: &'static [&'static [u8]],
    /// Keys that must NOT match (wrong shape/length).
    non_members: &'static [&'static [u8]],
}

const CORPUS: &[FormatCase] = &[
    FormatCase {
        name: "iso8601-date",
        // All-0s / all-5s / all-9s digits: every digit quad exercised
        // (b"2000-01-01"-style examples leave the day's low pair constant
        // and reject dates like -06 — the trap `keybuilder --report` flags).
        examples: &[b"2000-00-00", b"2555-55-55", b"2999-99-99"],
        members: &[b"2026-07-06", b"2199-11-30"],
        non_members: &[b"2026/07/06", b"26-07-06"],
    },
    FormatCase {
        name: "license-plate-eu",
        examples: &[b"AA-000-AA", b"ZZ-555-ZZ", b"MK-999-QX"],
        members: &[b"AB-123-CD"],
        non_members: &[b"AB-123-C", b"AB1-23-CD"],
    },
    FormatCase {
        name: "isbn13",
        examples: &[
            b"978-0-000-00000-0",
            b"979-5-555-55555-5",
            b"978-9-999-99999-9",
        ],
        members: &[b"978-0-306-40615-7"],
        non_members: &[b"978 0 306 40615 7", b"9780306406157"],
    },
    FormatCase {
        name: "credit-card-grouped",
        examples: &[
            b"0000 0000 0000 0000",
            b"5555 5555 5555 5555",
            b"9999 9999 9999 9999",
        ],
        members: &[b"4242 4242 4242 4242"],
        non_members: &[b"4242-4242-4242-4242", b"4242424242424242"],
    },
    FormatCase {
        name: "hex-color",
        examples: &[b"#000000", b"#555555", b"#aaaaaa", b"#ffffff", b"#999999"],
        members: &[b"#1a2b3c"],
        non_members: &[b"1a2b3c!", b"#1a2b3"],
    },
    FormatCase {
        name: "semver-padded",
        examples: &[b"v00.00.00", b"v55.55.55", b"v99.19.28"],
        members: &[b"v01.12.33"],
        non_members: &[b"v1.12.33", b"01.12.33x"],
    },
    FormatCase {
        name: "flight-number",
        examples: &[b"AA0000", b"ZU5555", b"QM1984"],
        members: &[b"BA0284"],
        non_members: &[b"B0284a", b"BA028"],
    },
    FormatCase {
        name: "iban-de",
        examples: &[
            b"DE00 0000 0000 0000 0000 00",
            b"DE55 5555 5555 5555 5555 55",
            b"DE99 1928 3746 5091 8273 64",
        ],
        members: &[b"DE44 5001 0517 5407 3249 31"],
        non_members: &[b"FR44 5001 0517 5407 3249 31", b"DE44500105175407324931"],
    },
];

#[test]
fn corpus_round_trips_and_hashes() {
    for case in CORPUS {
        let pattern = infer_pattern(case.examples.iter().copied())
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));

        // Membership as declared.
        for m in case.examples.iter().chain(case.members) {
            assert!(pattern.matches(m), "{}: should accept {:?}", case.name, m);
        }
        for n in case.non_members {
            assert!(!pattern.matches(n), "{}: should reject {:?}", case.name, n);
        }

        // Render → parse round-trip preserves the lattice pattern.
        let rendered = render(&pattern);
        let reparsed = Regex::compile(&rendered)
            .unwrap_or_else(|e| panic!("{}: unparseable {rendered:?}: {e}", case.name));
        assert_eq!(reparsed, pattern, "{}: {rendered:?}", case.name);

        // Every family hashes members deterministically and separates the
        // sample (no trivial collisions on these tiny sets).
        for family in Family::ALL {
            let hash = SynthesizedHash::from_pattern(&pattern, family);
            let mut hashes: Vec<u64> = case
                .examples
                .iter()
                .chain(case.members)
                .map(|k| hash.hash_bytes(k))
                .collect();
            let n = hashes.len();
            hashes.sort_unstable();
            hashes.dedup();
            assert_eq!(hashes.len(), n, "{} {family}: sample collided", case.name);
        }
    }
}

#[test]
fn corpus_pext_bijections_where_bits_allow() {
    // Formats with <= 64 variable bits get the bijection guarantee.
    for case in CORPUS {
        let pattern = infer_pattern(case.examples.iter().copied()).expect("non-empty");
        let plan = sepe_core::synth::synthesize(&pattern, Family::Pext);
        if pattern.is_fixed_len() && pattern.max_len() >= 8 && pattern.variable_bits() <= 64 {
            assert!(
                plan.bijection_bits().is_some(),
                "{}: {} variable bits should admit a bijection",
                case.name,
                pattern.variable_bits()
            );
        }
    }
}

#[test]
fn corpus_constant_separators_are_skipped_by_offxor() {
    // Every corpus format has constant separators the OffXor plan must not
    // waste loads on: total loaded bytes stay within len (no more loads
    // than ceil(len/8)).
    for case in CORPUS {
        let pattern = infer_pattern(case.examples.iter().copied()).expect("non-empty");
        if !pattern.is_fixed_len() || pattern.max_len() < 8 {
            continue;
        }
        let plan = sepe_core::synth::synthesize(&pattern, Family::OffXor);
        let sepe_core::synth::Plan::FixedWords { ops, len } = plan else {
            panic!("{}: expected fixed plan", case.name);
        };
        assert!(
            ops.len() <= len.div_ceil(8),
            "{}: {} loads for {len} bytes",
            case.name,
            ops.len()
        );
    }
}

/// Pins the canonical bytes of every corpus plan, all four families, plus
/// the force-synthesized RQ7 four-digit Pext plan: any change to synthesis
/// that moves a single plan byte fails here.
#[test]
fn corpus_plans_match_golden() {
    let mut actual = String::new();
    for case in CORPUS {
        let pattern = infer_pattern(case.examples.iter().copied()).expect("non-empty");
        for family in Family::ALL {
            let plan = plan_to_string(&synthesize(&pattern, family));
            actual.push_str(&format!("{}\t{family}\t{plan}\n", case.name));
        }
    }
    let four_digits = Regex::compile(r"\d{4}").expect("regex compiles");
    let rq7 = plan_to_string(&synthesize_unchecked(&four_digits, Family::Pext));
    actual.push_str(&format!("rq7-four-digits\tPext-unchecked\t{rq7}\n"));
    let golden = include_str!("fixtures/plan_golden.txt");
    for (i, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "plan line {} moved", i + 1);
    }
    assert_eq!(actual.lines().count(), golden.lines().count());
}
