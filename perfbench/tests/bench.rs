//! The benchmark's own tests, at tiny scale:
//!
//! * each workload prints all six end-to-end metrics with units and a
//!   correct JSON result line;
//! * two traced runs with the same seed give identical count metrics, and
//!   the churn script records every event it is meant to;
//! * traced self times are non-negative and children never exceed their
//!   parent;
//! * `BENCHMARK.json` names exactly the metrics the benchmark prints.

use sepe_perfbench::measure::{COUNT_METRICS, PER_LAYER};
use sepe_perfbench::{run, Config, Scale, Workload};
use std::process::Command;

fn tiny(workload: Workload, seed: u64, trace: bool) -> Config {
    Config {
        workload,
        seed,
        seconds: 1,
        trace,
        scale: Scale::Tiny,
    }
}

#[test]
fn each_workload_prints_six_metrics_with_units() {
    for w in Workload::ALL {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", w.name(), "--seed", "7", "--seconds", "1"])
            .args(["--trace", "0", "--scale", "tiny"])
            .output()
            .expect("the benchmark binary runs");
        assert!(
            out.status.success(),
            "{} exited with {}",
            w.name(),
            out.status
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        for (name, unit) in [
            ("ops_per_s", "1/s"),
            ("op_p50_ns", "ns"),
            ("op_p90_ns", "ns"),
            ("op_p99_ns", "ns"),
            ("setup_s", "s"),
            ("peak_rss_mb", "MiB"),
            ("failed_share", "fraction"),
        ] {
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&format!("metric {name} ")))
                .unwrap_or_else(|| panic!("{}: no {name} line in\n{stdout}", w.name()));
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields[3], unit, "{}: {line}", w.name());
            let value: f64 = fields[2].parse().expect("a number");
            if name == "failed_share" {
                assert_eq!(value, 0.0, "{}: {line}", w.name());
            } else {
                assert!(value > 0.0, "{}: {line}", w.name());
            }
        }
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, "),
            "{}: {last}",
            w.name()
        );
        assert!(last.contains("\"failed\": 0, "), "{}: {last}", w.name());
        for name in [
            "ops_per_s",
            "op_p50_ns",
            "op_p90_ns",
            "setup_s",
            "peak_rss_mb",
        ] {
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{}: {last}",
                w.name()
            );
        }
        for p in stdout.lines().filter(|l| l.starts_with("context ")) {
            assert!(p.contains('='), "{p}");
        }
        for key in [
            "nproc",
            "cpu",
            "avx2",
            "bmi2",
            "aes",
            "obs",
            "seed",
            "ops",
            "chunks",
            "steal_ticks",
        ] {
            assert!(
                stdout.contains(&format!("context {key}=")),
                "{}: no {key} in the run context",
                w.name()
            );
        }
    }
}

#[test]
fn same_seed_gives_identical_counts() {
    for w in Workload::ALL {
        let a = run(&tiny(w, 11, true));
        let b = run(&tiny(w, 11, true));
        assert!(a.correct(), "{}: {:?}", w.name(), a.problems);
        assert!(b.correct(), "{}: {:?}", w.name(), b.problems);
        for name in COUNT_METRICS {
            assert_eq!(
                a.layers.get(name),
                b.layers.get(name),
                "{}: {name} differs between two runs of one seed",
                w.name()
            );
        }
    }
}

#[test]
fn churn_records_every_scripted_event() {
    let r = run(&tiny(Workload::ChurnDriftAttack, 3, true));
    assert!(r.correct(), "{:?}", r.problems);
    for name in [
        "drift.degrades",
        "migration.epochs",
        "resynth.count",
        "resynth.from_cache",
        "attack.escalations",
        "attack.seed_rotations",
        "attack.deescalations",
    ] {
        assert!(
            r.layers.get(name).copied().unwrap_or(0.0) >= 1.0,
            "{name} never happened: {:?}",
            r.layers
        );
    }
}

#[test]
fn traced_spans_nest_and_self_times_are_non_negative() {
    for w in Workload::ALL {
        let r = run(&tiny(w, 5, true));
        assert!(!r.spans.is_empty(), "{}: no spans kept", w.name());
        for s in &r.spans {
            assert!(s.self_ns >= 0, "{}: negative self time {s:?}", w.name());
            if let Some(p) = s.parent {
                let parent = &r.spans[p as usize];
                assert!(
                    parent.start <= s.start && s.end <= parent.end,
                    "{}: child {s:?} outside parent {parent:?}",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let listed: Vec<&str> = doc
        .split("{\"name\": \"")
        .skip(1)
        .filter(|entry| entry.contains("\"why\""))
        .map(|entry| entry.split('"').next().expect("a name"))
        .collect();
    assert!(listed.len() >= 2, "fewer than two workloads: {listed:?}");
    for name in listed {
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
    for name in [
        "ops_per_s",
        "op_p50_ns",
        "op_p90_ns",
        "setup_s",
        "peak_rss_mb",
    ] {
        assert!(doc.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
    for (name, unit) in PER_LAYER {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        doc.matches("\"better\"").count(),
        5 + PER_LAYER.len(),
        "BENCHMARK.json lists metrics the benchmark does not print"
    );
}
