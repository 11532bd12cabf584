//! End-to-end tests of the command-line binaries, including the composed
//! `keysynth "$(keybuilder < keys)"` workflow of Figure 5a.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn keybuilder() -> Command {
    Command::new(env!("CARGO_BIN_EXE_keybuilder"))
}

fn keysynth() -> Command {
    Command::new(env!("CARGO_BIN_EXE_keysynth"))
}

fn sepe_repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sepe-repro"))
}

fn run_with_stdin(mut cmd: Command, input: &str) -> (String, String, bool) {
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // A child that rejects its arguments exits before reading stdin; the
    // resulting BrokenPipe is expected, not a test failure.
    match child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(input.as_bytes())
    {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(e) => panic!("write stdin: {e}"),
    }
    let out = child.wait_with_output().expect("binary finishes");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn keybuilder_infers_ssn_regex() {
    let (stdout, _, ok) = run_with_stdin(keybuilder(), "000-00-0000\n555-55-5555\n");
    assert!(ok);
    assert_eq!(stdout.trim(), r"[0-9]{3}-[0-9]{2}-[0-9]{4}");
}

#[test]
fn keybuilder_rejects_empty_input() {
    let (_, stderr, ok) = run_with_stdin(keybuilder(), "");
    assert!(!ok);
    assert!(stderr.contains("zero example keys"), "{stderr}");
}

#[test]
fn keysynth_emits_all_four_families_by_default() {
    let out = keysynth()
        .arg(r"(([0-9]{3})\.){3}[0-9]{3}")
        .output()
        .expect("keysynth runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for family in ["Naive", "OffXor", "Aes", "Pext"] {
        assert!(
            stdout.contains(&format!("Synthesized{family}Hash")),
            "{family} missing"
        );
    }
}

#[test]
fn keysynth_rust_output_for_one_family() {
    let out = keysynth()
        .args([
            "--family", "offxor", "--lang", "rust", "--name", "my_hash", r"\d{16}",
        ])
        .output()
        .expect("keysynth runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pub fn my_hash(key: &[u8]) -> u64"));
    assert!(!stdout.contains("Pext"));
}

#[test]
fn keysynth_reports_regex_errors() {
    let out = keysynth().arg("a|b").output().expect("keysynth runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("alternation"), "{stderr}");
}

#[test]
fn keysynth_plan_round_trips_through_a_file() {
    let out = keysynth()
        .args(["--family", "pext", "--emit-plan", r"\d{16}"])
        .output()
        .expect("keysynth runs");
    assert!(out.status.success());
    let bundle = String::from_utf8_lossy(&out.stdout);
    assert!(bundle.contains("\"family\""), "{bundle}");

    let path = std::env::temp_dir().join(format!("keysynth-plan-{}.json", std::process::id()));
    std::fs::write(&path, bundle.trim()).expect("plan written");
    let out = keysynth()
        .args(["--lang", "rust", "--name", "replayed", "--plan"])
        .arg(&path)
        .output()
        .expect("keysynth runs");
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("pub fn replayed(key: &[u8]) -> u64"),
        "{stdout}"
    );
}

#[test]
fn keysynth_reports_unreadable_plan_files() {
    let out = keysynth()
        .args(["--plan", "/nonexistent/plan.json"])
        .output()
        .expect("keysynth runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read plan"), "{stderr}");
}

#[test]
fn keysynth_reports_malformed_plan_files() {
    let path = std::env::temp_dir().join(format!("keysynth-bad-plan-{}.json", std::process::id()));
    std::fs::write(&path, "{\"pattern\": 42}").expect("file written");
    let out = keysynth()
        .args(["--plan"])
        .arg(&path)
        .output()
        .expect("keysynth runs");
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not a synthesis bundle"), "{stderr}");
}

#[test]
fn figure_5a_pipeline_composes() {
    // keysynth "$(keybuilder < keys)"
    let (regex, _, ok) = run_with_stdin(keybuilder(), "000.000.000.000\n555.555.555.555\n");
    assert!(ok);
    let out = keysynth()
        .args(["--family", "pext", regex.trim()])
        .output()
        .expect("keysynth runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("_pext_u64"), "{stdout}");
}

#[test]
fn keybuilder_report_flags_thin_examples() {
    let mut cmd = keybuilder();
    cmd.arg("--report");
    let (stdout, stderr, ok) = run_with_stdin(cmd, "101\n121\n");
    assert!(ok);
    assert!(!stdout.trim().is_empty());
    assert!(stderr.contains("under-exercised"), "{stderr}");
}

#[test]
fn keybuilder_report_praises_good_examples() {
    let mut cmd = keybuilder();
    cmd.arg("--report");
    let (_, stderr, ok) =
        run_with_stdin(cmd, "000-00-0000\n555-55-5555\n912-83-1234\n384-67-6789\n");
    assert!(ok);
    assert!(stderr.contains("well exercised"), "{stderr}");
}

#[test]
fn sepe_repro_out_writes_artifact_files() {
    let dir = std::env::temp_dir().join(format!("sepe-repro-out-{}", std::process::id()));
    let out = sepe_repro()
        .args(["--scale", "smoke", "--out"])
        .arg(&dir)
        .arg("gradual")
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(dir.join("gradual.txt")).expect("artifact written");
    assert!(written.contains("Gradual specialization"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn keybench_reports_all_families_on_stdin_keys() {
    let keys: String = (0..256)
        .map(|i| format!("{:03}-{:02}-{:04}\n", i % 999, i % 97, i))
        .collect();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_keybench"));
    cmd.args(["--iterations", "2000"]);
    let (stdout, stderr, ok) = run_with_stdin(cmd, &keys);
    assert!(ok, "{stderr}");
    for row in [
        "sepe/Naive",
        "sepe/OffXor",
        "sepe/Aes",
        "sepe/Pext",
        "baseline/STL",
    ] {
        assert!(stdout.contains(row), "{row} missing from:\n{stdout}");
    }
    assert!(stdout.contains("Pext bijection possible"), "{stdout}");
}

#[test]
fn keybench_guard_reports_guarded_rows_and_drift_transition() {
    let keys: String = (0..256)
        .map(|i| format!("{:03}-{:02}-{:04}\n", i % 999, i % 97, i))
        .collect();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_keybench"));
    cmd.args([
        "--iterations",
        "2000",
        "--guard",
        "--drift-threshold",
        "0.1",
    ]);
    let (stdout, stderr, ok) = run_with_stdin(cmd, &keys);
    assert!(ok, "{stderr}");
    for row in ["sepe/Naive+guard", "sepe/OffXor+guard", "sepe/Pext+guard"] {
        assert!(stdout.contains(row), "{row} missing from:\n{stdout}");
    }
    assert!(stdout.contains("guard drift:"), "{stdout}");
    assert!(
        stdout.contains("degraded to the fallback hasher"),
        "{stdout}"
    );
    assert!(stdout.contains("mode Degraded"), "{stdout}");
}

#[test]
fn sepe_repro_guard_artifact_shows_the_state_machine() {
    let out = sepe_repro()
        .args(["--scale", "smoke", "--drift-threshold", "0.2", "guard"])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Format-drift degradation"), "{stdout}");
    assert!(stdout.contains("Degraded"), "{stdout}");
}

#[test]
fn keybench_rejects_empty_input() {
    let (_, stderr, ok) = run_with_stdin(Command::new(env!("CARGO_BIN_EXE_keybench")), "\n\n");
    assert!(!ok);
    assert!(stderr.contains("no keys"), "{stderr}");
}

#[test]
fn sepe_repro_lists_usage_and_rejects_unknowns() {
    let out = sepe_repro().arg("--help").output().expect("repro runs");
    assert!(out.status.success());
    let usage = String::from_utf8_lossy(&out.stderr);
    assert!(usage.contains("table1"));

    let out = sepe_repro()
        .args(["--scale", "smoke", "nosuch"])
        .output()
        .expect("repro runs");
    assert!(!out.status.success());
}

#[test]
fn sepe_repro_smoke_gradual_runs() {
    let out = sepe_repro()
        .args(["--scale", "smoke", "gradual"])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Gradual specialization"));
    assert!(stdout.contains("OffXor"));
}

#[test]
fn keybench_batch_emits_valid_keybench_json() {
    let keys: String = (0..256)
        .map(|i| format!("{:03}-{:02}-{:04}\n", i % 999, i % 97, i))
        .collect();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_keybench"));
    cmd.args(["--iterations", "2000", "--batch", "8"]);
    let (stdout, stderr, ok) = run_with_stdin(cmd, &keys);
    assert!(ok, "{stderr}");

    let doc = sepe_core::plan_io::Json::parse(&stdout).expect("stdout is pure JSON");
    assert_eq!(doc.get("schema").as_str(), Some("sepe-keybench/v1"));
    assert_eq!(doc.get("batch_width").as_u64(), Some(8));
    assert_eq!(doc.get("keys").as_u64(), Some(256));
    let records = doc.get("records").as_arr().expect("records array");
    // Every family, at widths 1 and 8.
    assert_eq!(records.len(), 4 * 2);
    for rec in records {
        let family = rec.get("family").as_str().expect("family string");
        assert!(
            ["naive", "offxor", "aes", "pext"].contains(&family),
            "unexpected family {family}"
        );
        let width = rec.get("width").as_u64().expect("width number");
        assert!(width == 1 || width == 8, "unexpected width {width}");
        for field in ["ns_per_key", "throughput_mkeys"] {
            let v = match rec.get(field) {
                sepe_core::plan_io::Json::Num(n) => *n,
                other => panic!("{field} is not a number: {other:?}"),
            };
            assert!(v > 0.0 && v.is_finite(), "{field} = {v} not positive");
        }
    }
}

#[test]
fn keybench_batch_rejects_width_below_two() {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_keybench"));
    cmd.args(["--batch", "1"]);
    let (_, stderr, ok) = run_with_stdin(cmd, "000-00-0000\n");
    assert!(!ok);
    assert!(stderr.contains("at least 2"), "{stderr}");
}

#[test]
fn sepe_repro_bench_json_writes_a_dated_parseable_baseline() {
    let dir = std::env::temp_dir().join(format!("sepe-bench-json-{}", std::process::id()));
    let out = sepe_repro()
        .args(["--scale", "smoke", "--out"])
        .arg(&dir)
        .arg("bench-json")
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let bench_file = std::fs::read_dir(&dir)
        .expect("out dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .expect("a BENCH_<date>.json was written");
    let text = std::fs::read_to_string(&bench_file).expect("baseline readable");
    let doc = sepe_core::plan_io::Json::parse(&text).expect("baseline is valid JSON");

    // Golden schema fixture: the emitted document must carry exactly the
    // fields the fixture pins, so downstream consumers can rely on them.
    let fixture = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/bench_schema.json"
    ))
    .expect("fixture readable");
    let schema = sepe_core::plan_io::Json::parse(&fixture).expect("fixture is valid JSON");

    assert_eq!(doc.get("schema").as_str(), schema.get("schema").as_str());
    if let sepe_core::plan_io::Json::Obj(map) = &doc {
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        let want: Vec<&str> = schema
            .get("top_level")
            .as_arr()
            .expect("top_level list")
            .iter()
            .filter_map(|j| j.as_str())
            .collect();
        assert_eq!(keys, want, "top-level fields drifted from the fixture");
    } else {
        panic!("baseline is not a JSON object");
    }
    let date = doc.get("date").as_str().expect("date string");
    assert_eq!(date.len(), 10, "date {date} is not YYYY-MM-DD");
    let record_fields: Vec<&str> = schema
        .get("record_fields")
        .as_arr()
        .expect("record_fields list")
        .iter()
        .filter_map(|j| j.as_str())
        .collect();
    let records = doc.get("records").as_arr().expect("records array");
    assert!(!records.is_empty(), "baseline has no records");
    for rec in records {
        if let sepe_core::plan_io::Json::Obj(map) = rec {
            let keys: Vec<&str> = map.keys().map(String::as_str).collect();
            assert_eq!(
                keys, record_fields,
                "record fields drifted from the fixture"
            );
        } else {
            panic!("record is not a JSON object");
        }
        let ns = rec.get("ns_per_key");
        let tp = rec.get("throughput_mkeys");
        match (ns, tp) {
            (sepe_core::plan_io::Json::Num(ns), sepe_core::plan_io::Json::Num(tp)) => {
                assert!(*ns > 0.0 && ns.is_finite(), "ns_per_key {ns}");
                assert!(*tp > 0.0 && tp.is_finite(), "throughput {tp}");
            }
            other => panic!("non-numeric measurements: {other:?}"),
        }
    }

    // The migration scenario rides in the same document: three phases per
    // format, fields pinned by the fixture, all measurements positive.
    let migration_fields: Vec<&str> = schema
        .get("migration_fields")
        .as_arr()
        .expect("migration_fields list")
        .iter()
        .filter_map(|j| j.as_str())
        .collect();
    let migration = doc.get("migration").as_arr().expect("migration array");
    assert!(!migration.is_empty(), "baseline has no migration rows");
    assert_eq!(
        migration.len() % 3,
        0,
        "phases come in steady/migrating/drained triples"
    );
    for row in migration {
        if let sepe_core::plan_io::Json::Obj(map) = row {
            let keys: Vec<&str> = map.keys().map(String::as_str).collect();
            assert_eq!(
                keys, migration_fields,
                "migration fields drifted from the fixture"
            );
        } else {
            panic!("migration row is not a JSON object");
        }
        let phase = row.get("phase").as_str().expect("phase string");
        assert!(
            ["steady", "migrating", "drained"].contains(&phase),
            "unknown phase {phase}"
        );
        match row.get("ns_per_op") {
            sepe_core::plan_io::Json::Num(ns) => {
                assert!(*ns > 0.0 && ns.is_finite(), "ns_per_op {ns}");
            }
            other => panic!("non-numeric ns_per_op: {other:?}"),
        }
    }

    // The concurrency scenario rides in the same document: one row per
    // format x thread count, fields pinned by the fixture.
    let concurrency_fields: Vec<&str> = schema
        .get("concurrency_fields")
        .as_arr()
        .expect("concurrency_fields list")
        .iter()
        .filter_map(|j| j.as_str())
        .collect();
    let concurrency = doc.get("concurrency").as_arr().expect("concurrency array");
    assert!(!concurrency.is_empty(), "baseline has no concurrency rows");
    for row in concurrency {
        if let sepe_core::plan_io::Json::Obj(map) = row {
            let keys: Vec<&str> = map.keys().map(String::as_str).collect();
            assert_eq!(
                keys, concurrency_fields,
                "concurrency fields drifted from the fixture"
            );
        } else {
            panic!("concurrency row is not a JSON object");
        }
        match (row.get("threads"), row.get("ns_per_op"), row.get("speedup")) {
            (
                sepe_core::plan_io::Json::Num(threads),
                sepe_core::plan_io::Json::Num(ns),
                sepe_core::plan_io::Json::Num(speedup),
            ) => {
                assert!(*threads >= 1.0, "threads {threads}");
                assert!(*ns > 0.0 && ns.is_finite(), "ns_per_op {ns}");
                assert!(*speedup > 0.0 && speedup.is_finite(), "speedup {speedup}");
            }
            other => panic!("non-numeric concurrency measurements: {other:?}"),
        }
    }

    // The adversarial scenario rides in the same document: a benign, an
    // attack, and an escalated row per format, fields pinned by the
    // fixture. The attack row must show the flood landing (long chain),
    // the escalated row must show the keyed rung breaking it apart and
    // carry a positive escalation latency.
    let adversarial_fields: Vec<&str> = schema
        .get("adversarial_fields")
        .as_arr()
        .expect("adversarial_fields list")
        .iter()
        .filter_map(|j| j.as_str())
        .collect();
    let adversarial = doc.get("adversarial").as_arr().expect("adversarial array");
    assert!(!adversarial.is_empty(), "baseline has no adversarial rows");
    assert_eq!(
        adversarial.len() % 3,
        0,
        "phases come in benign/attack/escalated triples"
    );
    for row in adversarial {
        if let sepe_core::plan_io::Json::Obj(map) = row {
            let keys: Vec<&str> = map.keys().map(String::as_str).collect();
            assert_eq!(
                keys, adversarial_fields,
                "adversarial fields drifted from the fixture"
            );
        } else {
            panic!("adversarial row is not a JSON object");
        }
        let phase = row.get("phase").as_str().expect("phase string");
        assert!(
            ["benign", "attack", "escalated"].contains(&phase),
            "unknown phase {phase}"
        );
        match (
            row.get("ns_per_op"),
            row.get("max_chain"),
            row.get("escalation_us"),
        ) {
            (
                sepe_core::plan_io::Json::Num(ns),
                sepe_core::plan_io::Json::Num(chain),
                sepe_core::plan_io::Json::Num(esc),
            ) => {
                assert!(*ns > 0.0 && ns.is_finite(), "ns_per_op {ns}");
                assert!(*chain >= 1.0, "max_chain {chain}");
                match phase {
                    "attack" => assert!(*chain >= 64.0, "flood chain {chain}"),
                    "escalated" => assert!(*esc > 0.0, "escalation_us {esc}"),
                    _ => assert_eq!(*esc, 0.0, "benign rows carry no latency"),
                }
            }
            other => panic!("non-numeric adversarial measurements: {other:?}"),
        }
    }

    // The observability snapshot rides in the same document: a complete
    // `sepe-metrics/v1` subtree that must survive the strict typed parser.
    let metrics_schema = schema
        .get("metrics_schema")
        .as_str()
        .expect("metrics_schema string");
    let metrics = doc.get("metrics");
    assert_eq!(metrics.get("schema").as_str(), Some(metrics_schema));
    let snap = sepe_obs::Snapshot::parse(&metrics.to_string())
        .expect("metrics section is a valid sepe-metrics/v1 snapshot");
    assert!(
        snap.counter_family_total("guard_in_format") > 0,
        "the seeded workload hashed keys through the guard: {snap:?}"
    );
    assert_eq!(
        snap.counter_family_total("table_epochs_opened"),
        snap.counter_family_total("table_epochs_finished"),
        "the quiescent workload drains every epoch it opens"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The four corrupted-plan fixtures, each with the typed error its
/// corruption must produce. Paths are relative to the crate root.
const CORRUPTED_PLAN_FIXTURES: [(&str, &str); 4] = [
    ("plan_truncated.json", "malformed plan"),
    (
        "plan_wrong_version.json",
        "plan schema version 1 is not supported",
    ),
    ("plan_bad_checksum.json", "plan checksum mismatch"),
    ("plan_oob_offset.json", "reads past the 11-byte key"),
];

fn fixture_path(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn keysynth_rejects_every_corrupted_plan_fixture_with_a_typed_error() {
    for (name, needle) in CORRUPTED_PLAN_FIXTURES {
        let out = keysynth()
            .args(["--plan", &fixture_path(name), "--lang", "rust"])
            .output()
            .expect("keysynth runs");
        assert!(!out.status.success(), "{name}: corrupted plan was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "{name}: expected {needle:?} in stderr, got: {stderr}"
        );
        // Typed rejection, not a crash: the binary exits via its error
        // path, so stdout carries no generated code.
        assert!(
            !stderr.contains("panicked"),
            "{name}: the binary panicked: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name}: code was emitted anyway");
    }
}

#[test]
fn sepe_repro_guard_rejects_every_corrupted_plan_fixture() {
    for (name, needle) in CORRUPTED_PLAN_FIXTURES {
        let out = sepe_repro()
            .args(["--scale", "smoke", "--plan", &fixture_path(name), "guard"])
            .output()
            .expect("repro runs");
        assert!(!out.status.success(), "{name}: corrupted plan was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("is not a usable synthesis bundle") && stderr.contains(needle),
            "{name}: expected typed rejection with {needle:?}, got: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{name}: the binary panicked: {stderr}"
        );
        // Rejected before any artifact ran: no guard table on stdout.
        assert!(out.stdout.is_empty(), "{name}: artifact ran anyway");
    }
}

#[test]
fn sepe_repro_guard_drives_a_valid_loaded_plan() {
    // Emit a pristine bundle, then feed it back through the guard artifact:
    // the loaded plan gets its own row in the drift table.
    let out = keysynth()
        .args(["--family", "offxor", "--emit-plan", r"\d{3}-\d{2}-\d{4}"])
        .output()
        .expect("keysynth runs");
    assert!(out.status.success());
    let dir = std::env::temp_dir().join(format!("sepe-plan-guard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let plan = dir.join("plan.json");
    std::fs::write(&plan, &out.stdout).expect("plan written");

    let out = sepe_repro()
        .args(["--scale", "smoke", "--plan"])
        .arg(&plan)
        .arg("guard")
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = stdout
        .lines()
        .find(|l| l.starts_with("plan/OffXor"))
        .unwrap_or_else(|| panic!("no plan row in:\n{stdout}"));
    assert!(
        row.contains("Degraded"),
        "loaded plan never degraded: {row}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn keybench_metrics_emits_a_deterministic_parseable_snapshot() {
    let keys: String = (0..128)
        .map(|i| format!("{:03}-{:02}-{:04}\n", i % 999, i % 97, i))
        .collect();
    let run = || {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_keybench"));
        cmd.args(["--metrics", "--iterations", "2000"]);
        let (stdout, stderr, ok) = run_with_stdin(cmd, &keys);
        assert!(ok, "{stderr}");
        stdout
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same keys, same seeds, same snapshot bytes");
    let snap = sepe_obs::Snapshot::parse(first.trim_end()).expect("stdout is a valid snapshot");
    assert_eq!(
        snap.counter("table_epochs_opened"),
        Some(1),
        "the workload degrades exactly once: {snap:?}"
    );
    assert_eq!(
        snap.counter("table_epochs_finished"),
        Some(1),
        "the drain loop retires the epoch before the snapshot: {snap:?}"
    );
    assert_eq!(
        snap.counter("table_drain_ops"),
        Some(128),
        "every resident entry moves exactly once: {snap:?}"
    );
    assert!(snap.counter("guard_in_format").unwrap_or(0) > 0, "{snap:?}");
    assert!(
        snap.histograms.contains_key("table_probe_len"),
        "probe lengths recorded: {snap:?}"
    );
}

#[test]
fn sepe_repro_metrics_artifact_is_byte_identical_across_runs() {
    let run = || {
        let out = sepe_repro()
            .args(["--scale", "smoke", "metrics"])
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "snapshot export is deterministic");
    let snap = sepe_obs::Snapshot::parse(first.trim_end()).expect("artifact is a valid snapshot");
    assert_eq!(
        snap.counter_family_total("table_epochs_opened"),
        snap.counter_family_total("table_epochs_finished"),
        "{snap:?}"
    );
}

/// The corrupted-snapshot fixtures, each with the typed error its
/// corruption must produce from `--check-metrics`.
const CORRUPTED_METRICS_FIXTURES: [(&str, &str); 2] = [
    ("metrics_wrong_schema.json", "is not \"sepe-metrics/v1\""),
    (
        "metrics_bad_bucket_sum.json",
        "bucket counts sum to 2 but count claims 3",
    ),
];

#[test]
fn sepe_repro_check_metrics_validates_and_rejects() {
    // A freshly emitted snapshot round-trips through the checker.
    let out = sepe_repro()
        .args(["--scale", "smoke", "metrics"])
        .output()
        .expect("repro runs");
    assert!(out.status.success());
    let dir = std::env::temp_dir().join(format!("sepe-check-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("snapshot.json");
    std::fs::write(&path, &out.stdout).expect("snapshot written");
    let out = sepe_repro()
        .arg("--check-metrics")
        .arg(&path)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("valid sepe-metrics/v1 snapshot"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Every corruption mode is a typed rejection and a nonzero exit.
    for (name, needle) in CORRUPTED_METRICS_FIXTURES {
        let out = sepe_repro()
            .args(["--check-metrics", &fixture_path(name)])
            .output()
            .expect("repro runs");
        assert!(
            !out.status.success(),
            "{name}: corrupted snapshot was accepted"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("is not a usable metrics snapshot") && stderr.contains(needle),
            "{name}: expected typed rejection with {needle:?}, got: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{name}: the binary panicked: {stderr}"
        );
    }

    // A missing file is an I/O error, not a crash.
    let out = sepe_repro()
        .args(["--check-metrics", "/nonexistent/snapshot.json"])
        .output()
        .expect("repro runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot read"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn keybench_churn_reports_all_three_phases() {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_keybench"));
    cmd.args(["--churn", "5000"]);
    let keys: String = (0..64)
        .map(|i| format!("{:03}-{:02}-{:04}\n", i * 7 % 1000, i % 100, i * 13 % 10000))
        .collect();
    let (stdout, stderr, ok) = run_with_stdin(cmd, &keys);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("steady state"), "{stdout}");
    assert!(stdout.contains("migration in flight"), "{stdout}");
    assert!(stdout.contains("degraded steady state"), "{stdout}");
    assert!(
        stdout.contains("no stop-the-world rebuild"),
        "drain never completed:\n{stdout}"
    );
}
