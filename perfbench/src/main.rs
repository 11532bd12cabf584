//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run context and every metric with its unit, one per line,
//! then, as the last line, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` —
//! the end-to-end metrics untraced, the per-layer metrics traced.
//! `--scale tiny` shrinks the inputs for the benchmark's own tests.
//! Traced runs write their kept spans to `--spans <path>`, by default
//! `perfbench/out/spans-<workload>-<seed>.tsv` under the working directory.

use sepe_perfbench::measure::Report;
use sepe_perfbench::{context, run, trace, Config, Scale, Workload};
use std::process::ExitCode;

struct Args {
    config: Config,
    spans: Option<std::path::PathBuf>,
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    let parsed = match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.map_err(|_| format!("{flag}: not an unsigned integer: {value:?}"))
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(parse_u64(flag, value)?),
            "--seconds" => seconds = Some(parse_u64(flag, value)?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                };
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale: expected full or tiny, got {value:?}")),
                };
            }
            "--spans" => spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds: expected 1..=600, got {seconds}"));
    }
    Ok(Args {
        config: Config {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            scale,
        },
        spans,
    })
}

/// Formats a metric value with every digit it has (`{}` on `f64` prints
/// the shortest string that round-trips).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn json(report: &Report, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let config = &args.config;
    let steal_before = context::steal_ticks();
    let report = run(config);
    let steal = context::steal_ticks().saturating_sub(steal_before);

    let mut ctx = context::machine();
    ctx.push(("workload".into(), config.workload.name().into()));
    ctx.push(("seed".into(), config.seed.to_string()));
    ctx.push(("seconds".into(), config.seconds.to_string()));
    ctx.push(("trace".into(), u8::from(config.trace).to_string()));
    ctx.push(("scale".into(), format!("{:?}", config.scale).to_lowercase()));
    ctx.extend(report.context.iter().cloned());
    ctx.push(("steal_ticks".into(), steal.to_string()));
    for (k, v) in &ctx {
        println!("context {k}={v}");
    }
    for p in &report.problems {
        println!("problem {p}");
    }

    let end_to_end = report.end_to_end();
    let samples = report.chunks.means_ns.len();
    println!("context segments={}", report.chunks.segment_count());
    for (name, value, unit) in &end_to_end {
        let extra = if name.starts_with("op_p") {
            format!(" samples={samples}")
        } else {
            String::new()
        };
        println!("metric {name} {} {unit}{extra}", number(*value));
    }
    println!(
        "metric op_p99_ns {} ns samples={samples} (information only)",
        number(report.p99_ns())
    );
    println!(
        "metric failed_share {} fraction attempted={} failed={}",
        number(report.failed_share()),
        report.attempted,
        report.failed
    );
    let last = if config.trace {
        let layers = report.per_layer();
        for (name, value, unit) in &layers {
            println!("layer {name} {} {unit}", number(*value));
        }
        let path = args.spans.clone().unwrap_or_else(|| {
            format!(
                "perfbench/out/spans-{}-{}.tsv",
                config.workload.name(),
                config.seed
            )
            .into()
        });
        if let Err(e) = trace::write_spans(&path, &report.spans) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("context spans={}", path.display());
        json(&report, &layers)
    } else {
        json(&report, &end_to_end)
    };
    println!("{last}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
