//! End-to-end and per-layer benchmark of the SEPE runtime.
//!
//! Three seeded workloads drive the library only through its public API
//! (`sepe-core`, `sepe-baselines`, `sepe-containers`), one client thread in
//! a closed loop. Every workload times fixed-size chunks of ops generated
//! before the chunk starts, checks the chunk's outputs after it (untimed),
//! and reports the same end-to-end metrics. A traced run (`--trace 1`)
//! follows every untraced segment with a traced one, spans around the calls
//! into each layer, and reports per-layer metrics instead; see
//! `perfbench/README.md`.

pub mod churn;
pub mod context;
pub mod measure;
pub mod probe;
pub mod read_long_keys;
pub mod synth_cold;
pub mod trace;

use measure::Report;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batched lookups of 100-byte INTS keys in a guarded `UnorderedMap`.
    ReadLongKeys,
    /// Get/insert/remove churn on a sharded IPv4 map with a scripted
    /// drift-and-flood cycle.
    ChurnDriftAttack,
    /// Cold pattern inference plus plan synthesis, no cache.
    SynthCold,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::ReadLongKeys,
        Workload::ChurnDriftAttack,
        Workload::SynthCold,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadLongKeys => "read_long_keys",
            Workload::ChurnDriftAttack => "churn_drift_attack",
            Workload::SynthCold => "synth_cold",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `Full` is what the benchmark measures; `Tiny` exists so the
/// benchmark's own tests run in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Working sets sized away from the L2 cache, set-up of hundreds of ms.
    Full,
    /// A few thousand keys; for tests only.
    Tiny,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Nominal measuring time; fixes the op count (see [`Config::ops`]).
    pub seconds: u64,
    /// Whether to run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

impl Config {
    /// The number of ops a pass runs: `seconds` times a fixed nominal
    /// rate, so the count depends only on the arguments and every count
    /// metric repeats exactly for a given seed. A traced run interleaves
    /// an untraced and a traced pass of half as many ops each.
    #[must_use]
    pub fn ops(&self, nominal_per_second: u64, tiny_ops: u64) -> u64 {
        let ops = match self.scale {
            Scale::Full => self.seconds.max(1) * nominal_per_second,
            Scale::Tiny => tiny_ops,
        };
        if self.trace {
            (ops / 2).max(1)
        } else {
            ops
        }
    }
}

/// Runs one workload and returns its report.
#[must_use]
pub fn run(config: &Config) -> Report {
    match config.workload {
        Workload::ReadLongKeys => read_long_keys::run(config),
        Workload::ChurnDriftAttack => churn::run(config),
        Workload::SynthCold => synth_cold::run(config),
    }
}
