//! Chunk timing, the end-to-end and per-layer metric sets, and the report
//! every workload returns.

use crate::trace::{Agg, Span};
use std::collections::BTreeMap;
use std::time::Duration;

/// Every per-layer metric a traced run reports, with its unit. A workload
/// that leaves a layer idle reports 0 for its metrics; the README's table
/// says which workload moves which metric.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("kernel.ns_per_key", "ns"),
    ("kernel.scalar_ns_per_key", "ns"),
    ("guard.ns_per_key", "ns"),
    ("map.get_batch_ns_per_key", "ns"),
    ("map.self_ns_per_key", "ns"),
    ("table.probes_per_hit", "count"),
    ("table.probes_per_miss", "count"),
    ("table.bucket_collisions", "count"),
    ("map.populate_s", "s"),
    ("infer.setup_s", "s"),
    ("synth.setup_s", "s"),
    ("shard.get_ns", "ns"),
    ("shard.insert_ns", "ns"),
    ("shard.remove_ns", "ns"),
    ("shard.route_lock_ns", "ns"),
    ("drift.degrades", "count"),
    ("drift.tick_ns", "ns"),
    ("migration.epochs", "count"),
    ("migration.in_flight_op_share", "fraction"),
    ("migration.in_flight_ns_per_op", "ns"),
    ("migration.steady_ns_per_op", "ns"),
    ("migration.stale_reads", "count"),
    ("resynth.count", "count"),
    ("resynth.from_cache", "count"),
    ("resynth.ns", "ns"),
    ("cache.hit_share", "fraction"),
    ("cache.lookup_ns", "ns"),
    ("attack.escalations", "count"),
    ("attack.deescalations", "count"),
    ("attack.seed_rotations", "count"),
    ("attack.ops_to_escalate", "count"),
    ("attack.keyed_ns_per_op", "ns"),
    ("fallback.ns_per_key", "ns"),
    ("keyed.ns_per_key", "ns"),
    ("obs.snapshot_us", "us"),
    ("infer.ns_per_key", "ns"),
    ("synth.search_ns.naive", "ns"),
    ("synth.search_ns.offxor", "ns"),
    ("synth.search_ns.aes", "ns"),
    ("synth.search_ns.pext", "ns"),
    ("synth.plan_loads", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// The per-layer metrics that are exact counts: two runs with the same
/// seed must report identical values for them.
pub const COUNT_METRICS: [&str; 14] = [
    "table.probes_per_hit",
    "table.probes_per_miss",
    "table.bucket_collisions",
    "drift.degrades",
    "migration.epochs",
    "migration.in_flight_op_share",
    "migration.stale_reads",
    "resynth.count",
    "resynth.from_cache",
    "attack.escalations",
    "attack.deescalations",
    "attack.seed_rotations",
    "attack.ops_to_escalate",
    "synth.plan_loads",
];

/// Per-chunk timings of one pass, grouped into segments.
///
/// A run is split into segments (each after its own set-up, or one script
/// cycle of the churn workload). Every statistic is taken per segment and
/// reported as the median over segments. On a shared two-core host the
/// speed of CPU-bound work drifted by up to 2x from one two-second stretch
/// to the next, with stretches correlated over several seconds; a median
/// over segments spread across the run is the steadiest summary of that.
#[derive(Debug, Default, Clone)]
pub struct Chunks {
    /// Mean ns per op of every chunk, in run order.
    pub means_ns: Vec<f64>,
    /// Ops timed.
    pub ops: u64,
    /// First chunk, ops and wall time of each segment.
    segments: Vec<(usize, u64, Duration)>,
}

impl Chunks {
    /// Starts a new segment.
    pub fn segment(&mut self) {
        self.segments.push((self.means_ns.len(), 0, Duration::ZERO));
    }

    /// Records one chunk of `ops` ops that took `elapsed`.
    pub fn record(&mut self, ops: usize, elapsed: Duration) {
        if self.segments.is_empty() {
            self.segment();
        }
        self.means_ns
            .push(elapsed.as_nanos() as f64 / ops.max(1) as f64);
        self.ops += ops as u64;
        let last = self.segments.last_mut().expect("a segment was started");
        last.1 += ops as u64;
        last.2 += elapsed;
    }

    fn timed_segments(&self) -> impl Iterator<Item = (usize, &(usize, u64, Duration))> {
        self.segments.iter().enumerate().filter(|(_, s)| s.1 > 0)
    }

    /// Ops per second: the median over segments of each segment's timed
    /// ops divided by its timed wall time.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .timed_segments()
            .map(|(_, (_, ops, t))| *ops as f64 / t.as_secs_f64().max(1e-12))
            .collect();
        median(&rates)
    }

    /// The `q` quantile of the chunk means: the median over segments of
    /// each segment's own `q` quantile.
    #[must_use]
    pub fn chunk_quantile(&self, q: f64) -> f64 {
        let per_segment: Vec<f64> = self
            .timed_segments()
            .map(|(i, (first, _, _))| {
                let end = self
                    .segments
                    .get(i + 1)
                    .map_or(self.means_ns.len(), |s| s.0);
                quantile(&self.means_ns[*first..end], q)
            })
            .collect();
        median(&per_segment)
    }

    /// Segments with at least one timed op.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.timed_segments().count()
    }
}

/// The `q` quantile of `values` with linear interpolation between order
/// statistics (0 for an empty slice).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process (VmHWM), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Three timed parts of one container set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupParts {
    /// Pattern inference.
    pub infer: Duration,
    /// Plan synthesis (and, on synth_cold, the cache inserts).
    pub synth: Duration,
    /// Populating the table.
    pub populate: Duration,
}

impl SetupParts {
    /// The whole set-up.
    #[must_use]
    pub fn total(&self) -> f64 {
        (self.infer + self.synth + self.populate).as_secs_f64()
    }

    /// Median of each part and of the totals over several set-ups.
    #[must_use]
    pub fn medians(all: &[SetupParts]) -> (f64, [f64; 3]) {
        let col = |f: fn(&SetupParts) -> Duration| {
            median(&all.iter().map(|p| f(p).as_secs_f64()).collect::<Vec<_>>())
        };
        let totals: Vec<f64> = all.iter().map(SetupParts::total).collect();
        (
            median(&totals),
            [col(|p| p.infer), col(|p| p.synth), col(|p| p.populate)],
        )
    }
}

/// Everything one run found.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Run context: workload-specific sizes, op and chunk counts.
    pub context: Vec<(String, String)>,
    /// Ops whose outputs were checked.
    pub attempted: u64,
    /// Ops whose outputs the check rejected.
    pub failed: u64,
    /// Script expectations that did not hold (for example a flood that
    /// never escalated); any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Chunk timings of the untraced pass.
    pub chunks: Chunks,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Kept spans (traced runs only).
    pub spans: Vec<Span>,
}

impl Report {
    /// Adds a context entry.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_owned(), value.to_string()));
    }

    /// Whether every checked output was right and the script held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Records the traced pass's own cost against the untraced pass.
    pub fn trace_overhead(&mut self, traced: &Chunks, spans: u64) {
        let untraced = self.chunks.ops_per_s();
        let traced = traced.ops_per_s();
        self.layer("trace.ops_per_s", traced);
        self.layer("trace.untraced_ops_per_s", untraced);
        self.layer("trace.overhead", untraced / traced.max(1e-12));
        self.layer("trace.spans", spans as f64);
    }

    /// p99 of the chunk means. Printed for information only: on a shared
    /// two-core machine it moved 17–32% between runs of identical code,
    /// past any usable bound, so `op_p90_ns` is the tail metric.
    #[must_use]
    pub fn p99_ns(&self) -> f64 {
        self.chunks.chunk_quantile(0.99)
    }

    /// The end-to-end metrics: name, value, unit.
    #[must_use]
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("ops_per_s", self.chunks.ops_per_s(), "1/s"),
            ("op_p50_ns", self.chunks.chunk_quantile(0.50), "ns"),
            ("op_p90_ns", self.chunks.chunk_quantile(0.90), "ns"),
            ("setup_s", self.setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    }

    /// Failed ops over attempted ops.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The per-layer metrics in [`PER_LAYER`] order, idle layers as 0.
    #[must_use]
    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// Mean ns per key of span `agg` over `keys` keys.
#[must_use]
pub fn per_key(agg: Agg, keys: u64) -> f64 {
    agg.total_ns as f64 / keys.max(1) as f64
}
