//! Hash-only timings (the paper's H-Time) of the layers under a map op:
//! the format guard, the synthesized kernel batched and scalar, and the
//! two baselines the guarded hasher falls back to (CityHash when degraded,
//! SipHash-1-3 when keyed). Traced runs call [`probe`] on each chunk's
//! keys after the chunk, so the keys are cache-resident and the spans
//! measure computation, not memory.

use crate::trace::Tracer;
use sepe_baselines::{CityHash, SipHash13};
use sepe_core::hash::{ByteHash, HashBatch, SynthesizedHash};
use sepe_core::FormatGuard;
use std::hint::black_box;

/// Keys hashed per kernel call: the width of `UnorderedMap`'s batches.
const WIDTH: usize = 8;

/// Times each layer over `keys` under one `probe` root span.
pub fn probe(
    tracer: &mut Tracer,
    guard: Option<&FormatGuard>,
    kernel: &SynthesizedHash,
    keys: &[&[u8]],
) {
    let city = CityHash::new();
    let sip = SipHash13::with_keys(0x5EED, 0xF00D);
    let mut verdicts = [false; WIDTH];
    let mut hashes = [0u64; WIDTH];
    let root = tracer.begin("probe", None);
    if let Some(guard) = guard {
        tracer.span("probe.guard", Some(root), || {
            for chunk in keys.chunks(WIDTH) {
                guard.check_batch(chunk, &mut verdicts[..chunk.len()]);
                black_box(&verdicts);
            }
        });
    }
    tracer.span("probe.kernel", Some(root), || {
        for chunk in keys.chunks(WIDTH) {
            kernel.hash_batch(chunk, &mut hashes[..chunk.len()]);
            black_box(&hashes);
        }
    });
    tracer.span("probe.kernel_scalar", Some(root), || {
        for k in keys {
            black_box(kernel.hash_bytes(black_box(k)));
        }
    });
    tracer.span("probe.fallback", Some(root), || {
        for k in keys {
            black_box(city.hash_bytes(black_box(k)));
        }
    });
    tracer.span("probe.keyed", Some(root), || {
        for k in keys {
            black_box(sip.hash_bytes(black_box(k)));
        }
    });
    tracer.end(root);
}

/// Sets the per-key probe metrics from the tracer's totals over `keys`
/// probed keys.
pub fn report(report: &mut crate::measure::Report, tracer: &Tracer, keys: u64) {
    use crate::measure::per_key;
    report.layer("guard.ns_per_key", per_key(tracer.agg("probe.guard"), keys));
    report.layer(
        "kernel.ns_per_key",
        per_key(tracer.agg("probe.kernel"), keys),
    );
    report.layer(
        "kernel.scalar_ns_per_key",
        per_key(tracer.agg("probe.kernel_scalar"), keys),
    );
    report.layer(
        "fallback.ns_per_key",
        per_key(tracer.agg("probe.fallback"), keys),
    );
    report.layer("keyed.ns_per_key", per_key(tracer.agg("probe.keyed"), keys));
}

/// Word (or block) loads a synthesized plan performs per key.
#[must_use]
pub fn plan_loads(hash: &SynthesizedHash) -> usize {
    use sepe_core::Plan;
    match hash.plan() {
        Plan::FixedWords { ops, .. } | Plan::VarWords { ops, .. } => ops.len(),
        Plan::FixedBlocks { offsets, .. } | Plan::VarBlocks { offsets, .. } => offsets.len(),
        Plan::StlFallback => 0,
    }
}
