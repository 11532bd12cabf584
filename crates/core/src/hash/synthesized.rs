//! Execution of synthesized hash plans.

use crate::aes::{aesenc, fold_block, Block};
use crate::bits::{load_block_le, load_u64_le, pext_u64, Isa};
use crate::hash::stl::{stl_hash_bytes, MUL};
use crate::hash::ByteHash;
use crate::infer::infer_pattern;
use crate::pattern::KeyPattern;
use crate::regex::{parse, ExpandError, ParseRegexError};
use crate::synth::{synthesize, Family, Plan, WordOp};
use std::fmt;

/// Why a [`SynthesizedHash`] could not be constructed.
///
/// Each variant names one rejected input shape, so callers (the CLI, the
/// verification harness) can report a precise diagnostic instead of a
/// catch-all boxed error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SynthError {
    /// [`SynthesizedHash::from_examples`] was given no keys. The join of
    /// zero keys is undefined in the quad-semilattice (Section 3.1), so
    /// there is no pattern to synthesize from.
    EmptyExampleSet,
    /// The format describes only the empty key (zero maximum length), which
    /// admits no loads and no hash plan.
    EmptyFormat,
    /// The regular expression could not be parsed (syntax error, or a
    /// construct outside the supported fixed-shape subset such as `|`, `*`
    /// or `+`).
    Parse(ParseRegexError),
    /// The parsed expression could not be expanded into byte positions: an
    /// oversized `{n}` repetition past the expansion limit, or an optional
    /// part before a mandatory one.
    Expand(ExpandError),
    /// A serialized plan was not syntactically valid JSON, or not the JSON
    /// shape of a plan/bundle. Carries the parser's position and message.
    MalformedPlan {
        /// Byte offset of the failure in the input.
        at: usize,
        /// What the parser expected or found.
        message: String,
    },
    /// A serialized bundle declared a schema version this build does not
    /// speak.
    PlanVersion {
        /// Version stored in the bundle.
        found: u64,
        /// Version this build reads and writes.
        supported: u64,
    },
    /// A serialized bundle's payload does not match its stored checksum —
    /// the plan was truncated, bit-flipped, or hand-edited in transit.
    PlanChecksum {
        /// Checksum stored in the bundle.
        stored: u64,
        /// Checksum recomputed over the payload actually received.
        computed: u64,
    },
    /// A plan contains a load that reads past the key length its pattern
    /// admits, which the unchecked batch kernels must never see.
    PlanLoadOutOfBounds {
        /// Byte offset of the offending load.
        offset: u32,
        /// Width of the load in bytes (8 for words, 16 for blocks).
        width: u32,
        /// Key length the plan's region admits.
        key_len: usize,
    },
    /// A plan's extraction masks disagree with its pattern: a pext mask
    /// selects bits the pattern marks constant, or a non-pext op carries a
    /// mask other than the full word.
    PlanMaskConstBits,
    /// A bundle's plan shape disagrees with its declared family or pattern
    /// (for example a block plan under a word family, or word offsets that
    /// could never have been synthesized for the pattern's length).
    PlanPatternMismatch {
        /// What disagreed, in one phrase.
        detail: String,
    },
    /// Synthesis panicked. Resynthesis runs the synthesis step under
    /// `catch_unwind`, so a panic becomes this error and the hasher is left
    /// exactly as it was.
    Panicked,
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::EmptyExampleSet => {
                write!(f, "cannot infer a key pattern from zero example keys")
            }
            SynthError::EmptyFormat => {
                write!(f, "key format is empty (matches only the zero-length key)")
            }
            SynthError::Parse(e) => write!(f, "regex parse error: {e}"),
            SynthError::Expand(e) => write!(f, "regex expansion error: {e}"),
            SynthError::MalformedPlan { at, message } => {
                write!(f, "malformed plan at byte {at}: {message}")
            }
            SynthError::PlanVersion { found, supported } => {
                write!(
                    f,
                    "plan schema version {found} is not supported (this build reads version {supported})"
                )
            }
            SynthError::PlanChecksum { stored, computed } => {
                write!(
                    f,
                    "plan checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )
            }
            SynthError::PlanLoadOutOfBounds {
                offset,
                width,
                key_len,
            } => {
                write!(
                    f,
                    "plan load at offset {offset} ({width} bytes) reads past the {key_len}-byte key its pattern admits"
                )
            }
            SynthError::PlanMaskConstBits => {
                write!(
                    f,
                    "plan extraction masks are inconsistent with the pattern's constant bits"
                )
            }
            SynthError::PlanPatternMismatch { detail } => {
                write!(f, "plan does not fit its declared family/pattern: {detail}")
            }
            SynthError::Panicked => write!(f, "synthesis panicked"),
        }
    }
}

impl std::error::Error for SynthError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthError::Parse(e) => Some(e),
            SynthError::Expand(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseRegexError> for SynthError {
    fn from(e: ParseRegexError) -> Self {
        SynthError::Parse(e)
    }
}

impl From<ExpandError> for SynthError {
    fn from(e: ExpandError) -> Self {
        SynthError::Expand(e)
    }
}

/// A specialized hash function synthesized for one key format.
///
/// The plan is executed directly — the same loads, masks and shifts the
/// generated C++/Rust source would perform — so the function is usable
/// immediately, without a compiler in the loop.
///
/// Keys that do not belong to the format hash safely (out-of-range loads
/// read as zero) but with degraded dispersion; like SEPE, callers are
/// expected to use a synthesized function only on keys of its format.
///
/// # Examples
///
/// ```
/// use sepe_core::hash::{ByteHash, SynthesizedHash};
/// use sepe_core::synth::Family;
///
/// let hash = SynthesizedHash::from_regex(r"\d{3}-\d{2}-\d{4}", Family::Pext)?;
/// assert_ne!(hash.hash_bytes(b"123-45-6789"), hash.hash_bytes(b"123-45-6780"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SynthesizedHash {
    family: Family,
    plan: Plan,
    isa: Isa,
    seed: u64,
    /// Hardware BMI2 resolved once at construction, so the hot path pays
    /// no feature-detection check per extraction.
    hw_pext: bool,
    /// Inline copy of short fixed-word plans. The emitted C++ is straight-
    /// line code; keeping the operations inside the struct (no heap chase)
    /// lets the interpreted plan approximate it.
    fast: FastOps,
}

/// Up to this many word operations are inlined into the hash value itself.
const FAST_OPS: usize = 8;

#[derive(Debug, Clone, Copy)]
enum FastOps {
    /// Plan shape without a fast path (variable length, blocks, fallback,
    /// or more than [`FAST_OPS`] loads).
    None,
    /// Fixed-length xor of `n` rotated loads (Naive / OffXor). `shift` is
    /// the rotation of a clamped final load; zero elsewhere.
    Xor { n: u8, ops: [WordOp; FAST_OPS] },
    /// Fixed-length masked extraction of `n` loads (Pext).
    Pext { n: u8, ops: [WordOp; FAST_OPS] },
}

fn fast_ops_of(plan: &Plan, family: Family) -> FastOps {
    let Plan::FixedWords { ops, .. } = plan else {
        return FastOps::None;
    };
    if ops.is_empty() || ops.len() > FAST_OPS {
        return FastOps::None;
    }
    let n = ops.len() as u8;
    match family {
        Family::Naive | Family::OffXor | Family::Pext => {
            let mut buf = [WordOp {
                offset: 0,
                mask: 0,
                shift: 0,
            }; FAST_OPS];
            buf[..ops.len()].copy_from_slice(ops);
            if family == Family::Pext {
                FastOps::Pext { n, ops: buf }
            } else {
                FastOps::Xor { n, ops: buf }
            }
        }
        Family::Aes => FastOps::None,
    }
}

impl SynthesizedHash {
    /// Wraps an already-synthesized plan.
    #[must_use]
    pub fn new(plan: Plan, family: Family, isa: Isa) -> Self {
        let hw_pext = isa == Isa::Native && crate::bits::hardware_pext_available();
        let fast = fast_ops_of(&plan, family);
        SynthesizedHash {
            family,
            plan,
            isa,
            seed: 0,
            hw_pext,
            fast,
        }
    }

    /// Synthesizes a hash for a key pattern.
    #[must_use]
    pub fn from_pattern(pattern: &KeyPattern, family: Family) -> Self {
        SynthesizedHash::new(synthesize(pattern, family), family, Isa::Native)
    }

    /// Synthesizes a hash from a regular expression (Figure 5b).
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::Parse`] for syntax errors, [`SynthError::Expand`]
    /// when the expression cannot be pinned to byte positions (oversized
    /// `{n}` repetition, optional prefix), and [`SynthError::EmptyFormat`]
    /// when it expands to a zero-length format.
    pub fn from_regex(source: &str, family: Family) -> Result<Self, SynthError> {
        let pattern = parse(source)?.expand()?.to_key_pattern();
        if pattern.is_empty() {
            return Err(SynthError::EmptyFormat);
        }
        Ok(SynthesizedHash::from_pattern(&pattern, family))
    }

    /// Synthesizes a hash from example keys (Figure 5a).
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::EmptyExampleSet`] when `keys` is empty and
    /// [`SynthError::EmptyFormat`] when every example is the empty key.
    pub fn from_examples<'a, I>(keys: I, family: Family) -> Result<Self, SynthError>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let pattern = infer_pattern(keys).map_err(|_| SynthError::EmptyExampleSet)?;
        if pattern.is_empty() {
            return Err(SynthError::EmptyFormat);
        }
        Ok(SynthesizedHash::from_pattern(&pattern, family))
    }

    /// Restricts the instruction set the plan may use; [`Isa::Portable`]
    /// reproduces the paper's aarch64 configuration (RQ4).
    #[must_use]
    pub fn with_isa(mut self, isa: Isa) -> Self {
        self.isa = isa;
        self.hw_pext = isa == Isa::Native && crate::bits::hardware_pext_available();
        self
    }

    /// Sets the seed mixed into the hash (default 0, as in Figure 5's
    /// generated code).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The family this function belongs to.
    #[must_use]
    pub fn family(&self) -> Family {
        self.family
    }

    /// The underlying plan.
    #[must_use]
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The instruction-set restriction in effect.
    #[must_use]
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// The seed mixed into the hash.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Emits the source code of this function in `language` — the artifact
    /// the paper's tool ships (Figure 5c). The emitted code computes
    /// exactly the hashes of [`ByteHash::hash_bytes`] (verified by the
    /// compile-and-run equivalence tests).
    ///
    /// # Examples
    ///
    /// ```
    /// use sepe_core::codegen::Language;
    /// use sepe_core::hash::SynthesizedHash;
    /// use sepe_core::synth::Family;
    ///
    /// let h = SynthesizedHash::from_regex(r"\d{3}-\d{2}-\d{4}", Family::Pext)?;
    /// let cpp = h.emit(Language::Cpp, "SsnHash");
    /// assert!(cpp.contains("struct SsnHash"));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn emit(&self, language: crate::codegen::Language, name: &str) -> String {
        crate::codegen::emit(&self.plan, self.family, language, name)
    }

    /// Combines the word loads of a plan, without the seed — shared by the
    /// fixed and variable paths so the seed is mixed exactly once.
    #[inline]
    fn combine_words(&self, key: &[u8], ops: &[WordOp]) -> u64 {
        let mut h = 0u64;
        if self.family == Family::Pext {
            #[cfg(target_arch = "x86_64")]
            if self.hw_pext {
                // SAFETY: hw_pext is only true when BMI2 was detected.
                return unsafe { eval_pext_hw(key, ops) };
            }
            for op in ops {
                let w = load_u64_le(key, op.offset as usize);
                h ^= pext_u64(w, op.mask, Isa::Portable) << op.shift;
            }
        } else {
            for op in ops {
                let w = load_u64_le(key, op.offset as usize);
                h ^= w.rotate_left(u32::from(op.shift));
            }
        }
        h
    }

    #[inline]
    fn eval_words_fixed(&self, key: &[u8], ops: &[WordOp]) -> u64 {
        self.seed ^ self.combine_words(key, ops)
    }

    #[inline]
    fn eval_words_var(&self, key: &[u8], ops: &[WordOp], tail_start: usize) -> u64 {
        // Variable-length keys mix the length in, as Figure 8's
        // initialize_hash(len, seed) does.
        let mut h = self.seed ^ (key.len() as u64).wrapping_mul(MUL);
        h ^= self.combine_words(key, ops);
        let mut o = tail_start;
        while o + 8 <= key.len() {
            h ^= load_u64_le(key, o).rotate_left((o % 64) as u32);
            o += 8;
        }
        if o < key.len() {
            h ^= load_u64_le(key, o).rotate_left((o % 64) as u32);
        }
        h
    }

    /// Combines one block: `state = aesenc(state ^ block, RK)`.
    ///
    /// Xoring the block *before* the round puts it through SubBytes, so the
    /// combination is non-linear (and, for a fixed state, bijective) in the
    /// block — one `aesenc` per block, exactly the cost the paper describes.
    #[inline]
    fn mix_block(&self, state: Block, block: Block) -> Block {
        let mut x = state;
        for (s, b) in x.iter_mut().zip(block.iter()) {
            *s ^= b;
        }
        aesenc(x, AES_ROUND_KEY, self.isa)
    }

    #[inline]
    fn eval_blocks(&self, key: &[u8], offsets: &[u32], tail_start: Option<usize>) -> u64 {
        let mut state: Block = seed_block(self.seed);
        if offsets.is_empty() && tail_start.is_none() {
            // Short fixed-length key: replicate it into one block.
            state = self.mix_block(state, replicate_block(key));
        } else {
            for &off in offsets {
                state = self.mix_block(state, load_block_le(key, off as usize));
            }
        }
        if let Some(tail) = tail_start {
            let mut o = tail;
            while o < key.len() {
                state = self.mix_block(state, load_block_le(key, o));
                o += 16;
            }
            // Mix the length so zero-padded tails of different lengths
            // differ.
            let mut len_block = [0u8; 16];
            len_block[..8].copy_from_slice(&(key.len() as u64).to_le_bytes());
            state = self.mix_block(state, len_block);
        }
        fold_block(state)
    }
}

impl SynthesizedHash {
    /// Evaluates exactly `W` keys with the interleaved (ops-outer,
    /// lanes-inner) schedule. Falls back to the scalar path for plan shapes
    /// whose per-key control flow diverges (variable-length tails, STL
    /// fallback).
    fn hash_lanes<const W: usize>(&self, keys: &[&[u8]], out: &mut [u64]) {
        use crate::hash::batch::xor_lanes;
        match &self.fast {
            FastOps::Xor { n, ops } => {
                return xor_lanes::<W>(self.seed, &ops[..*n as usize], keys, out);
            }
            FastOps::Pext { n, ops } => {
                return self.pext_lanes::<W>(&ops[..*n as usize], keys, out);
            }
            FastOps::None => {}
        }
        match &self.plan {
            Plan::FixedWords { ops, .. } => {
                if self.family == Family::Pext {
                    self.pext_lanes::<W>(ops, keys, out);
                } else {
                    xor_lanes::<W>(self.seed, ops, keys, out);
                }
            }
            Plan::FixedBlocks { offsets, .. } => self.blocks_lanes::<W>(offsets, keys, out),
            Plan::StlFallback | Plan::VarWords { .. } | Plan::VarBlocks { .. } => {
                // Per-key tail lengths differ, so there is no common op
                // schedule to interleave; stay scalar, stay correct.
                for (key, slot) in keys.iter().zip(out.iter_mut()) {
                    *slot = self.hash_bytes(key);
                }
            }
        }
    }

    #[inline]
    fn pext_lanes<const W: usize>(&self, ops: &[WordOp], keys: &[&[u8]], out: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        if self.hw_pext {
            // SAFETY: hw_pext is only true when BMI2 was detected.
            return unsafe { crate::hash::batch::pext_hw_lanes::<W>(self.seed, ops, keys, out) };
        }
        crate::hash::batch::pext_soft_lanes::<W>(self.seed, ops, keys, out)
    }

    /// Interleaved AES combine: `W` independent 16-byte states advance
    /// through the block schedule together, so the `aesenc` latency of one
    /// lane overlaps the loads and rounds of the others.
    fn blocks_lanes<const W: usize>(&self, offsets: &[u32], keys: &[&[u8]], out: &mut [u64]) {
        debug_assert!(keys.len() == W && out.len() == W);
        let mut states = [seed_block(self.seed); W];
        if offsets.is_empty() {
            for lane in 0..W {
                states[lane] = self.mix_block(states[lane], replicate_block(keys[lane]));
            }
        } else {
            for &off in offsets {
                for lane in 0..W {
                    states[lane] =
                        self.mix_block(states[lane], load_block_le(keys[lane], off as usize));
                }
            }
        }
        for lane in 0..W {
            out[lane] = fold_block(states[lane]);
        }
    }
}

impl crate::hash::HashBatch for SynthesizedHash {
    fn hash_batch(&self, keys: &[&[u8]], out: &mut [u64]) {
        assert_eq!(keys.len(), out.len(), "batch output length mismatch");
        let mut i = 0usize;
        while keys.len() - i >= 8 {
            self.hash_lanes::<8>(&keys[i..i + 8], &mut out[i..i + 8]);
            i += 8;
        }
        if keys.len() - i >= 4 {
            self.hash_lanes::<4>(&keys[i..i + 4], &mut out[i..i + 4]);
            i += 4;
        }
        for j in i..keys.len() {
            out[j] = self.hash_bytes(keys[j]);
        }
    }
}

impl ByteHash for SynthesizedHash {
    #[inline]
    fn hash_bytes(&self, key: &[u8]) -> u64 {
        // Fast paths first: short fixed-word plans run without touching
        // the heap-allocated plan at all.
        match &self.fast {
            FastOps::Xor { n, ops } => {
                let mut h = self.seed;
                for op in &ops[..*n as usize] {
                    h ^= load_u64_le(key, op.offset as usize).rotate_left(u32::from(op.shift));
                }
                return h;
            }
            FastOps::Pext { n, ops } => {
                let ops = &ops[..*n as usize];
                #[cfg(target_arch = "x86_64")]
                if self.hw_pext {
                    // SAFETY: hw_pext is only true when BMI2 was detected.
                    return self.seed ^ unsafe { eval_pext_hw(key, ops) };
                }
                let mut h = self.seed;
                for op in ops {
                    let w = load_u64_le(key, op.offset as usize);
                    h ^= pext_u64(w, op.mask, Isa::Portable) << op.shift;
                }
                return h;
            }
            FastOps::None => {}
        }
        match &self.plan {
            Plan::StlFallback => stl_hash_bytes(key, self.seed),
            Plan::FixedWords { ops, .. } => self.eval_words_fixed(key, ops),
            Plan::VarWords {
                ops, tail_start, ..
            } => self.eval_words_var(key, ops, *tail_start),
            Plan::FixedBlocks { offsets, .. } => self.eval_blocks(key, offsets, None),
            Plan::VarBlocks {
                offsets,
                tail_start,
                ..
            } => self.eval_blocks(key, offsets, Some(*tail_start)),
        }
    }
}

/// The fixed round key of the Aes family (hex digits of e).
const AES_ROUND_KEY: Block = [
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
];

/// Hot path for hardware extraction: one `pext` per load, fully inlined
/// under the `bmi2` target feature.
///
/// # Safety
///
/// The caller must have verified BMI2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
unsafe fn eval_pext_hw(key: &[u8], ops: &[WordOp]) -> u64 {
    use std::arch::x86_64::_pext_u64;
    let mut h = 0u64;
    for op in ops {
        let w = load_u64_le(key, op.offset as usize);
        h ^= _pext_u64(w, op.mask) << op.shift;
    }
    h
}

fn seed_block(seed: u64) -> Block {
    // First 32 hex digits of pi, perturbed by the seed.
    let lo = 0x2438_6A88_85A3_08D3u64 ^ seed;
    let hi = 0x1319_8A2E_0370_7344u64 ^ seed.rotate_left(32);
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&lo.to_le_bytes());
    b[8..].copy_from_slice(&hi.to_le_bytes());
    b
}

fn replicate_block(key: &[u8]) -> Block {
    let mut b = [0u8; 16];
    if key.is_empty() {
        return b;
    }
    for (i, slot) in b.iter_mut().enumerate() {
        *slot = key[i % key.len()];
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssn_keys() -> Vec<String> {
        (0..2000u64)
            .map(|i| format!("{:03}-{:02}-{:04}", i % 1000, (i / 7) % 100, i % 10000))
            .collect()
    }

    fn distinct<I: IntoIterator<Item = u64>>(hashes: I) -> usize {
        let mut v: Vec<u64> = hashes.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        v.len()
    }

    #[test]
    fn all_families_hash_ssns_deterministically() {
        for family in Family::ALL {
            let h = SynthesizedHash::from_regex(r"\d{3}-\d{2}-\d{4}", family).unwrap();
            assert_eq!(h.hash_bytes(b"123-45-6789"), h.hash_bytes(b"123-45-6789"));
        }
    }

    #[test]
    fn pext_is_a_bijection_on_ssns() {
        // 36 variable bits <= 64: Pext must be collision-free (Section 4.2).
        let h = SynthesizedHash::from_regex(r"\d{3}-\d{2}-\d{4}", Family::Pext).unwrap();
        let keys: Vec<String> = ssn_keys()
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let n = keys.len();
        assert_eq!(distinct(keys.iter().map(|k| h.hash_bytes(k.as_bytes()))), n);
    }

    #[test]
    fn portable_and_native_pext_agree() {
        let native = SynthesizedHash::from_regex(r"\d{3}-\d{2}-\d{4}", Family::Pext).unwrap();
        let portable = native.clone().with_isa(Isa::Portable);
        for k in ssn_keys().iter().take(500) {
            assert_eq!(
                native.hash_bytes(k.as_bytes()),
                portable.hash_bytes(k.as_bytes())
            );
        }
    }

    #[test]
    fn portable_and_native_aes_agree() {
        let native =
            SynthesizedHash::from_regex(r"(([0-9]{3})\.){3}[0-9]{3}", Family::Aes).unwrap();
        let portable = native.clone().with_isa(Isa::Portable);
        for i in 0..200u32 {
            let k = format!(
                "{:03}.{:03}.{:03}.{:03}",
                i % 256,
                (i * 7) % 256,
                i % 100,
                i
            );
            assert_eq!(
                native.hash_bytes(k.as_bytes()),
                portable.hash_bytes(k.as_bytes())
            );
        }
    }

    #[test]
    fn short_formats_use_the_stl_fallback() {
        let h = SynthesizedHash::from_regex(r"\d{4}", Family::Pext).unwrap();
        assert!(h.plan().is_fallback());
        assert_eq!(h.hash_bytes(b"1234"), stl_hash_bytes(b"1234", 0));
    }

    #[test]
    fn offxor_matches_the_figure_5_shape() {
        // Figure 5c: OffXor for 15-byte IPv4 loads at 0 and 7; the clamped
        // load at 7 additionally carries the anti-cancellation rotation.
        let h = SynthesizedHash::from_regex(r"(([0-9]{3})\.){3}[0-9]{3}", Family::OffXor).unwrap();
        let key = b"192.168.001.017";
        let expected = load_u64_le(key, 0)
            ^ load_u64_le(key, 7).rotate_left(u32::from(crate::synth::OVERLAP_ROTATION));
        assert_eq!(h.hash_bytes(key), expected);
    }

    #[test]
    fn clamped_load_rotation_blocks_xor_cancellation() {
        // Without the rotation, the SSN plan's loads at 0 and 3 xor byte
        // pairs three apart into the same lane: "123-45-6789" and
        // "133-55-7788" (the same +1/-1 nibble flips at string positions
        // 1,4,7,10) collided. This is the regression test for the seed's
        // spurious Naive/OffXor T-Coll under the normal distribution.
        for family in [Family::Naive, Family::OffXor] {
            let h = SynthesizedHash::from_regex(r"\d{3}-\d{2}-\d{4}", family).unwrap();
            assert_ne!(
                h.hash_bytes(b"123-45-6789"),
                h.hash_bytes(b"133-55-7788"),
                "{family}"
            );
        }
    }

    #[test]
    fn naive_and_offxor_are_injective_on_ssns() {
        // 9 digit bytes x 4 variable bits = 36 < 64: with the overlap
        // rotation the xor of loads is injective on the format, so a large
        // key sample must hash distinctly.
        for family in [Family::Naive, Family::OffXor] {
            let h = SynthesizedHash::from_regex(r"\d{3}-\d{2}-\d{4}", family).unwrap();
            let keys: std::collections::BTreeSet<String> = ssn_keys().into_iter().collect();
            let n = keys.len();
            assert_eq!(
                distinct(keys.iter().map(|k| h.hash_bytes(k.as_bytes()))),
                n,
                "{family}"
            );
        }
    }

    #[test]
    fn pext_ssn_matches_figure_12_semantics() {
        let h = SynthesizedHash::from_regex(r"\d{3}\.\d{2}\.\d{4}", Family::Pext).unwrap();
        let key = b"123.45.6789";
        let w0 = load_u64_le(key, 0);
        let w1 = load_u64_le(key, 3);
        let expected = pext_u64(w0, 0x0F00_0F0F_000F_0F0F, Isa::Portable)
            ^ (pext_u64(w1, 0x0F0F_0F00_0000_0000, Isa::Portable) << 52);
        assert_eq!(h.hash_bytes(key), expected);
    }

    #[test]
    fn seed_perturbs_all_families() {
        for family in Family::ALL {
            let a = SynthesizedHash::from_regex(r"[0-9]{16}", family).unwrap();
            let b = a.clone().with_seed(0xDEAD_BEEF);
            assert_ne!(
                a.hash_bytes(b"1234567890123456"),
                b.hash_bytes(b"1234567890123456")
            );
        }
    }

    #[test]
    fn aes_replicates_short_keys() {
        let h = SynthesizedHash::from_regex(r"\d{3}-\d{2}-\d{4}", Family::Aes).unwrap();
        // Distinct SSNs mostly hash apart even through replication.
        let keys = ssn_keys();
        let unique_keys: std::collections::BTreeSet<_> = keys.iter().collect();
        let d = distinct(unique_keys.iter().map(|k| h.hash_bytes(k.as_bytes())));
        // The replicated block goes through a full AES round, so the only
        // collision channel is the 128 -> 64 fold: essentially none expected.
        assert!(d >= unique_keys.len() - 1, "{d} of {}", unique_keys.len());
    }

    #[test]
    fn variable_length_keys_hash_by_length_and_content() {
        let h = SynthesizedHash::from_examples(
            [
                &b"user=00000000"[..],
                b"user=99999999&session=aaaaaaaaaaaaaaaa",
            ],
            Family::OffXor,
        )
        .unwrap();
        let a = h.hash_bytes(b"user=12345678");
        let b = h.hash_bytes(b"user=12345678&session=bbbbbbbbbbbbbbbb");
        let c = h.hash_bytes(b"user=12345678&session=cccccccccccccccc");
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn var_plan_distinguishes_padded_lengths() {
        // Keys that agree on all loaded words but differ in length.
        let h = SynthesizedHash::from_examples([&b"k:0000"[..], b"k:000000000000"], Family::Naive)
            .unwrap();
        assert_ne!(h.hash_bytes(b"k:00000000"), h.hash_bytes(b"k:0000000000"));
    }

    #[test]
    fn fully_constant_format_hashes_to_seed() {
        let h = SynthesizedHash::from_examples([&b"only-one-key-fmt"[..]], Family::OffXor).unwrap();
        assert_eq!(h.hash_bytes(b"only-one-key-fmt"), 0);
    }

    #[test]
    fn ints_100_digits_zero_collisions_sample() {
        // The paper reports zero T-Coll for INTS despite 400 relevant bits.
        let h = SynthesizedHash::from_regex(r"[0-9]{100}", Family::Pext).unwrap();
        let keys: Vec<String> = (0..2000u64).map(|i| format!("{:0100}", i * 977)).collect();
        assert_eq!(
            distinct(keys.iter().map(|k| h.hash_bytes(k.as_bytes()))),
            keys.len()
        );
    }
}
