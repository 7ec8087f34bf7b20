//! Data payloads.
//!
//! The UniviStor reproduction is *functional*: bytes written through the
//! MPI-IO interface land in real log chunks / burst-buffer objects / OST
//! objects and read back identical. But the paper's experiments move up to
//! 2 TB of logical data per phase (8192 processes × 256 MB), which must not
//! be materialized. [`Payload`] solves both needs:
//!
//! * [`Payload::Bytes`] — real, materialized bytes (used by tests, examples,
//!   and any small-scale run).
//! * [`Payload::Pattern`] — a deterministic pseudo-random byte sequence
//!   identified by a seed and a window `[offset, offset + len)` into the
//!   infinite stream that seed generates. Slicing, splitting and comparing
//!   are O(1) in memory; any byte can be regenerated on demand.
//! * [`Payload::Zeros`] — holes (unwritten ranges) when a caller asks for a
//!   tolerant read.
//! * [`Payload::Chain`] — a rope of the above, produced when a read gathers
//!   segments from several places.
//!
//! All storage tiers store `Payload`s, so the *placement* of data is always
//! exact even when the bytes themselves are virtual.
//!
//! [`Payload::content_checksum`] is the integrity plane's digest: a pure
//! function of the byte stream (see [`Checksum`]), so a pattern's digest is
//! a pure function of its `(seed, offset, len)` descriptor. It is never
//! cached here — it is the oracle. The product's data path digests through
//! `univistor_core::integrity::Verifier`, which remembers descriptor
//! digests per job; tests, benches and probes that want the raw cost call
//! this module directly.

use crate::bytes::Bytes;
use std::fmt;

/// Maximum size `to_bytes` will materialize (1 GiB). Larger payloads are
/// always synthetic at paper scale; materializing them indicates a bug.
pub const MAX_MATERIALIZE: u64 = 1 << 30;

/// A (possibly virtual) run of bytes. See module docs.
#[derive(Clone, PartialEq, Eq)]
pub enum Payload {
    /// Real bytes.
    Bytes(Bytes),
    /// `len` bytes of the deterministic stream of `seed`, starting at
    /// stream position `offset`.
    Pattern { seed: u64, offset: u64, len: u64 },
    /// A run of zero bytes (reads of holes).
    Zeros { len: u64 },
    /// Concatenation of parts. Invariants: no nested chains, no empty parts,
    /// at least two parts.
    Chain(Vec<Payload>),
}

/// SplitMix64 — small, fast, high-quality 64-bit mixer used for pattern data.
#[inline]
pub const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pattern byte at stream position `pos` for `seed`.
#[inline]
pub fn pattern_byte(seed: u64, pos: u64) -> u8 {
    let block = splitmix64(seed ^ (pos / 8));
    (block >> (8 * (pos % 8))) as u8
}

impl Payload {
    /// An empty payload.
    pub fn empty() -> Payload {
        Payload::Bytes(Bytes::new())
    }

    /// A synthetic payload of `len` bytes drawn from `seed`'s stream.
    pub fn pattern(seed: u64, len: u64) -> Payload {
        Payload::Pattern {
            seed,
            offset: 0,
            len,
        }
    }

    /// A payload of real bytes.
    pub fn from_bytes(bytes: impl Into<Bytes>) -> Payload {
        Payload::Bytes(bytes.into())
    }

    /// `len` zero bytes.
    pub fn zeros(len: u64) -> Payload {
        Payload::Zeros { len }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Bytes(b) => b.len() as u64,
            Payload::Pattern { len, .. } | Payload::Zeros { len } => *len,
            Payload::Chain(parts) => parts.iter().map(Payload::len).sum(),
        }
    }

    /// True when the payload holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Concatenate parts into one payload, flattening chains and merging
    /// adjacent compatible parts (contiguous pattern windows, zero runs) in
    /// one pass, merges across sub-chain boundaries included.
    pub fn chain(parts: impl IntoIterator<Item = Payload>) -> Payload {
        let parts = parts.into_iter();
        let mut merged: Vec<Payload> = Vec::with_capacity(parts.size_hint().0);
        for part in parts {
            push_merged(&mut merged, part);
        }
        match merged.len() {
            0 => Payload::empty(),
            1 => merged.pop().expect("len checked"),
            _ => Payload::Chain(merged),
        }
    }

    /// Extend this payload in place by `next` when `next` continues it
    /// without a seam — the next window of the same pattern stream, or
    /// more zeros — and say whether it did.
    pub(crate) fn try_extend(&mut self, next: &Payload) -> bool {
        match (self, next) {
            (
                Payload::Pattern { seed, offset, len },
                Payload::Pattern {
                    seed: s2,
                    offset: o2,
                    len: l2,
                },
            ) if *seed == *s2 && *offset + *len == *o2 => *len += l2,
            (Payload::Zeros { len }, Payload::Zeros { len: l2 }) => *len += l2,
            _ => return false,
        }
        true
    }

    /// The sub-payload `[start, start + len)`. Panics if out of range —
    /// callers (tier stores) always hold the true extent bounds.
    pub fn slice(&self, start: u64, len: u64) -> Payload {
        let total = self.len();
        assert!(
            start.checked_add(len).is_some_and(|end| end <= total),
            "slice [{start}, {start}+{len}) out of range for payload of {total} bytes"
        );
        if len == 0 {
            return Payload::empty();
        }
        if start == 0 && len == total {
            return self.clone();
        }
        match self {
            Payload::Bytes(b) => Payload::Bytes(b.slice(start as usize..(start + len) as usize)),
            Payload::Pattern { seed, offset, .. } => Payload::Pattern {
                seed: *seed,
                offset: offset + start,
                len,
            },
            Payload::Zeros { .. } => Payload::Zeros { len },
            Payload::Chain(parts) => {
                let mut out = Vec::new();
                let mut pos = 0u64;
                let end = start + len;
                for part in parts {
                    let plen = part.len();
                    let pstart = pos;
                    let pend = pos + plen;
                    pos = pend;
                    if pend <= start {
                        continue;
                    }
                    if pstart >= end {
                        break;
                    }
                    let s = start.max(pstart) - pstart;
                    let e = end.min(pend) - pstart;
                    out.push(part.slice(s, e - s));
                }
                Payload::chain(out)
            }
        }
    }

    /// Split into `[0, mid)` and `[mid, len)`.
    pub fn split_at(&self, mid: u64) -> (Payload, Payload) {
        let len = self.len();
        (self.slice(0, mid), self.slice(mid, len - mid))
    }

    /// The byte at position `pos`. O(depth) for chains, O(1) otherwise.
    pub fn byte_at(&self, pos: u64) -> u8 {
        assert!(pos < self.len(), "byte_at({pos}) out of range");
        match self {
            Payload::Bytes(b) => b[pos as usize],
            Payload::Pattern { seed, offset, .. } => pattern_byte(*seed, offset + pos),
            Payload::Zeros { .. } => 0,
            Payload::Chain(parts) => {
                let mut p = pos;
                for part in parts {
                    let l = part.len();
                    if p < l {
                        return part.byte_at(p);
                    }
                    p -= l;
                }
                unreachable!("pos bounds checked above")
            }
        }
    }

    /// Materialize to real bytes. Panics above [`MAX_MATERIALIZE`] — at
    /// paper scale payloads stay virtual by design.
    pub fn to_bytes(&self) -> Bytes {
        let len = self.len();
        assert!(
            len <= MAX_MATERIALIZE,
            "refusing to materialize {len} bytes (> {MAX_MATERIALIZE})"
        );
        if let Payload::Bytes(b) = self {
            return b.clone();
        }
        let mut v = Vec::with_capacity(len as usize);
        self.materialize_into(&mut v);
        Bytes::from(v)
    }

    /// Append this payload's bytes to `out` in one pass. Chains recurse
    /// part by part into the same buffer, so a rope fills one pre-sized
    /// allocation instead of materializing every part into a temporary
    /// that is then copied again. Callers enforce [`MAX_MATERIALIZE`]
    /// (as [`to_bytes`](Self::to_bytes) does).
    pub fn materialize_into(&self, out: &mut Vec<u8>) {
        match self {
            Payload::Bytes(b) => out.extend_from_slice(b),
            Payload::Zeros { len } => out.resize(out.len() + *len as usize, 0),
            Payload::Pattern { seed, offset, len } => {
                let mut pos = *offset;
                let end = offset + len;
                while pos < end {
                    let block = splitmix64(seed ^ (pos / 8));
                    let in_block = (pos % 8) as u32;
                    let take = ((8 - in_block) as u64).min(end - pos) as u32;
                    let shifted = block >> (8 * in_block);
                    out.extend_from_slice(&shifted.to_le_bytes()[..take as usize]);
                    pos += take as u64;
                }
            }
            Payload::Chain(parts) => {
                for part in parts {
                    part.materialize_into(out);
                }
            }
        }
    }

    /// Content equality (same bytes, regardless of representation).
    /// O(len); intended for tests and small-scale verification.
    pub fn content_eq(&self, other: &Payload) -> bool {
        if self.len() != other.len() {
            return false;
        }
        if self == other {
            return true; // cheap structural fast path
        }
        self.to_bytes() == other.to_bytes()
    }

    /// Content checksum of the payload: absorb into a fresh
    /// [`Checksum`] state and fold. Streams synthetic payloads (patterns
    /// block-wise, zero runs in closed form) without materializing them,
    /// so it is safe on any payload size.
    pub fn content_checksum(&self) -> u64 {
        let mut state = Checksum::new();
        self.absorb_to(&mut state);
        state.finalize()
    }

    /// Absorb this payload's bytes into a running [`Checksum`] state.
    /// Absorbing payloads in sequence equals checksumming their
    /// concatenation — which is why a chunked stored copy, read back as a
    /// chain of parts, digests to the stamp of the payload that was
    /// written.
    pub fn absorb_to(&self, state: &mut Checksum) {
        match self {
            Payload::Bytes(b) => state.absorb_bytes(b),
            Payload::Zeros { len } => state.absorb_zeros(*len),
            Payload::Pattern { seed, offset, len } => state.absorb_pattern(*seed, *offset, *len),
            Payload::Chain(parts) => {
                for p in parts {
                    p.absorb_to(state);
                }
            }
        }
    }
}

/// Append `part` to a chain under construction: flatten sub-chains, drop
/// empty parts, and extend the last part when `part` continues it.
fn push_merged(out: &mut Vec<Payload>, part: Payload) {
    match part {
        Payload::Chain(sub) => {
            for p in sub {
                push_merged(out, p);
            }
        }
        p if p.is_empty() => {}
        p => {
            if !out.last_mut().is_some_and(|last| last.try_extend(&p)) {
                out.push(p);
            }
        }
    }
}

/// Pattern words one generator call fills: a stack block that stays in L1.
const BLOCK_WORDS: usize = 64;

type Block = [u64; BLOCK_WORDS];

/// `out[i] = splitmix64(seed ^ (first + i))`, compiled for the build's
/// baseline: the fill of the pipelined kernel's test-only reference
/// instance.
#[cfg(test)]
fn fill_block(seed: u64, first: u64, out: &mut Block) {
    for (i, w) in out.iter_mut().enumerate() {
        *w = splitmix64(seed ^ (first + i as u64));
    }
}

/// `out[i] = splitmix64(seed ^ (first + i))`, eight words per explicit
/// AVX-512 step (`vpmullq` on `zmm`). Left to LLVM, the plain loop is
/// 4-wide wherever the target's tuning prefers 256-bit vectors
/// (`-C target-cpu=native` on recent Xeons), which halves its rate.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn fill_block_avx512(seed: u64, first: u64, out: &mut Block) {
    use std::arch::x86_64::*;
    let splat = |x: u64| _mm512_set1_epi64(x as i64);
    let (seed, m0, m1, m2) = (
        splat(seed),
        splat(0x9E37_79B9_7F4A_7C15),
        splat(0xBF58_476D_1CE4_E5B9),
        splat(0x94D0_49BB_1331_11EB),
    );
    let mut k = _mm512_add_epi64(splat(first), _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0));
    for words in out.chunks_exact_mut(8) {
        // `splitmix64(seed ^ k)` on eight consecutive `k`, with its
        // constants.
        let mut z = _mm512_add_epi64(_mm512_xor_si512(seed, k), m0);
        z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)), m1);
        z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), m2);
        z = _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z));
        // SAFETY: `words` is eight writable `u64`s, the 64 bytes the
        // unaligned store writes.
        unsafe { _mm512_storeu_si512(words.as_mut_ptr().cast(), z) };
        k = _mm512_add_epi64(k, splat(8));
    }
}

/// Whether this CPU has the AVX-512 subsets the pipelined pattern
/// kernel is compiled for (std caches the detection).
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
}

/// Stage one of the pipelined pattern kernel: successive blocks of
/// stream words from stream position `pos`. With `pos % 8 == s != 0`
/// each stream word is `(b_k >> 8s) | (b_{k+1} << (64 - 8s))` over
/// consecutive pattern words `b_k`, so the last word a block generates
/// is carried into the next.
struct StreamFill {
    seed: u64,
    /// The funnel shift in bits, `8 * (pos % 8)`.
    sh: u32,
    /// The next pattern word to generate.
    k: u64,
    /// The pattern word before `k`.
    carry: u64,
}

impl StreamFill {
    #[inline(always)]
    fn new(seed: u64, pos: u64) -> Self {
        let sh = 8 * (pos % 8) as u32;
        StreamFill {
            seed,
            sh,
            k: pos / 8 + u64::from(sh != 0),
            carry: splitmix64(seed ^ (pos / 8)),
        }
    }

    /// Fill `out` with the next [`BLOCK_WORDS`] stream words, generating
    /// pattern words with `fill`.
    #[inline(always)]
    fn next_block(&mut self, out: &mut Block, fill: impl Fn(u64, u64, &mut Block)) {
        let sh = self.sh;
        if sh == 0 {
            fill(self.seed, self.k, out);
        } else {
            let mut raw: Block = [0; BLOCK_WORDS];
            fill(self.seed, self.k, &mut raw);
            let mut prev = self.carry;
            for (w, &next) in out.iter_mut().zip(&raw) {
                *w = (prev >> sh) | (next << (64 - sh));
                prev = next;
            }
            self.carry = prev;
        }
        self.k += BLOCK_WORDS as u64;
    }
}

/// The lane multiplier (odd, so xor-then-multiply is a bijection per
/// absorb and corruption can never cancel out of a lane).
const WORD_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Distinct nonzero lane seeds.
const LANE_INIT: [u64; 4] = [splitmix64(1), splitmix64(2), splitmix64(3), splitmix64(4)];

/// One lane absorb, `(lane ^ w) * WORD_MUL`, as a scalar multiply in
/// every build. Left to LLVM, four lane chains written side by side can
/// be packed into one 64-bit vector multiply wherever the code is
/// compiled for AVX-512 (the pipelined kernel, or every loop under
/// `-C target-cpu=native`), and `vpmullq`'s latency runs the chains
/// ~2.5x slower. Whether that happens depends on the loop's shape and
/// the compiler version; the one-instruction `asm!` is opaque to the
/// vectoriser, so it never does. Other targets keep the plain multiply.
#[inline(always)]
fn lane_step(lane: u64, w: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let mut x = lane ^ w;
        // SAFETY: a register-to-register `imul` (the low 64 bits of the
        // product, i.e. `wrapping_mul`); it touches no memory and no
        // stack, and only clobbers flags, which `asm!` assumes by default.
        unsafe {
            std::arch::asm!(
                "imul {x}, {m}",
                x = inout(reg) x,
                m = in(reg) WORD_MUL,
                options(pure, nomem, nostack),
            );
        }
        x
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        (lane ^ w).wrapping_mul(WORD_MUL)
    }
}

/// Streaming content-checksum state: four multiply-xor lanes fed
/// round-robin with the stream's 8-byte little-endian words, a
/// partial-word buffer so arbitrary byte splits compose exactly, and a
/// length-aware final fold.
///
/// The digest is a pure function of the byte stream — however that
/// stream is split across payloads, chain parts, or representation
/// (bytes vs. synthetic). Word-granular absorption keeps four
/// independent multiply chains in flight instead of the
/// one-multiply-per-byte serial chain of a classic FNV loop: about
/// 17 GiB/s on real bytes and, generating the words as it goes, about
/// 14 GiB/s on a word-aligned pattern (11 GiB/s misaligned) with the
/// pipelined AVX-512 kernel and 6.5 GiB/s (4 GiB/s misaligned) with the
/// fused scalar loop (4 MiB digests on one idle vCPU of a 2-vCPU
/// AVX-512 VM). Any corruption of a word changes its lane irreversibly
/// (each absorb is a bijection), and zero runs and length changes are
/// caught by the word counter folded into
/// [`finalize`](Checksum::finalize).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum {
    lanes: [u64; 4],
    /// Bytes of the in-progress stream word, little-endian, low bytes
    /// first.
    partial: u64,
    /// How many bytes of `partial` are filled (0..8).
    partial_len: u32,
    /// Completed stream words — selects the next lane round-robin.
    words: u64,
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum::new()
    }
}

impl Checksum {
    /// A fresh state (no bytes absorbed).
    pub fn new() -> Self {
        Checksum {
            lanes: LANE_INIT,
            partial: 0,
            partial_len: 0,
            words: 0,
        }
    }

    /// Whether the stream position is on an 8-byte word boundary.
    #[inline]
    fn word_aligned(&self) -> bool {
        self.partial_len == 0
    }

    #[inline]
    fn absorb_word(&mut self, w: u64) {
        let lane = (self.words & 3) as usize;
        self.lanes[lane] = lane_step(self.lanes[lane], w);
        self.words += 1;
    }

    /// Absorb `len` bytes of `seed`'s pattern stream from position
    /// `offset`: byte-wise up to the next stream word boundary, then
    /// whole stream words through a bulk kernel, then the tail byte-wise.
    fn absorb_pattern(&mut self, seed: u64, offset: u64, len: u64) {
        let head = (u64::from(8 - self.partial_len) % 8).min(len);
        self.absorb_pattern_bytes(seed, offset, head);
        let pos = offset + head;
        let words = (len - head) / 8;
        if words > 0 {
            self.absorb_pattern_words(seed, pos, words);
        }
        let tail = pos + words * 8;
        self.absorb_pattern_bytes(seed, tail, offset + len - tail);
    }

    /// Absorb `len` pattern bytes from `pos` one pattern word at a time —
    /// for the sub-word edges of a window.
    fn absorb_pattern_bytes(&mut self, seed: u64, mut pos: u64, len: u64) {
        let end = pos + len;
        while pos < end {
            let block = splitmix64(seed ^ (pos / 8));
            let in_block = (pos % 8) as u32;
            let take = ((8 - in_block) as u64).min(end - pos) as usize;
            let shifted = block >> (8 * in_block);
            self.absorb_bytes(&shifted.to_le_bytes()[..take]);
            pos += take as u64;
        }
    }

    /// Absorb `n` whole stream words from stream position `pos` through
    /// this CPU's fastest kernel; the state must be word-aligned.
    fn absorb_pattern_words(&mut self, seed: u64, pos: u64, n: u64) {
        #[cfg(target_arch = "x86_64")]
        if has_avx512() {
            // SAFETY: this CPU has avx512f and avx512dq, the kernel's
            // target features.
            return unsafe { self.absorb_pattern_avx512(seed, pos, n) };
        }
        self.absorb_pattern_fused(seed, pos, n);
    }

    /// [`absorb_pattern_pipelined`](Self::absorb_pattern_pipelined)
    /// compiled for AVX-512, where the block fill is 8-wide `vpmullq`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn absorb_pattern_avx512(&mut self, seed: u64, pos: u64, n: u64) {
        // Closures inherit the enclosing function's target features.
        self.absorb_pattern_pipelined(seed, pos, n, |s, k, out| fill_block_avx512(s, k, out))
    }

    /// [`absorb_pattern_pipelined`](Self::absorb_pattern_pipelined)
    /// compiled for the build's baseline: a test-only reference that
    /// runs the pipeline's schedule on any CPU. The product never calls
    /// it — without AVX-512 the fused loop is faster in both phases.
    #[cfg(test)]
    fn absorb_pattern_baseline(&mut self, seed: u64, pos: u64, n: u64) {
        self.absorb_pattern_pipelined(seed, pos, n, fill_block)
    }

    /// Absorb `n` whole stream words of `seed`'s pattern from stream
    /// position `pos`; the state must be word-aligned. A two-stage
    /// pipeline over two stack blocks of [`BLOCK_WORDS`] stream words:
    /// each step first fills the next block, then absorbs the current
    /// one into the four lanes, which stay in locals for the whole run.
    /// The two stages share no data within a step, so the out-of-order
    /// core runs the (vector) generation beside the four scalar lane
    /// chains and the digest runs at the chains' latency. When `pos` is
    /// not on a pattern word boundary, every stream word straddles two
    /// generated words: the fill funnel-shifts it out of them, carrying
    /// the last generated word into the next block. Always inlined, so
    /// each instance compiles the fill with its own target features.
    #[inline(always)]
    fn absorb_pattern_pipelined(
        &mut self,
        seed: u64,
        pos: u64,
        n: u64,
        fill: impl Fn(u64, u64, &mut Block),
    ) {
        debug_assert!(self.word_aligned());
        let mut stream = StreamFill::new(seed, pos);
        let mut blocks: [Block; 2] = [[0; BLOCK_WORDS]; 2];
        let [mut now, mut next] = blocks.each_mut();
        stream.next_block(now, &fill);
        let p = (self.words & 3) as usize;
        let mut l0 = self.lanes[p];
        let mut l1 = self.lanes[(p + 1) & 3];
        let mut l2 = self.lanes[(p + 2) & 3];
        let mut l3 = self.lanes[(p + 3) & 3];
        let mut left = n;
        loop {
            let take = left.min(BLOCK_WORDS as u64) as usize;
            left -= take as u64;
            if left > 0 {
                stream.next_block(next, &fill);
            }
            let (quads, rest) = now[..take].split_at(take & !3);
            for q in quads.chunks_exact(4) {
                l0 = lane_step(l0, q[0]);
                l1 = lane_step(l1, q[1]);
                l2 = lane_step(l2, q[2]);
                l3 = lane_step(l3, q[3]);
            }
            // Only the last block can end mid-quad; its words continue
            // the round-robin from lane `p`.
            for (lane, &w) in [&mut l0, &mut l1, &mut l2].into_iter().zip(rest) {
                *lane = lane_step(*lane, w);
            }
            if left == 0 {
                break;
            }
            std::mem::swap(&mut now, &mut next);
        }
        self.lanes[p] = l0;
        self.lanes[(p + 1) & 3] = l1;
        self.lanes[(p + 2) & 3] = l2;
        self.lanes[(p + 3) & 3] = l3;
        self.words += n;
    }

    /// Absorb `n` whole stream words from stream position `pos` with
    /// generation fused into the absorb loop: the fastest form without a
    /// vector generator. The lanes live in locals for the whole run, so
    /// the hot loop is four independent xor-multiply chains plus the word
    /// generation — no per-word state traffic. A misaligned `pos`
    /// funnel-shifts each stream word out of two consecutive pattern
    /// words in registers, carrying the last one into the next quad.
    fn absorb_pattern_fused(&mut self, seed: u64, pos: u64, n: u64) {
        let sh = 8 * (pos % 8) as u32;
        if sh == 0 {
            self.absorb_fused_words(seed, pos / 8, 0, n, |_, w| w);
        } else {
            let carry = splitmix64(seed ^ (pos / 8));
            self.absorb_fused_words(seed, pos / 8 + 1, carry, n, |prev, w| {
                (prev >> sh) | (w << (64 - sh))
            });
        }
    }

    /// The fused loop over pattern words from `first`: stream word `i`
    /// is `word(b_{first+i-1}, b_{first+i})`, with `prev` standing in
    /// for `b_{first-1}`.
    #[inline(always)]
    fn absorb_fused_words(
        &mut self,
        seed: u64,
        first: u64,
        mut prev: u64,
        n: u64,
        word: impl Fn(u64, u64) -> u64,
    ) {
        let p = (self.words & 3) as usize;
        let mut l0 = self.lanes[p];
        let mut l1 = self.lanes[(p + 1) & 3];
        let mut l2 = self.lanes[(p + 2) & 3];
        let mut l3 = self.lanes[(p + 3) & 3];
        let quads = n / 4;
        let mut k = first;
        for _ in 0..quads {
            let b0 = splitmix64(seed ^ k);
            let b1 = splitmix64(seed ^ (k + 1));
            let b2 = splitmix64(seed ^ (k + 2));
            let b3 = splitmix64(seed ^ (k + 3));
            l0 = lane_step(l0, word(prev, b0));
            l1 = lane_step(l1, word(b0, b1));
            l2 = lane_step(l2, word(b1, b2));
            l3 = lane_step(l3, word(b2, b3));
            prev = b3;
            k += 4;
        }
        self.lanes[p] = l0;
        self.lanes[(p + 1) & 3] = l1;
        self.lanes[(p + 2) & 3] = l2;
        self.lanes[(p + 3) & 3] = l3;
        self.words += quads * 4;
        for k in k..first + n {
            let b = splitmix64(seed ^ k);
            self.absorb_word(word(prev, b));
            prev = b;
        }
    }

    #[inline]
    fn push_byte(&mut self, b: u8) {
        self.partial |= (b as u64) << (8 * self.partial_len);
        self.partial_len += 1;
        if self.partial_len == 8 {
            let w = self.partial;
            self.partial = 0;
            self.partial_len = 0;
            self.absorb_word(w);
        }
    }

    /// Absorb a run of real bytes.
    pub fn absorb_bytes(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        // Top up a partially-filled word first.
        while !self.word_aligned() && !rest.is_empty() {
            self.push_byte(rest[0]);
            rest = &rest[1..];
        }
        // Aligned middle, four words per step with register-resident
        // lanes (phase is loop-invariant: each step advances the
        // round-robin by a full cycle).
        let p = (self.words & 3) as usize;
        let mut quads = rest.chunks_exact(32);
        let mut l0 = self.lanes[p];
        let mut l1 = self.lanes[(p + 1) & 3];
        let mut l2 = self.lanes[(p + 2) & 3];
        let mut l3 = self.lanes[(p + 3) & 3];
        let mut n = 0u64;
        for q in &mut quads {
            let w0 = u64::from_le_bytes(q[0..8].try_into().expect("quad word"));
            let w1 = u64::from_le_bytes(q[8..16].try_into().expect("quad word"));
            let w2 = u64::from_le_bytes(q[16..24].try_into().expect("quad word"));
            let w3 = u64::from_le_bytes(q[24..32].try_into().expect("quad word"));
            l0 = lane_step(l0, w0);
            l1 = lane_step(l1, w1);
            l2 = lane_step(l2, w2);
            l3 = lane_step(l3, w3);
            n += 4;
        }
        self.lanes[p] = l0;
        self.lanes[(p + 1) & 3] = l1;
        self.lanes[(p + 2) & 3] = l2;
        self.lanes[(p + 3) & 3] = l3;
        self.words += n;
        let rest = quads.remainder();
        let mut words = rest.chunks_exact(8);
        for w in &mut words {
            self.absorb_word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.push_byte(b);
        }
    }

    /// Absorb a run of `n` zero bytes in O(log n): a zero word maps a
    /// lane to `lane · M`, so each lane soaks up `M^(its share of the
    /// run)` in closed form.
    pub fn absorb_zeros(&mut self, mut n: u64) {
        while !self.word_aligned() && n > 0 {
            self.push_byte(0);
            n -= 1;
        }
        let k = n / 8;
        if k > 0 {
            for j in 0..4u64 {
                let lane = ((self.words + j) & 3) as usize;
                let cnt = k / 4 + u64::from(j < k % 4);
                self.lanes[lane] = self.lanes[lane].wrapping_mul(pow_mul(WORD_MUL, cnt));
            }
            self.words += k;
            n -= k * 8;
        }
        // Trailing zero bytes buffer into the (all-zero) partial word.
        self.partial_len += n as u32;
    }

    /// Fold the state to the 64-bit digest. Pure: the state can keep
    /// absorbing afterwards.
    pub fn finalize(&self) -> u64 {
        let len = self
            .words
            .wrapping_mul(8)
            .wrapping_add(self.partial_len as u64);
        let mut h = self.partial.wrapping_add(splitmix64(len));
        for &lane in &self.lanes {
            h = (h ^ lane).wrapping_mul(WORD_MUL);
        }
        splitmix64(h)
    }
}

/// `base^n mod 2^64` by binary exponentiation — the closed form of a
/// zero-word run's lane transform.
fn pow_mul(mut base: u64, mut n: u64) -> u64 {
    let mut acc = 1u64;
    while n > 0 {
        if n & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        n >>= 1;
    }
    acc
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Bytes(b) => write!(f, "Bytes({}B)", b.len()),
            Payload::Pattern { seed, offset, len } => {
                write!(f, "Pattern(seed={seed:#x}, off={offset}, {len}B)")
            }
            Payload::Zeros { len } => write!(f, "Zeros({len}B)"),
            Payload::Chain(parts) => {
                write!(f, "Chain[{}B; {} parts]", self.len(), parts.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn pattern_is_deterministic() {
        let a = Payload::pattern(42, 1000);
        let b = Payload::pattern(42, 1000);
        assert_eq!(a.to_bytes(), b.to_bytes());
        let c = Payload::pattern(43, 1000);
        assert_ne!(a.to_bytes(), c.to_bytes());
    }

    #[test]
    fn pattern_slice_matches_materialized_slice() {
        let p = Payload::pattern(7, 4096);
        let full = p.to_bytes();
        for (start, len) in [(0u64, 4096u64), (1, 100), (4000, 96), (17, 0), (4095, 1)] {
            let s = p.slice(start, len);
            assert_eq!(
                s.to_bytes(),
                full.slice(start as usize..(start + len) as usize),
                "slice [{start}, +{len})"
            );
        }
    }

    #[test]
    fn pattern_byte_at_matches_stream() {
        let p = Payload::pattern(99, 300);
        let bytes = p.to_bytes();
        for i in 0..300u64 {
            assert_eq!(p.byte_at(i), bytes[i as usize]);
        }
    }

    #[test]
    fn chain_merges_adjacent_pattern_windows() {
        let p = Payload::pattern(5, 1000);
        let (a, b) = p.split_at(400);
        let rejoined = Payload::chain([a, b]);
        // Merged back into a single pattern — structural equality holds.
        assert_eq!(rejoined, p);
    }

    /// Reference for `Payload::chain`: flatten every part first, then
    /// merge adjacent compatible parts in a second pass.
    fn chain_two_pass(parts: Vec<Payload>) -> Payload {
        let mut flat: Vec<Payload> = Vec::new();
        for part in parts {
            match part {
                Payload::Chain(sub) => flat.extend(sub),
                p if p.is_empty() => {}
                p => flat.push(p),
            }
        }
        let mut merged: Vec<Payload> = Vec::new();
        for part in flat {
            match (merged.last_mut(), part) {
                (
                    Some(Payload::Pattern { seed, offset, len }),
                    Payload::Pattern {
                        seed: s2,
                        offset: o2,
                        len: l2,
                    },
                ) if *seed == s2 && *offset + *len == o2 => *len += l2,
                (Some(Payload::Zeros { len }), Payload::Zeros { len: l2 }) => *len += l2,
                (_, part) => merged.push(part),
            }
        }
        match merged.len() {
            0 => Payload::empty(),
            1 => merged.pop().unwrap(),
            _ => Payload::Chain(merged),
        }
    }

    #[test]
    fn one_pass_chain_matches_two_pass_form() {
        let stream = Payload::pattern(11, 4096);
        let mut rng = DetRng::seed(0xc4a1_0001);
        for trial in 0..500 {
            // Parts: empty payloads, zero runs, bytes, windows of one
            // stream (often back to back), and sub-chains of the same.
            let mut cursor = rng.below(64) as u64;
            let mut part = |rng: &mut DetRng| match rng.below(6) {
                0 => Payload::empty(),
                1 => Payload::zeros(1 + rng.below(8) as u64),
                2 => Payload::from_bytes(vec![rng.below(256) as u8; 1 + rng.below(4)]),
                _ => {
                    if rng.chance(0.25) {
                        cursor = rng.below(2048) as u64;
                    }
                    let len = rng.below(64) as u64;
                    let w = stream.slice(cursor, len);
                    cursor += len;
                    w
                }
            };
            let parts: Vec<Payload> = (0..rng.below(8))
                .map(|_| {
                    if rng.chance(0.3) {
                        let n = rng.below(4);
                        Payload::chain((0..n).map(|_| part(&mut rng)).collect::<Vec<_>>())
                    } else {
                        part(&mut rng)
                    }
                })
                .collect();
            let one = Payload::chain(parts.clone());
            assert_eq!(one, chain_two_pass(parts.clone()), "trial {trial}");
            let mut bytes = Vec::new();
            for p in &parts {
                p.materialize_into(&mut bytes);
            }
            assert_eq!(&one.to_bytes()[..], &bytes[..], "trial {trial}");
        }
        // A window split across a sub-chain boundary merges back whole.
        let (a, b) = stream.slice(0, 300).split_at(100);
        let (b1, b2) = b.split_at(100);
        let nested = Payload::chain([
            a,
            Payload::chain([b1, Payload::zeros(0), Payload::from_bytes(&b"x"[..])]),
        ]);
        assert_eq!(
            Payload::chain([nested, b2]),
            Payload::chain([
                stream.slice(0, 200),
                Payload::from_bytes(&b"x"[..]),
                stream.slice(200, 100),
            ])
        );
    }

    #[test]
    fn chain_of_mixed_parts_reads_correctly() {
        let a = Payload::from_bytes(&b"hello "[..]);
        let b = Payload::from_bytes(&b"world"[..]);
        let c = Payload::chain([a, Payload::zeros(2), b]);
        assert_eq!(c.len(), 13);
        assert_eq!(&c.to_bytes()[..], b"hello \0\0world");
        assert_eq!(c.byte_at(7), 0);
        assert_eq!(c.byte_at(8), b'w');
    }

    #[test]
    fn materialize_into_matches_to_bytes_for_every_shape() {
        let shapes = [
            Payload::from_bytes(&b"hello"[..]),
            Payload::zeros(17),
            Payload::pattern(42, 100).slice(3, 90),
            Payload::chain([
                Payload::from_bytes(&b"abcd"[..]),
                Payload::zeros(3),
                Payload::pattern(7, 50),
                Payload::chain([Payload::pattern(9, 10), Payload::from_bytes(&b"xy"[..])]),
            ]),
        ];
        for p in shapes {
            let mut out = b"prefix".to_vec();
            p.materialize_into(&mut out);
            assert_eq!(&out[..6], b"prefix");
            assert_eq!(&out[6..], &p.to_bytes()[..]);
        }
    }

    #[test]
    fn chain_slice_spanning_parts() {
        let c = Payload::chain([
            Payload::from_bytes(&b"abcd"[..]),
            Payload::from_bytes(&b"efgh"[..]),
            Payload::from_bytes(&b"ijkl"[..]),
        ]);
        assert_eq!(&c.slice(2, 8).to_bytes()[..], b"cdefghij");
    }

    #[test]
    fn huge_payload_slicing_never_materializes() {
        // 2 TB synthetic payload: all structural operations must be cheap.
        let p = Payload::pattern(1, 2 << 40);
        let s = p.slice(1 << 40, 1 << 20);
        assert_eq!(s.len(), 1 << 20);
        let (l, r) = p.split_at(1 << 39);
        assert_eq!(l.len() + r.len(), p.len());
    }

    #[test]
    #[should_panic(expected = "refusing to materialize")]
    fn materializing_huge_payload_panics() {
        let _ = Payload::pattern(1, 2 << 40).to_bytes();
    }

    #[test]
    fn content_eq_across_representations() {
        let p = Payload::pattern(3, 64);
        let materialized = Payload::from_bytes(p.to_bytes());
        assert!(p.content_eq(&materialized));
        assert_ne!(p, materialized); // structurally different
    }

    #[test]
    fn zeros_and_empty() {
        assert!(Payload::empty().is_empty());
        let z = Payload::zeros(16);
        assert_eq!(z.to_bytes(), Bytes::from(vec![0u8; 16]));
    }

    #[test]
    fn checksum_distinguishes_content() {
        let a = Payload::pattern(1, 128);
        let b = Payload::pattern(2, 128);
        assert_ne!(a.content_checksum(), b.content_checksum());
        assert_eq!(
            a.content_checksum(),
            Payload::from_bytes(a.to_bytes()).content_checksum()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        Payload::pattern(1, 10).slice(5, 6);
    }

    #[test]
    fn checksum_is_representation_independent() {
        // Same bytes through every representation → same checksum.
        let shapes = [
            Payload::pattern(11, 300).slice(7, 200),
            Payload::zeros(129),
            Payload::chain([
                Payload::from_bytes(&b"abc"[..]),
                Payload::zeros(17),
                Payload::pattern(3, 64).slice(1, 60),
            ]),
        ];
        for p in shapes {
            let materialized = Payload::from_bytes(p.to_bytes());
            assert_eq!(p.content_checksum(), materialized.content_checksum());
        }
    }

    #[test]
    fn checksum_state_composes_like_concatenation() {
        let a = Payload::pattern(5, 100);
        let b = Payload::zeros(33);
        let c = Payload::from_bytes(&b"tail"[..]);
        let whole = Payload::chain([a.clone(), b.clone(), c.clone()]);
        let mut state = Checksum::new();
        a.absorb_to(&mut state);
        b.absorb_to(&mut state);
        c.absorb_to(&mut state);
        assert_eq!(whole.content_checksum(), state.finalize());
    }

    #[test]
    fn checksum_is_split_invariant_at_any_byte_boundary() {
        // The digest must be a pure function of the byte stream no
        // matter how awkwardly the stream is partitioned — stored copies
        // come back as chains of arbitrary-size parts.
        let bytes: Vec<u8> = (0..97u8).collect();
        let expected = Payload::from_bytes(bytes.clone()).content_checksum();
        for split in [1usize, 3, 7, 8, 9, 31, 32, 33, 64, 96] {
            let mut state = Checksum::new();
            state.absorb_bytes(&bytes[..split]);
            state.absorb_bytes(&bytes[split..]);
            assert_eq!(state.finalize(), expected, "diverged at split {split}");
        }
        // Zero runs interleaved with bytes at odd offsets.
        let with_zeros = Payload::chain([
            Payload::from_bytes(&bytes[..5]),
            Payload::zeros(41),
            Payload::from_bytes(&bytes[5..]),
        ]);
        let materialized = Payload::from_bytes(with_zeros.to_bytes());
        assert_eq!(
            with_zeros.content_checksum(),
            materialized.content_checksum()
        );
    }

    #[test]
    fn checksum_detects_single_byte_and_length_changes() {
        let bytes: Vec<u8> = (0..64u8).collect();
        let clean = Payload::from_bytes(bytes.clone()).content_checksum();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0xFF;
            assert_ne!(
                Payload::from_bytes(flipped).content_checksum(),
                clean,
                "flip at byte {i} undetected"
            );
        }
        assert_ne!(
            Payload::from_bytes(&bytes[..63]).content_checksum(),
            clean,
            "truncation undetected"
        );
        assert_ne!(
            Payload::zeros(64).content_checksum(),
            Payload::zeros(72).content_checksum(),
            "zero-run length change undetected"
        );
    }

    #[test]
    fn pattern_digest_known_answers() {
        let digest = |offset, len| {
            Payload::Pattern {
                seed: 0x1234_5678,
                offset,
                len,
            }
            .content_checksum()
        };
        assert_eq!(digest(0, 4 << 20), 0x3d14_1ea6_bc03_dee9);
        assert_eq!(digest(3, 4 << 20), 0xd4d1_46ef_a440_6d66);
        for (words, want) in [
            (0u64, 0xbcb2_1e79_18f9_475f_u64),
            (7, 0x5543_3193_a5a7_6f8e),
            (31, 0x6ec6_c61a_79f6_a55f),
            (32, 0x0430_d62a_490f_9510),
            (33, 0x13c5_ff12_5597_0e56),
            (2047, 0x48cc_b850_4d43_5274),
            (2048, 0x45ff_9304_358e_55f5),
            // The pipeline's edges: one block short of, at and past one,
            // two and three blocks.
            (63, 0xb5fa_1f0b_5668_4eb9),
            (64, 0xae9d_f7f0_a503_f2f8),
            (65, 0xedf6_690f_9d16_1a49),
            (127, 0x4768_50de_fde3_d45d),
            (128, 0xd2fa_13cb_d135_98a5),
            (129, 0xd7ea_12b2_b076_8dc0),
            (191, 0xa141_5a3f_3bb7_99f9),
            (192, 0x7a53_815c_a3f4_7455),
            (193, 0xeee4_5492_85a2_52dc),
        ] {
            assert_eq!(digest(0, words * 8), want, "{words} words");
        }
        // Misaligned windows: every funnel shift carries a word across
        // blocks, and the last block is partial.
        for (offset, len, want) in [
            (1u64, 4u64 << 20, 0xe573_1f8d_a0e0_c20c_u64),
            (5, 4 << 20, 0x706b_1744_e700_a615),
            (7, 4 << 20, 0xde52_2e25_93dc_51a7),
            (3, 3 * 64 * 8 + 13, 0x2f54_9dbd_62b3_9efd),
        ] {
            assert_eq!(digest(offset, len), want, "offset {offset}, {len} bytes");
        }
    }

    /// A bulk pattern kernel: absorb `n` stream words from a position.
    type Kernel = fn(&mut Checksum, u64, u64, u64);

    /// The pipelined kernel's product instance on this CPU, if it has
    /// one.
    fn vector_kernel() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if has_avx512() {
            // SAFETY: only handed out after `has_avx512` found the
            // instance's target features on this CPU.
            return Some(|state, seed, pos, n| unsafe {
                state.absorb_pattern_avx512(seed, pos, n)
            });
        }
        None
    }

    /// The state after absorbing `prefix`, and the digest of `prefix`
    /// followed by the pattern window's materialised bytes.
    fn prefixed(prefix: &[u8], window: &Payload) -> (Checksum, u64) {
        let mut start = Checksum::new();
        start.absorb_bytes(prefix);
        let mut whole = start;
        whole.absorb_bytes(&window.to_bytes());
        (start, whole.finalize())
    }

    #[test]
    fn pattern_kernels_agree_with_materialized_bytes() {
        let mut kernels: Vec<(&str, Kernel)> =
            vec![("baseline pipelined", |state, seed, pos, n| {
                state.absorb_pattern_baseline(seed, pos, n)
            })];
        match vector_kernel() {
            Some(k) => kernels.push(("avx512 pipelined", k)),
            None => eprintln!("no AVX-512 on this CPU: its kernel instance is not checked"),
        }
        let names: Vec<&str> = kernels.iter().map(|&(name, _)| name).collect();
        eprintln!(
            "pattern kernels checked: fused scalar, {}",
            names.join(", ")
        );
        let mut rng = DetRng::seed(0x5eed_d16e);
        for case in 0..500 {
            let seed = splitmix64(case);
            let offset = rng.below(1 << 20) as u64;
            // Up to five blocks, mostly not a multiple of the block.
            let words = rng.below(5 * BLOCK_WORDS + 1) as u64;
            // 0, 8, 16 or 24 bytes first: every starting lane phase.
            let prefix: Vec<u8> = (0..8 * rng.below(4)).map(|i| (i * 37) as u8).collect();
            let window = Payload::Pattern {
                seed,
                offset,
                len: words * 8,
            };
            let (start, want) = prefixed(&prefix, &window);
            let tag = format!("case {case}: seed {seed:#x} offset {offset} words {words}");
            let mut fused = start;
            fused.absorb_pattern_fused(seed, offset, words);
            assert_eq!(fused.finalize(), want, "fused scalar loop, {tag}");
            for &(name, kernel) in &kernels {
                let mut blocks = start;
                kernel(&mut blocks, seed, offset, words);
                assert_eq!(blocks.finalize(), want, "{name} kernel, {tag}");
            }
            let mut dispatched = start;
            window.absorb_to(&mut dispatched);
            assert_eq!(dispatched.finalize(), want, "absorb_to, {tag}");
        }
    }

    #[test]
    fn misaligned_windows_digest_like_their_bytes() {
        // A stream word boundary off the pattern word boundary: from the
        // window's offset, or from a partial word left by a byte part.
        for in_word in 0..8u64 {
            for partial_len in 0..8usize {
                let prefix: Vec<u8> = (0..partial_len as u8).map(|b| b ^ 0xa5).collect();
                let window = Payload::Pattern {
                    seed: 0xfeed,
                    offset: 8 * 1000 + in_word,
                    len: 3 * 8 * BLOCK_WORDS as u64 + 13,
                };
                let (mut state, want) = prefixed(&prefix, &window);
                window.absorb_to(&mut state);
                assert_eq!(
                    state.finalize(),
                    want,
                    "offset % 8 = {in_word}, partial_len = {partial_len}"
                );
            }
        }
    }

    #[test]
    fn pattern_chains_digest_like_their_bytes() {
        let mut rng = DetRng::seed(0xc4a1);
        for case in 0..200 {
            let parts: Vec<Payload> = (0..1 + rng.below(6))
                .map(|_| match rng.below(3) {
                    0 => Payload::Pattern {
                        seed: splitmix64(case),
                        offset: rng.below(1 << 16) as u64,
                        len: rng.below(3000) as u64,
                    },
                    1 => Payload::zeros(rng.below(100) as u64),
                    _ => Payload::from_bytes(vec![rng.below(256) as u8; rng.below(40)]),
                })
                .collect();
            let chain = Payload::chain(parts);
            assert_eq!(
                chain.content_checksum(),
                Payload::from_bytes(chain.to_bytes()).content_checksum(),
                "case {case}: {chain:?}"
            );
        }
    }

    #[test]
    fn huge_synthetic_checksum_never_materializes() {
        // Checksumming must stream: a 2 TB zero run is O(log n), and a
        // large pattern is block-wise with no allocation.
        let z = Payload::zeros(2 << 40);
        let _ = z.content_checksum();
        let p = Payload::pattern(9, 8 << 20);
        assert_eq!(
            p.content_checksum(),
            Payload::from_bytes(p.to_bytes()).content_checksum()
        );
    }
}
