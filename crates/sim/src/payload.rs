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
use std::sync::OnceLock;

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

/// A block generator compiled for wider vectors than the build's
/// baseline.
///
/// # Safety
///
/// Call only on a CPU that has the generator's target features; the one
/// [`vector_fill`] returns has been detected on this CPU.
type VectorFill = unsafe fn(u64, u64, &mut Block);

/// `out[i] = splitmix64(seed ^ (first + i))`. The words are independent
/// of each other, so the loop vectorises wherever the target has a
/// 64-bit vector multiply. Always inlined, so each caller compiles the
/// loop with its own target features.
#[inline(always)]
fn fill_block(seed: u64, first: u64, out: &mut Block) {
    for (i, w) in out.iter_mut().enumerate() {
        *w = splitmix64(seed ^ (first + i as u64));
    }
}

/// [`fill_block`] compiled for AVX-512, where LLVM emits 8-wide `vpmullq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn fill_block_avx512(seed: u64, first: u64, out: &mut Block) {
    fill_block(seed, first, out)
}

/// This CPU's vector block generator, if it has one; detected once per
/// process. Without one, buffering the generated words only adds memory
/// traffic, so aligned windows keep the fused scalar loop.
fn vector_fill() -> Option<VectorFill> {
    static PICK: OnceLock<Option<VectorFill>> = OnceLock::new();
    *PICK.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            return Some(fill_block_avx512 as VectorFill);
        }
        None
    })
}

/// The lane multiplier (odd, so xor-then-multiply is a bijection per
/// absorb and corruption can never cancel out of a lane).
const WORD_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Distinct nonzero lane seeds.
const LANE_INIT: [u64; 4] = [splitmix64(1), splitmix64(2), splitmix64(3), splitmix64(4)];

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
/// 15 GiB/s on real bytes and, generating the words as it goes, about
/// 9 GiB/s on a pattern with the AVX-512 block generator and 4–7 GiB/s
/// without it (4 MiB digests on a 2-vCPU AVX-512 VM). Any corruption of
/// a word changes its lane irreversibly (each absorb is a bijection),
/// and zero runs and length changes are caught by the word counter
/// folded into [`finalize`](Checksum::finalize).
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
        self.lanes[lane] = (self.lanes[lane] ^ w).wrapping_mul(WORD_MUL);
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
        let vector = vector_fill();
        if vector.is_none() && pos.is_multiple_of(8) {
            let quads = words / 4;
            self.absorb_pattern_quads(seed, pos / 8, quads);
            for k in pos / 8 + quads * 4..pos / 8 + words {
                self.absorb_word(splitmix64(seed ^ k));
            }
        } else if words > 0 {
            self.absorb_pattern_blocks(seed, pos, words, vector);
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

    /// Absorb `n` whole stream words of `seed`'s pattern from stream
    /// position `pos`; the state must be word-aligned. Generate, then
    /// absorb: each step fills a block of [`BLOCK_WORDS`] pattern words
    /// (through `vector` when given) and feeds it to the four lanes,
    /// which stay in locals for the whole run. When `pos` is not on a
    /// pattern word boundary, every stream word straddles two generated
    /// words and is funnel-shifted out of them, so a misaligned window
    /// runs at block speed too.
    fn absorb_pattern_blocks(&mut self, seed: u64, pos: u64, n: u64, vector: Option<VectorFill>) {
        debug_assert!(self.word_aligned());
        let sh = 8 * (pos % 8) as u32;
        let mut k = pos / 8 + u64::from(sh != 0);
        // `raw[0]` holds the last generated word of the previous block:
        // with `sh != 0` the block's first stream word starts in it.
        let mut raw = [0u64; BLOCK_WORDS + 1];
        raw[BLOCK_WORDS] = splitmix64(seed ^ (pos / 8));
        let mut shifted: Block = [0; BLOCK_WORDS];
        let p = (self.words & 3) as usize;
        let mut l0 = self.lanes[p];
        let mut l1 = self.lanes[(p + 1) & 3];
        let mut l2 = self.lanes[(p + 2) & 3];
        let mut l3 = self.lanes[(p + 3) & 3];
        let mut left = n;
        while left > 0 {
            raw[0] = raw[BLOCK_WORDS];
            let fresh: &mut Block = (&mut raw[1..]).try_into().expect("one block");
            match vector {
                // SAFETY: `vector_fill` hands out a generator only after
                // `is_x86_feature_detected!` found avx512f and avx512dq on
                // this CPU.
                Some(fill) => unsafe { fill(seed, k, fresh) },
                None => fill_block(seed, k, fresh),
            }
            let words: &Block = if sh == 0 {
                fresh
            } else {
                for (w, pair) in shifted.iter_mut().zip(raw.windows(2)) {
                    *w = (pair[0] >> sh) | (pair[1] << (64 - sh));
                }
                &shifted
            };
            let take = left.min(BLOCK_WORDS as u64) as usize;
            let (quads, rest) = words[..take].split_at(take & !3);
            for q in quads.chunks_exact(4) {
                l0 = (l0 ^ q[0]).wrapping_mul(WORD_MUL);
                l1 = (l1 ^ q[1]).wrapping_mul(WORD_MUL);
                l2 = (l2 ^ q[2]).wrapping_mul(WORD_MUL);
                l3 = (l3 ^ q[3]).wrapping_mul(WORD_MUL);
            }
            // Only the last block can end mid-quad; its words continue
            // the round-robin from lane `p`.
            for (lane, &w) in [&mut l0, &mut l1, &mut l2].into_iter().zip(rest) {
                *lane = (*lane ^ w).wrapping_mul(WORD_MUL);
            }
            left -= take as u64;
            k += BLOCK_WORDS as u64;
        }
        self.lanes[p] = l0;
        self.lanes[(p + 1) & 3] = l1;
        self.lanes[(p + 2) & 3] = l2;
        self.lanes[(p + 3) & 3] = l3;
        self.words += n;
    }

    /// Absorb `quads * 4` consecutive synthetic pattern blocks starting
    /// at `first_block`, word-aligned: generation fused into the absorb
    /// loop, the fastest form without a vector generator. The lanes live
    /// in locals for the whole run, so the hot loop is four independent
    /// xor-multiply chains plus the block generation — no per-word state
    /// traffic.
    fn absorb_pattern_quads(&mut self, seed: u64, first_block: u64, quads: u64) {
        let p = (self.words & 3) as usize;
        let mut l0 = self.lanes[p];
        let mut l1 = self.lanes[(p + 1) & 3];
        let mut l2 = self.lanes[(p + 2) & 3];
        let mut l3 = self.lanes[(p + 3) & 3];
        let mut k = first_block;
        for _ in 0..quads {
            l0 = (l0 ^ splitmix64(seed ^ k)).wrapping_mul(WORD_MUL);
            l1 = (l1 ^ splitmix64(seed ^ (k + 1))).wrapping_mul(WORD_MUL);
            l2 = (l2 ^ splitmix64(seed ^ (k + 2))).wrapping_mul(WORD_MUL);
            l3 = (l3 ^ splitmix64(seed ^ (k + 3))).wrapping_mul(WORD_MUL);
            k += 4;
        }
        self.lanes[p] = l0;
        self.lanes[(p + 1) & 3] = l1;
        self.lanes[(p + 2) & 3] = l2;
        self.lanes[(p + 3) & 3] = l3;
        self.words += quads * 4;
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
            l0 = (l0 ^ w0).wrapping_mul(WORD_MUL);
            l1 = (l1 ^ w1).wrapping_mul(WORD_MUL);
            l2 = (l2 ^ w2).wrapping_mul(WORD_MUL);
            l3 = (l3 ^ w3).wrapping_mul(WORD_MUL);
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
        ] {
            assert_eq!(digest(0, words * 8), want, "{words} words");
        }
    }

    fn generator_name() -> &'static str {
        if vector_fill().is_some() {
            "avx512"
        } else {
            "scalar (no AVX-512 on this CPU)"
        }
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
        eprintln!("pattern block generator: {}", generator_name());
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
            if offset.is_multiple_of(8) {
                let mut scalar = start;
                scalar.absorb_pattern_quads(seed, offset / 8, words / 4);
                for k in offset / 8 + words / 4 * 4..offset / 8 + words {
                    scalar.absorb_word(splitmix64(seed ^ k));
                }
                assert_eq!(scalar.finalize(), want, "scalar loop, {tag}");
            }
            for (name, vector) in [(generator_name(), vector_fill()), ("plain block", None)] {
                let mut blocks = start;
                blocks.absorb_pattern_blocks(seed, offset, words, vector);
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
