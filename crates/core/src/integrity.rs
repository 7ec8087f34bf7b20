//! Verify by descriptor: the per-job digest memo behind every stamp and
//! verify of the integrity plane.
//!
//! A [`Payload::Pattern`] *is* its `(seed, offset, len)` descriptor — the
//! bytes are a pure function of it, and so is their digest. The write
//! path digests that descriptor once when it stamps the record; every
//! later verify of a clean copy fetches the very same descriptor back
//! (a record's pieces are stored as one extent, see
//! [`SparseBuffer::write`](univistor_sim::SparseBuffer::write)) and would
//! regenerate and re-absorb identical bytes only to reach the identical
//! answer. A corrupted copy never looks like that: the fault injector
//! hands back flipped [`Payload::Bytes`], a different payload, which is
//! digested for real. So the [`Verifier`] remembers `descriptor → digest`
//! per job and answers a repeated descriptor in O(1), while every verify
//! point still compares a digest of the fetched payload against the
//! write-commit stamp.
//!
//! * **Why a memo and not `Checksum::combine`:** the lane step
//!   `(lane ^ w) · M` mixes xor with multiplication mod 2^64, so the state
//!   after absorbing `b` is not derivable from the digests of `a` and `b`
//!   — a `crc32_combine` analogue cannot exist for this digest.
//! * **Why per job:** a process-wide memo would let one job warm the next
//!   (hit/miss counters stop repeating between identical fresh jobs) and
//!   would outlive the data it describes. The memo is owned by the job's
//!   `Verifier` and freed with it.
//! * **Why the flush gather still digests:** the PFS copy outlives the
//!   job and its memo, so the bytes about to become durable are absorbed
//!   for real — `verify(VerifySite::Flush, ..)` bypasses the lookup.
//! * **The two constants:** only single-descriptor patterns of at least
//!   [`MEMO_MIN_LEN`] are remembered, and the memo holds at most
//!   [`MEMO_MAX_ENTRIES`] descriptors, clearing and restarting when full.
//!   The floor is about table size, not lookup cost: it keeps a job of
//!   many small records (the op-bound `ior_small*` shapes write 16k 4 KiB
//!   records) from churning the capped table and from paying its memory,
//!   and leaves that write path exactly as it was. The cap bounds the
//!   table at 33 B per slot; the VPIC/BD-CATS shape holds ≈ 2 048
//!   descriptors in 4 096 slots, ≈ 132 KiB.
//!
//! [`Payload::content_checksum`] stays uncached: it is the oracle the
//! memo is tested against.

use crate::hash::FoldMap;
use crate::metadata::{ClientId, SegKey, SegmentRecord};
use crate::metrics::{DigestBytes, IntegrityMetrics, JobMetrics, VerifySite};
use crate::scrub::{CorruptQueue, CorruptReport};
use crate::va::{Tier, VirtualAddr};
use std::sync::{Arc, OnceLock, RwLock};
use univistor_sim::{Payload, SimError, SimResult};

/// Shortest pattern the memo remembers.
pub const MEMO_MIN_LEN: u64 = 64 << 10;

/// Most descriptors the memo holds before it clears and restarts.
pub const MEMO_MAX_ENTRIES: usize = 8192;

/// `(seed, offset, len)` of a [`Payload::Pattern`].
type Descriptor = (u64, u64, u64);

/// Column of [`DigestBytes`] for bytes digested.
const ABSORBED: usize = 0;
/// Column for bytes answered from the memo.
const MEMO: usize = 1;

/// The job's digest authority: every product-side stamp and verify goes
/// through it. See the module docs.
#[derive(Debug, Default)]
pub struct Verifier {
    /// The digest memo. Starts unallocated and grows with use, so a job
    /// that never writes a large pattern pays nothing. A leaf lock, and
    /// uncounted.
    memo: RwLock<FoldMap<Descriptor, u64>>,
    /// The job panel whose integrity block the instruments view, taken at
    /// the first digest (see [`JobMetrics::integrity_handles`]).
    panel: Arc<JobMetrics>,
    metrics: OnceLock<IntegrityMetrics>,
}

impl Verifier {
    /// A verifier reporting into `panel`; `Verifier::default()` reports
    /// into a panel of its own.
    pub fn new(panel: Arc<JobMetrics>) -> Self {
        Verifier {
            panel,
            ..Verifier::default()
        }
    }

    fn metrics(&self) -> &IntegrityMetrics {
        self.metrics.get_or_init(|| self.panel.integrity_handles())
    }

    /// The write-commit stamp of `payload` — bit-identical to
    /// [`Payload::content_checksum`].
    pub fn stamp(&self, payload: &Payload) -> u64 {
        self.digest(&self.metrics().stamp_bytes, payload, true)
    }

    /// Whether `payload` digests to `sum`, at verify point `site`. The
    /// flush gather is the durability edge and always digests the bytes.
    pub fn verify(&self, site: VerifySite, payload: &Payload, sum: u64) -> bool {
        let bytes = &self.metrics().verify_bytes[site as usize];
        self.digest(bytes, payload, site != VerifySite::Flush) == sum
    }

    /// Descriptors currently remembered.
    pub fn memo_entries(&self) -> usize {
        self.memo.read().expect("digest memo poisoned").len()
    }

    fn digest(&self, bytes: &DigestBytes, payload: &Payload, use_memo: bool) -> u64 {
        let key = match *payload {
            Payload::Pattern { seed, offset, len } if use_memo && len >= MEMO_MIN_LEN => {
                (seed, offset, len)
            }
            _ => {
                bytes[ABSORBED].add(payload.len());
                return payload.content_checksum();
            }
        };
        let known = self
            .memo
            .read()
            .expect("digest memo poisoned")
            .get(&key)
            .copied();
        if let Some(digest) = known {
            bytes[MEMO].add(key.2);
            return digest;
        }
        let digest = payload.content_checksum();
        bytes[ABSORBED].add(key.2);
        let mut memo = self.memo.write().expect("digest memo poisoned");
        if memo.len() >= MEMO_MAX_ENTRIES {
            memo.clear();
        }
        memo.insert(key, digest);
        // Under the lock, so the gauge never lags the map.
        self.metrics().memo_entries.set(memo.len() as i64);
        digest
    }
}

/// Stamp every sealed record of one write: `records` are the coalesced
/// `(logical offset, record)` pairs of `payload` written at `offset`, and
/// each stamp digests exactly its record's span of the payload — once,
/// after coalescing has settled the record boundaries. A record spanning
/// the whole payload (every small write) digests it in place.
pub(crate) fn stamp_records(
    verifier: &Verifier,
    payload: &Payload,
    offset: u64,
    records: &mut [(u64, SegmentRecord)],
) {
    let total = payload.len();
    for (off, rec) in records {
        rec.checksum = Some(if rec.len == total {
            verifier.stamp(payload)
        } else {
            verifier.stamp(&payload.slice(*off - offset, rec.len))
        });
    }
}

/// One fetched copy of a stamped record and the window wanted out of it —
/// the input of [`verified_clip`].
pub(crate) struct StampedFetch<'a> {
    /// Verify point: labels the failure counter and the digest bytes.
    pub site: VerifySite,
    /// `site` and `offset` of the [`SimError::Integrity`] raised when no
    /// clean copy exists (its `len` is `clip_len`).
    pub error_site: &'static str,
    pub error_offset: u64,
    /// The record's write-commit stamp and full length.
    pub sum: u64,
    pub rec_len: u64,
    /// The wanted window, relative to the record base.
    pub clip_off: u64,
    pub clip_len: u64,
    /// The copy `payload` was fetched from (record-base VA).
    pub source: (ClientId, VirtualAddr),
    pub payload: Payload,
    pub tier: Tier,
    pub verifier: &'a Verifier,
    pub metrics: Option<&'a JobMetrics>,
    /// Where bad copies are reported for online repair, and under which
    /// record key.
    pub report_to: Option<(&'a CorruptQueue, SegKey)>,
}

/// The integrity ladder shared by the read fetch and the flush gather:
/// verify the fetched whole-record payload against its stamp and clip the
/// wanted window back out; on a failure count it, report the bad copy,
/// and reroute to the record's other healthy copy (`alternate`, fetched
/// through `refetch`). The caller never sees wrong bytes: the result is a
/// verified clip, or [`SimError::Integrity`] when no clean copy exists.
pub(crate) fn verified_clip(
    fetch: StampedFetch<'_>,
    alternate: impl FnOnce() -> Option<(ClientId, VirtualAddr)>,
    refetch: &mut dyn FnMut(ClientId, VirtualAddr, u64) -> SimResult<(Payload, Tier)>,
) -> SimResult<(Payload, Tier)> {
    let StampedFetch {
        site,
        sum,
        rec_len,
        clip_off,
        clip_len,
        verifier,
        metrics,
        report_to,
        ..
    } = fetch;
    // Skip the clip when the window spans the record.
    let clip = |payload: Payload, tier: Tier| {
        if clip_off == 0 && clip_len == rec_len {
            (payload, tier)
        } else {
            (payload.slice(clip_off, clip_len), tier)
        }
    };
    let failed = |(client, va): (ClientId, VirtualAddr)| {
        if let Some(m) = metrics {
            m.record_verify_failure(site);
        }
        if let Some((queue, key)) = report_to {
            queue.push(CorruptReport {
                key,
                client,
                va,
                len: rec_len,
            });
        }
    };
    if verifier.verify(site, &fetch.payload, sum) {
        return Ok(clip(fetch.payload, fetch.tier));
    }
    failed(fetch.source);
    if let Some((alt_client, alt_va)) = alternate() {
        let (alt_payload, alt_tier) = refetch(alt_client, alt_va, rec_len)?;
        if verifier.verify(site, &alt_payload, sum) {
            return Ok(clip(alt_payload, alt_tier));
        }
        failed((alt_client, alt_va));
    }
    Err(SimError::Integrity {
        site: fetch.error_site.into(),
        offset: fetch.error_offset,
        len: clip_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use univistor_sim::rng::DetRng;

    /// Digest through the verifier twice (cold, then warm) and against
    /// the oracle.
    fn assert_matches_oracle(v: &Verifier, p: &Payload) {
        let oracle = p.content_checksum();
        assert_eq!(v.stamp(p), oracle, "cold stamp of {p:?}");
        assert_eq!(v.stamp(p), oracle, "warm stamp of {p:?}");
        for site in [
            VerifySite::Read,
            VerifySite::Flush,
            VerifySite::Tiering,
            VerifySite::Repair,
            VerifySite::Scrub,
        ] {
            assert!(v.verify(site, p, oracle), "{site:?} verify of {p:?}");
            assert!(
                !v.verify(site, p, oracle ^ 1),
                "{site:?} accepted a bad sum"
            );
        }
    }

    #[test]
    fn memo_digest_equals_content_checksum_for_every_shape() {
        let v = Verifier::default();
        let mut rng = DetRng::seed(0x19);
        for _ in 0..40 {
            let seed = rng.below(usize::MAX) as u64;
            let offset = rng.below(1 << 30) as u64;
            let len = MEMO_MIN_LEN / 2 + rng.below(4 * MEMO_MIN_LEN as usize) as u64;
            let window = Payload::Pattern { seed, offset, len };
            assert_matches_oracle(&v, &window);
            let bytes = Payload::from_bytes(Payload::pattern(seed, 4096).to_bytes());
            assert_matches_oracle(&v, &bytes);
            assert_matches_oracle(&v, &Payload::zeros(len));
            let chain = Payload::chain([window.clone(), Payload::zeros(17), bytes]);
            assert_matches_oracle(&v, &chain);
        }
    }

    #[test]
    fn floor_is_exactly_memo_min_len() {
        let v = Verifier::default();
        for (len, remembered) in [
            (MEMO_MIN_LEN - 1, false),
            (MEMO_MIN_LEN, true),
            (MEMO_MIN_LEN + 1, true),
        ] {
            let before = v.memo_entries();
            assert_matches_oracle(&v, &Payload::pattern(7, len));
            assert_eq!(
                v.memo_entries() - before,
                usize::from(remembered),
                "len {len}"
            );
        }
    }

    #[test]
    fn only_single_descriptor_patterns_are_remembered() {
        let v = Verifier::default();
        let big = 2 * MEMO_MIN_LEN;
        v.stamp(&Payload::zeros(big));
        v.stamp(&Payload::from_bytes(vec![3u8; big as usize]));
        v.stamp(&Payload::chain([
            Payload::pattern(1, big),
            Payload::pattern(2, big),
        ]));
        assert_eq!(v.memo_entries(), 0);
        // The flush gather neither consults nor fills the memo.
        let p = Payload::pattern(5, big);
        assert!(v.verify(VerifySite::Flush, &p, p.content_checksum()));
        assert_eq!(v.memo_entries(), 0);
    }

    #[test]
    fn memo_clears_and_restarts_at_the_cap() {
        let v = Verifier::default();
        let window = |i: u64| Payload::Pattern {
            seed: 11,
            offset: i * MEMO_MIN_LEN,
            len: MEMO_MIN_LEN,
        };
        let first = window(0).content_checksum();
        for i in 0..MEMO_MAX_ENTRIES as u64 {
            v.stamp(&window(i));
        }
        assert_eq!(v.memo_entries(), MEMO_MAX_ENTRIES);
        // One past the cap: cleared, then restarted with the newcomer.
        let extra = window(MEMO_MAX_ENTRIES as u64);
        assert_eq!(v.stamp(&extra), extra.content_checksum());
        assert_eq!(v.memo_entries(), 1);
        // A forgotten descriptor digests to the same answer again.
        assert_eq!(v.stamp(&window(0)), first);
        assert!(v.verify(VerifySite::Read, &window(0), first));
        assert_eq!(v.memo_entries(), 2);
    }

    #[test]
    fn digest_bytes_split_absorbed_from_memo() {
        let m = Arc::new(JobMetrics::new());
        let v = Verifier::new(Arc::clone(&m));
        let p = Payload::pattern(9, 2 * MEMO_MIN_LEN);
        let sum = v.stamp(&p);
        assert!(v.verify(VerifySite::Read, &p, sum));
        assert!(v.verify(VerifySite::Flush, &p, sum));
        let dirty = Payload::from_bytes(vec![1u8; 100]);
        assert!(!v.verify(VerifySite::Read, &dirty, sum));
        let snap = m.snapshot();
        let bytes = |site, source| {
            snap.counter(
                "univistor_integrity_digest_bytes_total",
                &[("site", site), ("source", source)],
            )
        };
        assert_eq!(bytes("stamp", "absorbed"), Some(p.len()));
        assert_eq!(bytes("stamp", "memo"), Some(0));
        assert_eq!(bytes("read", "memo"), Some(p.len()));
        assert_eq!(bytes("read", "absorbed"), Some(100));
        assert_eq!(bytes("flush", "absorbed"), Some(p.len()));
        assert_eq!(bytes("flush", "memo"), Some(0));
        assert_eq!(snap.gauge("univistor_integrity_memo_entries", &[]), Some(1));
    }

    #[test]
    fn gauge_matches_the_memo_under_concurrent_stampers() {
        let m = Arc::new(JobMetrics::new());
        let v = Verifier::new(Arc::clone(&m));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let v = &v;
                s.spawn(move || {
                    for i in 0..64 {
                        // Half the descriptors are shared between threads.
                        v.stamp(&Payload::pattern((t % 2) * 64 + i, MEMO_MIN_LEN));
                    }
                });
            }
        });
        assert_eq!(v.memo_entries(), 128);
        assert_eq!(
            m.snapshot().gauge("univistor_integrity_memo_entries", &[]),
            Some(128)
        );
    }

    #[test]
    fn stamp_records_digests_each_sealed_span_once() {
        let v = Verifier::default();
        let payload = Payload::pattern(3, 300);
        let rec = |len| SegmentRecord::new(ClientId::new(0, 0), VirtualAddr(0), len);
        // One record spanning the payload, then a three-way split.
        let mut one = vec![(1000, rec(300))];
        stamp_records(&v, &payload, 1000, &mut one);
        assert_eq!(one[0].1.checksum, Some(payload.content_checksum()));
        let mut three = vec![(1000, rec(100)), (1100, rec(50)), (1150, rec(150))];
        stamp_records(&v, &payload, 1000, &mut three);
        for (off, r) in three {
            assert_eq!(
                r.checksum,
                Some(payload.slice(off - 1000, r.len).content_checksum())
            );
        }
    }
}
