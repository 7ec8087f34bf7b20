//! Deterministic fault injection and retry machinery.
//!
//! UniviStor's resilience story needs failures it can rehearse: the
//! [`FaultInjector`] turns a seed plus a [`FaultConfig`] into a fully
//! reproducible fault schedule — permanent node losses at fixed
//! operation counts, transient per-tier I/O errors with a configured
//! probability, and optional per-operation latency. Every injection
//! decision is a pure function of `(seed, op_index)`, so a chaos run
//! replays bit-for-bit under the same seed regardless of which thread
//! happens to issue which operation first (the op index itself is a
//! single atomic counter, so interleaving shifts *which* op draws a
//! fault but a single-threaded workload is exactly reproducible).
//!
//! Transient faults surface as [`SimError::Transient`] and are meant to
//! be absorbed by [`with_retries`], a capped-exponential-backoff loop
//! driven by the [`RetryPolicy`] in the job config. Exhausted budgets
//! rewrite the error's `attempt` field so callers (and tests) can see
//! how hard the operation tried before giving up.
//!
//! The injector is deliberately lock-free: an `AtomicU64` op counter,
//! an `AtomicUsize` cursor over the sorted node-failure schedule, and a
//! `OnceLock` for the metric handles. When `UniviStorConfig::fault` is
//! `None` (the default) none of this is constructed and the hot path
//! pays only an `Option` check.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock};
use std::time::Duration;

use univistor_sim::rng::DetRng;
use univistor_sim::{Payload, SimError, SimResult};

use crate::metadata::ClientId;
use crate::metrics::{FaultCounters, JobMetrics};
use crate::va::{Tier, VirtualAddr};

/// Golden-ratio increment used to decorrelate per-op RNG streams.
const OP_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// Stream separator for silent-corruption draws: corruption uses its own
/// op counter *and* its own seed stream, so enabling it never perturbs
/// the transient-fault schedule of a given seed.
const CORRUPT_STREAM: u64 = 0xD1B5_4A32_D192_ED03;

/// Declarative fault schedule, carried in `UniviStorConfig::fault`.
///
/// All fields default to "no faults"; a config with `fault: Some(..)`
/// but every knob at zero behaves identically to `fault: None` except
/// for the per-op atomic increment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultConfig {
    /// Seed for the injection RNG. Two runs with the same seed and the
    /// same (single-threaded) operation order draw identical faults.
    pub seed: u64,
    /// Permanent node losses: `(op_index, node)` pairs. When the global
    /// operation counter passes `op_index`, `node` is reported by
    /// [`FaultInjector::due_node_failures`] exactly once.
    pub fail_node_at: Vec<(u64, usize)>,
    /// Probability in `[0, 1]` that any instrumented operation fails
    /// with a transient error. Applied when no per-tier override
    /// matches.
    pub transient_prob: f64,
    /// Per-tier overrides for `transient_prob`; first match wins.
    pub tier_transient_prob: Vec<(Tier, f64)>,
    /// Latency added to every instrumented operation, in microseconds.
    /// Real `thread::sleep`, so keep it small in tests.
    pub op_latency_us: u64,
    /// Probability in `[0, 1]` that a freshly appended span lands
    /// silently corrupted: the bytes read back differ from the bytes
    /// written, with no error at write time. Detection is the integrity
    /// plane's job. Applied when no per-tier override matches.
    pub corrupt_prob: f64,
    /// Per-tier overrides for `corrupt_prob`; first match wins.
    pub tier_corrupt_prob: Vec<(Tier, f64)>,
}

impl FaultConfig {
    /// Probability applying to an operation on `tier` (or the generic
    /// probability when the tier is unknown or has no override).
    fn prob_for(&self, tier: Option<Tier>) -> f64 {
        if let Some(t) = tier {
            for &(ot, p) in &self.tier_transient_prob {
                if ot == t {
                    return p;
                }
            }
        }
        self.transient_prob
    }

    /// Silent-corruption probability for an append landing on `tier`.
    fn corrupt_prob_for(&self, tier: Tier) -> f64 {
        for &(ot, p) in &self.tier_corrupt_prob {
            if ot == tier {
                return p;
            }
        }
        self.corrupt_prob
    }

    /// Whether any corruption probability in the schedule is nonzero.
    fn corruption_possible(&self) -> bool {
        self.corrupt_prob > 0.0 || self.tier_corrupt_prob.iter().any(|&(_, p)| p > 0.0)
    }
}

/// One registered silent corruption: reads of `owner`'s chain that cover
/// absolute chain address `flip_at` observe `flip` XORed into that byte.
/// Spans are cleared when new data is appended over the same VA range —
/// the corruption lives in the *stored copy*, not the address.
#[derive(Debug, Clone, Copy)]
struct CorruptSpan {
    /// First corrupted-copy chain address.
    va: u64,
    /// Span length in bytes.
    len: u64,
    /// Absolute chain address of the flipped byte.
    flip_at: u64,
    /// Nonzero XOR mask applied to that byte.
    flip: u8,
}

/// Deterministic, lock-free fault injector shared by the chain, KV,
/// and flush layers.
#[derive(Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    /// Global operation counter; each instrumented call claims one
    /// index, which seeds that call's private RNG stream.
    ops: AtomicU64,
    /// `fail_node_at` sorted by op index; `next_failure` is the cursor
    /// over it, advanced by CAS so each failure fires exactly once.
    failures: Vec<(u64, usize)>,
    next_failure: AtomicUsize,
    counters: OnceLock<FaultCounters>,
    /// Whether the schedule can ever draw a corruption (precomputed so
    /// the append hook is a plain bool check when it cannot).
    corruption_possible: bool,
    /// Corruption draw counter — separate from `ops` so enabling
    /// corruption never shifts the transient-fault draw sequence.
    corrupt_ops: AtomicU64,
    /// Registered corrupt spans per producer. Guarded by a lock, but the
    /// data path only touches it when `corrupt_count` is nonzero — a job
    /// with no live corruption pays one relaxed load per read/append.
    corrupted: RwLock<HashMap<ClientId, Vec<CorruptSpan>>>,
    corrupt_count: AtomicUsize,
}

impl FaultInjector {
    pub fn new(cfg: FaultConfig) -> Self {
        let mut failures = cfg.fail_node_at.clone();
        failures.sort_unstable();
        let corruption_possible = cfg.corruption_possible();
        FaultInjector {
            cfg,
            ops: AtomicU64::new(0),
            failures,
            next_failure: AtomicUsize::new(0),
            counters: OnceLock::new(),
            corruption_possible,
            corrupt_ops: AtomicU64::new(0),
            corrupted: RwLock::new(HashMap::new()),
            corrupt_count: AtomicUsize::new(0),
        }
    }

    /// Wire up the injected-fault counters. Idempotent; before this is
    /// called injections simply go uncounted.
    pub fn install_counters(&self, counters: FaultCounters) {
        let _ = self.counters.set(counters);
    }

    /// Operations instrumented so far.
    pub fn ops_seen(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// One instrumented operation: advance the op counter, apply the
    /// configured latency, and either succeed or return a
    /// [`SimError::Transient`] tagged with `site`.
    pub fn inject(&self, site: &'static str, tier: Option<Tier>) -> SimResult<()> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        if self.cfg.op_latency_us > 0 {
            std::thread::sleep(Duration::from_micros(self.cfg.op_latency_us));
            if let Some(c) = self.counters.get() {
                c.latency.inc();
            }
        }
        let prob = self.cfg.prob_for(tier);
        if prob > 0.0 {
            // A private stream per op index: deterministic in (seed, op)
            // and uncorrelated across consecutive ops.
            let draw = DetRng::seed(self.cfg.seed ^ op.wrapping_mul(OP_STREAM)).unit();
            if draw < prob {
                if let Some(c) = self.counters.get() {
                    c.transient.inc();
                }
                return Err(SimError::Transient {
                    site: site.to_string(),
                    attempt: 0,
                });
            }
        }
        Ok(())
    }

    /// Node losses whose op threshold has been reached since the last
    /// call. Each scheduled loss is returned exactly once, even with
    /// concurrent pollers (the cursor advances by CAS).
    pub fn due_node_failures(&self) -> Vec<usize> {
        let seen = self.ops.load(Ordering::Relaxed);
        let mut due = Vec::new();
        loop {
            let idx = self.next_failure.load(Ordering::Relaxed);
            match self.failures.get(idx) {
                Some(&(at, node)) if at <= seen => {
                    if self
                        .next_failure
                        .compare_exchange(idx, idx + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        if let Some(c) = self.counters.get() {
                            c.node_loss.inc();
                        }
                        due.push(node);
                    }
                    // CAS failure: another poller claimed this entry;
                    // re-read the cursor and keep scanning.
                }
                _ => break,
            }
        }
        due
    }

    /// Append hook: new data landed at `[va, va + len)` of `owner`'s
    /// chain on `tier`. Clears any stale corrupt span the fresh bytes
    /// overwrite (corruption belongs to a stored copy, and that copy is
    /// gone), then draws the tier's silent-corruption probability and,
    /// on a hit, registers a deterministic one-byte flip inside the span.
    /// The draw stream is independent of the transient-fault stream, so
    /// two runs with the same seed corrupt the same appends regardless
    /// of the transient schedule.
    pub fn on_append(&self, owner: ClientId, va: VirtualAddr, len: u64, tier: Tier) {
        if self.corrupt_count.load(Ordering::Relaxed) > 0 {
            self.clear_overlapping(owner, va.0, len);
        }
        if !self.corruption_possible || len == 0 {
            return;
        }
        let prob = self.cfg.corrupt_prob_for(tier);
        if prob <= 0.0 {
            return;
        }
        let op = self.corrupt_ops.fetch_add(1, Ordering::Relaxed);
        let mut rng = DetRng::seed(self.cfg.seed ^ CORRUPT_STREAM ^ op.wrapping_mul(OP_STREAM));
        if rng.unit() < prob {
            let flip_at = va.0 + rng.below(len.min(usize::MAX as u64) as usize) as u64;
            // Any nonzero mask corrupts; `| 1` guards the zero draw.
            let flip = (rng.below(256) as u8) | 1;
            self.register(
                owner,
                CorruptSpan {
                    va: va.0,
                    len,
                    flip_at,
                    flip,
                },
            );
        }
    }

    /// Targeted corruption op (tests, chaos drills): unconditionally
    /// corrupt the stored copy at `[va, va + len)` of `owner`'s chain by
    /// flipping its first byte.
    pub fn corrupt_span(&self, owner: ClientId, va: VirtualAddr, len: u64) {
        if len == 0 {
            return;
        }
        self.clear_overlapping(owner, va.0, len);
        self.register(
            owner,
            CorruptSpan {
                va: va.0,
                len,
                flip_at: va.0,
                flip: 0xFF,
            },
        );
    }

    /// Read hook: apply every registered flip that falls inside a read
    /// of `[va, va + payload.len())` from `owner`'s chain. One relaxed
    /// load when nothing is registered.
    pub fn corrupt_read(&self, owner: ClientId, va: VirtualAddr, payload: Payload) -> Payload {
        if self.corrupt_count.load(Ordering::Relaxed) == 0 {
            return payload;
        }
        let len = payload.len();
        let flips: Vec<(u64, u8)> = {
            let map = self.corrupted.read().expect("corrupt registry poisoned");
            match map.get(&owner) {
                None => return payload,
                Some(spans) => spans
                    .iter()
                    .filter(|s| s.flip_at >= va.0 && s.flip_at - va.0 < len)
                    .map(|s| (s.flip_at - va.0, s.flip))
                    .collect(),
            }
        };
        if flips.is_empty() {
            return payload;
        }
        let mut bytes = Vec::with_capacity(len as usize);
        payload.materialize_into(&mut bytes);
        for (off, flip) in flips {
            bytes[off as usize] ^= flip;
        }
        Payload::from_bytes(bytes)
    }

    /// Live corrupt spans (registered and not yet overwritten).
    pub fn corrupt_spans_live(&self) -> usize {
        self.corrupt_count.load(Ordering::Relaxed)
    }

    fn register(&self, owner: ClientId, span: CorruptSpan) {
        self.corrupted
            .write()
            .expect("corrupt registry poisoned")
            .entry(owner)
            .or_default()
            .push(span);
        self.corrupt_count.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = self.counters.get() {
            c.corruption.inc();
        }
    }

    fn clear_overlapping(&self, owner: ClientId, va: u64, len: u64) {
        let mut map = self.corrupted.write().expect("corrupt registry poisoned");
        if let Some(spans) = map.get_mut(&owner) {
            let before = spans.len();
            spans.retain(|s| s.va + s.len <= va || va + len <= s.va);
            let removed = before - spans.len();
            if removed > 0 {
                self.corrupt_count.fetch_sub(removed, Ordering::Relaxed);
            }
            if spans.is_empty() {
                map.remove(&owner);
            }
        }
    }
}

/// Retry budget for transient faults, carried in
/// `UniviStorConfig::retry`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retries.
    pub max_attempts: u64,
    /// Backoff before the first retry, in microseconds; doubles per
    /// subsequent retry.
    pub backoff_base_us: u64,
    /// Upper bound on any single backoff sleep, in microseconds.
    pub backoff_cap_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base_us: 100,
            backoff_cap_us: 5_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (1-based), capped.
    fn backoff_us(&self, retry: u64) -> u64 {
        let shift = (retry - 1).min(63) as u32;
        // A doubling that would shift bits out of the base has certainly
        // passed any cap; `checked_shl` alone misses that (it only guards
        // the shift count, not value overflow).
        let grown = if shift >= self.backoff_base_us.leading_zeros() {
            u64::MAX
        } else {
            self.backoff_base_us << shift
        };
        grown.min(self.backoff_cap_us)
    }
}

/// Run `op`, retrying transient failures under `policy` with capped
/// exponential backoff. Non-transient errors pass straight through.
/// On exhaustion the transient error is returned with its `attempt`
/// count rewritten to the number of attempts actually made.
pub fn with_retries<T>(
    policy: &RetryPolicy,
    metrics: Option<&JobMetrics>,
    mut op: impl FnMut() -> SimResult<T>,
) -> SimResult<T> {
    let mut attempt: u64 = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(SimError::Transient { site, .. }) => {
                attempt += 1;
                if attempt >= policy.max_attempts.max(1) {
                    if let Some(m) = metrics {
                        m.record_retry_exhausted();
                    }
                    return Err(SimError::Transient { site, attempt });
                }
                if let Some(m) = metrics {
                    m.record_retry(&site);
                }
                let us = policy.backoff_us(attempt);
                if us > 0 {
                    std::thread::sleep(Duration::from_micros(us));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn always(prob: f64) -> FaultInjector {
        FaultInjector::new(FaultConfig {
            seed: 7,
            transient_prob: prob,
            ..FaultConfig::default()
        })
    }

    #[test]
    fn zero_probability_never_faults() {
        let inj = always(0.0);
        for _ in 0..1000 {
            inj.inject("noop", None).unwrap();
        }
        assert_eq!(inj.ops_seen(), 1000);
    }

    #[test]
    fn unit_probability_always_faults() {
        let inj = always(1.0);
        for _ in 0..100 {
            let err = inj.inject("chain_append", Some(Tier::Dram)).unwrap_err();
            match err {
                SimError::Transient { site, attempt } => {
                    assert_eq!(site, "chain_append");
                    assert_eq!(attempt, 0);
                }
                other => panic!("expected transient, got {other:?}"),
            }
        }
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let schedule = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::new(FaultConfig {
                seed,
                transient_prob: 0.3,
                ..FaultConfig::default()
            });
            (0..200).map(|_| inj.inject("x", None).is_err()).collect()
        };
        assert_eq!(schedule(42), schedule(42));
        assert_ne!(schedule(42), schedule(43), "different seeds should differ");
        let hits = schedule(42).iter().filter(|&&b| b).count();
        assert!((30..=90).contains(&hits), "p=0.3 over 200 draws: {hits}");
    }

    #[test]
    fn tier_override_beats_generic_probability() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 1,
            transient_prob: 1.0,
            tier_transient_prob: vec![(Tier::Pfs, 0.0)],
            ..FaultConfig::default()
        });
        // PFS ops are exempt, everything else always faults.
        inj.inject("flush", Some(Tier::Pfs)).unwrap();
        assert!(inj.inject("append", Some(Tier::Dram)).is_err());
        assert!(inj.inject("append", None).is_err());
    }

    #[test]
    fn node_failures_fire_once_at_their_threshold() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 0,
            fail_node_at: vec![(5, 1), (2, 0)],
            ..FaultConfig::default()
        });
        assert!(inj.due_node_failures().is_empty(), "no ops yet");
        for _ in 0..2 {
            inj.inject("w", None).unwrap();
        }
        assert_eq!(inj.due_node_failures(), vec![0]);
        assert!(inj.due_node_failures().is_empty(), "node 0 already fired");
        for _ in 0..3 {
            inj.inject("w", None).unwrap();
        }
        assert_eq!(inj.due_node_failures(), vec![1]);
        assert!(inj.due_node_failures().is_empty());
    }

    #[test]
    fn retries_absorb_a_bounded_fault_streak() {
        let mut failures_left = 2;
        let out = with_retries(&RetryPolicy::default(), None, || {
            if failures_left > 0 {
                failures_left -= 1;
                Err(SimError::Transient {
                    site: "kv".into(),
                    attempt: 0,
                })
            } else {
                Ok(99)
            }
        });
        assert_eq!(out.unwrap(), 99);
    }

    #[test]
    fn exhausted_retries_report_the_attempt_count() {
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff_base_us: 0,
            backoff_cap_us: 0,
        };
        let mut calls = 0;
        let out: SimResult<()> = with_retries(&policy, None, || {
            calls += 1;
            Err(SimError::Transient {
                site: "chain_read".into(),
                attempt: 0,
            })
        });
        assert_eq!(calls, 3, "max_attempts bounds total tries");
        match out.unwrap_err() {
            SimError::Transient { site, attempt } => {
                assert_eq!(site, "chain_read");
                assert_eq!(attempt, 3);
            }
            other => panic!("expected transient, got {other:?}"),
        }
    }

    #[test]
    fn non_transient_errors_pass_straight_through() {
        let mut calls = 0;
        let out: SimResult<()> = with_retries(&RetryPolicy::default(), None, || {
            calls += 1;
            Err(SimError::InvalidConfig("permanent".into()))
        });
        assert_eq!(calls, 1);
        assert!(matches!(out.unwrap_err(), SimError::InvalidConfig(_)));
    }

    #[test]
    fn corruption_draws_are_seeded_and_independent_of_transients() {
        let schedule = |seed: u64, transient: f64| -> Vec<bool> {
            let inj = FaultInjector::new(FaultConfig {
                seed,
                transient_prob: transient,
                corrupt_prob: 0.3,
                ..FaultConfig::default()
            });
            let owner = ClientId::new(0, 0);
            (0..200u64)
                .map(|i| {
                    let before = inj.corrupt_spans_live();
                    inj.on_append(owner, VirtualAddr(i * 64), 64, Tier::Dram);
                    inj.corrupt_spans_live() > before
                })
                .collect()
        };
        assert_eq!(schedule(42, 0.0), schedule(42, 0.0));
        // Same seed, different transient schedule → same corruptions.
        assert_eq!(schedule(42, 0.0), schedule(42, 0.5));
        assert_ne!(schedule(42, 0.0), schedule(43, 0.0));
        let hits = schedule(42, 0.0).iter().filter(|&&b| b).count();
        assert!((30..=90).contains(&hits), "p=0.3 over 200 appends: {hits}");
    }

    #[test]
    fn corrupt_read_flips_exactly_one_byte_in_span() {
        let inj = always(0.0);
        let owner = ClientId::new(0, 3);
        let clean = Payload::pattern(9, 256);
        // Nothing registered: payload passes through untouched.
        assert!(inj
            .corrupt_read(owner, VirtualAddr(1000), clean.clone())
            .content_eq(&clean));
        inj.corrupt_span(owner, VirtualAddr(1000), 256);
        let dirty = inj.corrupt_read(owner, VirtualAddr(1000), clean.clone());
        assert!(!dirty.content_eq(&clean));
        let diffs = (0..256u64)
            .filter(|&i| dirty.byte_at(i) != clean.byte_at(i))
            .count();
        assert_eq!(diffs, 1, "targeted op flips the first byte only");
        assert_ne!(dirty.byte_at(0), clean.byte_at(0));
        // A read of a disjoint span is unaffected.
        let other = Payload::pattern(9, 64);
        assert!(inj
            .corrupt_read(owner, VirtualAddr(2000), other.clone())
            .content_eq(&other));
        // A different producer's chain is unaffected.
        assert!(inj
            .corrupt_read(ClientId::new(0, 4), VirtualAddr(1000), clean.clone())
            .content_eq(&clean));
    }

    #[test]
    fn overwriting_appends_clear_stale_corruption() {
        let inj = always(0.0);
        let owner = ClientId::new(1, 0);
        inj.corrupt_span(owner, VirtualAddr(500), 100);
        assert_eq!(inj.corrupt_spans_live(), 1);
        // Fresh data over the same VA range: the corrupt copy is gone.
        inj.on_append(owner, VirtualAddr(500), 100, Tier::Dram);
        assert_eq!(inj.corrupt_spans_live(), 0);
        let p = Payload::pattern(1, 100);
        assert!(inj
            .corrupt_read(owner, VirtualAddr(500), p.clone())
            .content_eq(&p));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            backoff_base_us: 100,
            backoff_cap_us: 450,
        };
        assert_eq!(p.backoff_us(1), 100);
        assert_eq!(p.backoff_us(2), 200);
        assert_eq!(p.backoff_us(3), 400);
        assert_eq!(p.backoff_us(4), 450, "capped");
        assert_eq!(p.backoff_us(60), 450);
        assert_eq!(p.backoff_us(64), 450, "shift overflow saturates to cap");
    }
}
