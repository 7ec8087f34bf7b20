//! Randomized-model tests: DistKv must behave exactly like a single ordered
//! map, regardless of how records are partitioned across servers — through
//! its splices, bulk loads, point gets and range reads.
//!
//! Cases are generated with a tiny seeded SplitMix64 generator (the
//! workspace builds without external crates, so no proptest); each test
//! runs a few hundred deterministic trials.

use std::collections::BTreeMap;
use univistor_kv::{DistKv, PartitionKey};

/// Minimal deterministic generator for test-case construction.
struct TestRng(u64);

impl TestRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SegKey {
    fid: u8,
    offset: u64,
}

impl PartitionKey for SegKey {
    fn partition_point(&self) -> u64 {
        self.offset
    }
}

fn gen_key(rng: &mut TestRng) -> SegKey {
    SegKey {
        fid: rng.below(3) as u8,
        offset: rng.below(200),
    }
}

/// The key one past `k` in key order (for single-key takes).
fn succ(k: SegKey) -> SegKey {
    SegKey {
        fid: k.fid,
        offset: k.offset + 1,
    }
}

/// Servers owning a point of `[first, last]`, computed the slow way.
fn owners(range_size: u64, servers: usize, first: u64, last: u64) -> usize {
    let mut seen = vec![false; servers];
    for p in first..=last {
        seen[((p / range_size) % servers as u64) as usize] = true;
    }
    seen.iter().filter(|s| **s).count()
}

#[test]
fn distkv_matches_btreemap_model() {
    let mut rng = TestRng(0x0d15_7001);
    for _trial in 0..200 {
        let range_size = 1 + rng.below(63);
        let servers = 1 + rng.below(8) as usize;
        let n_ops = 1 + rng.below(199);
        let kv: DistKv<SegKey, u64> = DistKv::new(range_size, servers);
        let mut model: BTreeMap<SegKey, u64> = BTreeMap::new();

        for _ in 0..n_ops {
            match rng.below(6) {
                0 => {
                    // Single-key splice insert: returns the displaced value.
                    let (k, v) = (gen_key(&mut rng), rng.next());
                    let old = kv.splice(k.offset, k.offset).insert(k, v);
                    assert_eq!(old, model.insert(k, v));
                }
                1 => {
                    // Single-key splice take: a remove.
                    let k = gen_key(&mut rng);
                    let taken = kv
                        .splice(k.offset, k.offset)
                        .take(&k, &succ(k), |_, _| true);
                    let expect: Vec<(SegKey, u64)> =
                        model.remove(&k).map(|v| (k, v)).into_iter().collect();
                    assert_eq!(taken, expect);
                }
                2 => {
                    let k = gen_key(&mut rng);
                    let (_, got) = kv.get(&k);
                    assert_eq!(got, model.get(&k).copied());
                }
                3 => {
                    // Window splice: take a selected subset of one fid's
                    // keys, insert fresh records anywhere in the span.
                    let (a, b) = (rng.below(220), rng.below(220));
                    let (first, last) = (a.min(b), a.max(b));
                    let fid = rng.below(3) as u8;
                    let (lo_key, hi_key) = (
                        SegKey {
                            fid,
                            offset: rng.below(220),
                        },
                        SegKey { fid, offset: 220 },
                    );
                    let parity = rng.below(2);
                    let mut splice = kv.splice(first, last);
                    assert_eq!(
                        splice.acquisitions() as usize,
                        owners(range_size, servers, first, last)
                    );
                    let taken = splice.take(&lo_key, &hi_key, |_, v| v % 2 == parity);
                    let expect: Vec<(SegKey, u64)> = model
                        .range(lo_key..hi_key)
                        .filter(|(k, v)| k.offset >= first && k.offset <= last && *v % 2 == parity)
                        .map(|(k, v)| (*k, *v))
                        .collect();
                    for (k, _) in &expect {
                        model.remove(k);
                    }
                    assert_eq!(taken, expect);
                    for _ in 0..rng.below(4) {
                        let k = SegKey {
                            fid: rng.below(3) as u8,
                            offset: first + rng.below(last - first + 1),
                        };
                        let v = rng.next();
                        assert_eq!(splice.insert(k, v), model.insert(k, v));
                    }
                }
                4 => {
                    // A sorted bulk load: one lock per same-server run.
                    let mut run: Vec<(SegKey, u64)> = (0..rng.below(12))
                        .map(|_| (gen_key(&mut rng), rng.next()))
                        .collect();
                    run.sort_by_key(|(k, _)| *k);
                    let p = kv.partitioner();
                    let mut runs = 0u64;
                    let mut prev = None;
                    for (k, _) in &run {
                        let s = p.server_for(k.offset);
                        if prev != Some(s) {
                            runs += 1;
                            prev = Some(s);
                        }
                    }
                    for (k, v) in &run {
                        model.insert(*k, *v);
                    }
                    assert_eq!(kv.put_batch(run), runs);
                }
                _ => {
                    let (a, b) = (rng.below(220), rng.below(220));
                    let (lo, hi) = (a.min(b), a.max(b));
                    let fid = rng.below(3) as u8;
                    let (lo_key, hi_key) =
                        (SegKey { fid: 0, offset: 0 }, SegKey { fid: 3, offset: 0 });
                    let (servers_scanned, got) =
                        kv.range_scan_bounded(&lo_key, &hi_key, lo, hi, |k| k.fid == fid);
                    let expect: Vec<(SegKey, u64)> = model
                        .iter()
                        .filter(|(k, _)| k.fid == fid && k.offset >= lo && k.offset < hi)
                        .map(|(k, v)| (*k, *v))
                        .collect();
                    assert_eq!(got, expect);
                    // The borrowing visit sees the same records and
                    // reports the same servers, ascending.
                    let mut visited = Vec::new();
                    let servers_visited = kv.for_each_in_range(&lo_key, &hi_key, lo, hi, |k, v| {
                        if k.fid == fid {
                            visited.push((*k, *v));
                        }
                    });
                    visited.sort_by_key(|(k, _)| *k);
                    assert_eq!(visited, expect);
                    assert_eq!(servers_visited, servers_scanned);
                    assert!(servers_visited.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
        assert_eq!(kv.len(), model.len());
    }
}

/// Overwrite `[lo, hi)` the way the metadata service does: one splice over
/// `[lo - range, hi]` removes every overlapped record, re-inserts the
/// surviving left/right fragments and then the new records (each at most
/// one range long). Values are record lengths. Returns the shard locks.
fn overwrite(kv: &DistKv<SegKey, u64>, lo: u64, hi: u64, range: u64) -> u64 {
    let scan_lo = lo.saturating_sub(range);
    let mut splice = kv.splice(scan_lo, hi);
    let overlapped = splice.take(
        &SegKey {
            fid: 0,
            offset: scan_lo,
        },
        &SegKey { fid: 0, offset: hi },
        |k, len| k.offset.max(lo) < (k.offset + len).min(hi),
    );
    for (k, len) in overlapped {
        if k.offset < lo {
            splice.insert(k, lo - k.offset);
        }
        if k.offset + len > hi {
            splice.insert(SegKey { fid: 0, offset: hi }, k.offset + len - hi);
        }
    }
    let mut cur = lo;
    while cur < hi {
        let len = range.min(hi - cur);
        splice.insert(
            SegKey {
                fid: 0,
                offset: cur,
            },
            len,
        );
        cur += len;
    }
    splice.acquisitions()
}

/// Edge cases of the window lock set: one to three servers (windows wrap
/// onto one shard), `hi` exactly on a range boundary (the right fragment's
/// key opens the next range, whose shard must be locked), and `lo` inside
/// the first range (the left widening saturates at 0). After every
/// overwrite the index must tile exactly the bytes written so far, and
/// every lookup must see that tiling.
#[test]
fn overwrite_splices_tile_the_written_bytes() {
    let mut rng = TestRng(0x0d15_7004);
    for trial in 0..300u64 {
        let servers = 1 + (trial % 3) as usize;
        let range = 1 + rng.below(16);
        let kv: DistKv<SegKey, u64> = DistKv::new(range, servers);
        let mut written = vec![false; (8 * range) as usize];
        for _ in 0..20 {
            let (lo, hi) = match rng.below(3) {
                // `lo` inside the first range: `scan_start` saturates.
                0 => {
                    let lo = rng.below(range);
                    (lo, lo + 1 + rng.below(3 * range))
                }
                // `hi` exactly on a range boundary.
                1 => {
                    let hi = range * (1 + rng.below(7));
                    (hi - 1 - rng.below(hi.min(3 * range)), hi)
                }
                _ => {
                    let lo = rng.below(6 * range);
                    (lo, lo + 1 + rng.below(2 * range))
                }
            };
            let locks = overwrite(&kv, lo, hi, range);
            assert_eq!(
                locks as usize,
                owners(range, servers, lo.saturating_sub(range), hi)
            );
            assert!(
                locks as usize <= servers,
                "a wrapped window locks a shard once"
            );
            for b in lo..hi {
                written[b as usize] = true;
            }
            // Records are disjoint and tile exactly the written bytes.
            let end = written.len() as u64;
            let (_, records) = kv.range_scan_bounded(
                &SegKey { fid: 0, offset: 0 },
                &SegKey {
                    fid: 0,
                    offset: end,
                },
                0,
                end,
                |_| true,
            );
            let mut covered = vec![false; written.len()];
            for (k, len) in &records {
                assert!(*len >= 1 && *len <= range, "record [{}, +{len})", k.offset);
                for b in k.offset..k.offset + len {
                    assert!(!covered[b as usize], "byte {b} indexed twice");
                    covered[b as usize] = true;
                }
            }
            assert_eq!(
                covered, written,
                "trial {trial}: the index lost or invented bytes"
            );
        }
    }
}

#[test]
fn every_key_is_routed_to_exactly_one_server() {
    let mut rng = TestRng(0x0d15_7002);
    for _trial in 0..200 {
        let range_size = 1 + rng.below(127);
        let servers = 1 + rng.below(15) as usize;
        let n = 1 + rng.below(99);
        let kv: DistKv<SegKey, u64> = DistKv::new(range_size, servers);
        for _ in 0..n {
            let off = rng.below(10_000);
            let k = SegKey {
                fid: 0,
                offset: off,
            };
            let before = kv.shard_sizes();
            let fresh = kv.get(&k).1.is_none();
            kv.put_batch([(k, off)]);
            let (s_get, v) = kv.get(&k);
            // The key landed on the shard `get` routes to, and only there.
            let after = kv.shard_sizes();
            for (s, (b, a)) in before.iter().zip(&after).enumerate() {
                let grew = usize::from(fresh && s == s_get.0);
                assert_eq!(*a, b + grew);
            }
            assert_eq!(v, Some(off));
        }
    }
}

#[test]
fn shard_sizes_sum_to_len() {
    let mut rng = TestRng(0x0d15_7003);
    for _trial in 0..200 {
        let servers = 1 + rng.below(7) as usize;
        let n = rng.below(200);
        let kv: DistKv<SegKey, u64> = DistKv::new(16, servers);
        for _ in 0..n {
            let off = rng.below(1_000);
            kv.put_batch([(
                SegKey {
                    fid: 1,
                    offset: off,
                },
                off,
            )]);
        }
        assert_eq!(kv.shard_sizes().iter().sum::<usize>(), kv.len());
    }
}
