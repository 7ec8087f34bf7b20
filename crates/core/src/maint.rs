//! The maintenance mechanism behind the three background planes — tiering
//! ([`crate::tiering`]), online repair ([`crate::repair`]) and the scrubber
//! ([`crate::scrub`]). Each plane keeps its own *policy* (what to move and
//! when); this module holds what they share:
//!
//! * [`Maint`], the one context a pass runs in: the job's config, metrics
//!   and verifier, snapshots of the failed-node set and the file table,
//!   and the job's locked core. [`UniviStorJob::maintain`] builds it on
//!   the calling thread under both runtimes: passes share the core with
//!   foreground writes and reads through its sharded locks.
//! * [`Maint::relocate`], the only copy-and-swap: read a copy, verify it,
//!   place one contiguous span, swap the index entry with
//!   `replace_if_current`, release the copy that lost (DESIGN.md §11).
//! * [`Gates`], the per-key gate tables the passes serialize on.
//! * [`NodeActors`], the per-node daemon skeleton.
//!
//! [`UniviStorJob::maintain`]: crate::server::UniviStorJob::maintain

use crate::config::UniviStorConfig;
use crate::fault::with_retries;
use crate::integrity::Verifier;
use crate::metadata::{ClientId, SegKey, SegmentRecord};
use crate::metrics::{JobMetrics, VerifySite};
use crate::placement::ProcChain;
use crate::server::{job_layer_caps, LockedCore, UniviStorJob};
use crate::va::VirtualAddr;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use univistor_sim::{Payload, SimResult};

/// One file of the job's table as a pass saw it at its start.
#[derive(Debug, Clone)]
pub(crate) struct FileSnap {
    pub(crate) fid: u64,
    pub(crate) path: String,
    pub(crate) size: u64,
    /// Whether a writer still held it open.
    pub(crate) open: bool,
}

/// Everything one maintenance pass needs, borrowed from the job. Built
/// only by [`UniviStorJob::maintain`].
///
/// [`UniviStorJob::maintain`]: crate::server::UniviStorJob::maintain
pub(crate) struct Maint<'a> {
    pub(crate) cfg: &'a UniviStorConfig,
    pub(crate) core: &'a LockedCore,
    pub(crate) metrics: &'a JobMetrics,
    pub(crate) verifier: &'a Verifier,
    /// Nodes failed when the pass started.
    pub(crate) failed: HashSet<usize>,
    /// The job's file table when the pass started.
    pub(crate) files: Vec<FileSnap>,
}

/// Where [`Maint::relocate`] places the fresh copy: on `client`'s chain,
/// from layer `floor` down — or exactly on `floor` when `exact`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Place {
    pub(crate) client: ClientId,
    pub(crate) floor: usize,
    pub(crate) exact: bool,
}

/// One copy-and-swap request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Move {
    /// The index entry to swap.
    pub(crate) key: SegKey,
    /// The record as the caller read it — the swap's expected value.
    pub(crate) rec: SegmentRecord,
    /// The copy to read and verify.
    pub(crate) from: (ClientId, VirtualAddr),
    /// Where a verify failure of `from` is counted.
    pub(crate) site: VerifySite,
    /// Where the fresh copy goes; `None` places none.
    pub(crate) to: Option<Place>,
}

/// What one [`Maint::relocate`] did. Only `Swapped` changed the index;
/// every other outcome leaves the chains as they were.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Moved {
    /// The source copy could not be read within the retry budget.
    Unreadable,
    /// The source copy failed its write-commit stamp.
    Corrupt,
    /// No room for one contiguous span where the move needed one.
    NoRoom,
    /// An overwrite replaced the record first; the fresh copy was released.
    LostRace,
    /// The index now holds this record; the copy it dropped was released.
    Swapped(SegmentRecord),
}

impl Maint<'_> {
    /// Node hosting `client`.
    pub(crate) fn node_of(&self, client: ClientId) -> usize {
        self.cfg.geometry.node_of_rank(client.rank as usize)
    }

    /// Whether `client`'s node is in the failed snapshot.
    pub(crate) fn node_failed(&self, client: ClientId) -> bool {
        self.failed.contains(&self.node_of(client))
    }

    /// Every client with a chain on `node`, sorted.
    pub(crate) fn clients_on(&self, node: usize) -> Vec<ClientId> {
        let mut clients = self.core.chains.clients();
        clients.retain(|&c| self.node_of(c) == node);
        clients
    }

    /// Read the full span of one copy through the fault-aware chain path:
    /// transient faults retried, injected corruption applied.
    pub(crate) fn read_copy(&self, copy: (ClientId, VirtualAddr), len: u64) -> SimResult<Payload> {
        let (client, va) = copy;
        with_retries(&self.cfg.retry, Some(self.metrics), || {
            self.core.chains.read_at(client, va, len)
        })
        .map(|(payload, _)| payload)
    }

    /// Create `client`'s chain if absent.
    pub(crate) fn ensure_chain(&self, client: ClientId) -> SimResult<()> {
        self.core.chains.ensure(client, || {
            ProcChain::new(job_layer_caps(self.cfg), self.cfg.chunk_size)
        })
    }

    /// The copy-and-swap (DESIGN.md §11). Read `mv.from` under retry and
    /// verify it against `mv.rec`'s stamp at `mv.site`; place it on
    /// `mv.to` (when given) as one contiguous span; hand the fresh copy —
    /// `None` when none was placed — to `fit`, which returns the record to
    /// swap in, or `None` to abandon a move that needed the copy; swap the
    /// index entry only if it still equals `mv.rec`; then release exactly
    /// the copy the swap dropped, or the fresh copy when the swap lost.
    pub(crate) fn relocate(
        &self,
        mv: &Move,
        fit: impl FnOnce(Option<(ClientId, VirtualAddr)>) -> Option<SegmentRecord>,
    ) -> SimResult<Moved> {
        let rec = mv.rec;
        let Ok(payload) = self.read_copy(mv.from, rec.len) else {
            return Ok(Moved::Unreadable);
        };
        if let Some(sum) = rec.checksum {
            if !self.verifier.verify(mv.site, &payload, sum) {
                self.metrics.record_verify_failure(mv.site);
                return Ok(Moved::Corrupt);
            }
        }
        let fresh = match mv.to {
            Some(to) => {
                self.ensure_chain(to.client)?;
                self.place(to, &payload, rec.len).map(|va| (to.client, va))
            }
            None => None,
        };
        let Some(new) = fit(fresh) else {
            debug_assert!(fresh.is_none(), "a placed copy must be fitted");
            return Ok(Moved::NoRoom);
        };
        let node = self.node_of(new.client);
        let (_, swapped) = self
            .core
            .metadata
            .replace_if_current(mv.key, &rec, new, node);
        if swapped {
            if let Some((client, va)) = dropped(&rec, &new) {
                self.core.chains.release(client, va, rec.len);
            }
            Ok(Moved::Swapped(new))
        } else {
            if let Some((client, va)) = fresh {
                self.core.chains.release(client, va, rec.len);
            }
            Ok(Moved::LostRace)
        }
    }

    /// Append `payload` to `to.client`'s chain as chunk-split sub-appends
    /// from layer `to.floor`, keeping it only as ONE contiguous same-layer
    /// span (on `to.floor` itself when `to.exact`) — the record must stay
    /// describable by a single `(client, va)` pair. Anything else, and a
    /// failed append (no space, fault budget spent), leaves the chain as
    /// it was.
    fn place(&self, to: Place, payload: &Payload, len: u64) -> Option<VirtualAddr> {
        let chunk = self.cfg.chunk_size;
        let sub: Vec<Payload> = (0..len)
            .step_by(chunk as usize)
            .map(|pos| payload.slice(pos, chunk.min(len - pos)))
            .collect();
        let chains = &self.core.chains;
        let placements = with_retries(&self.cfg.retry, Some(self.metrics), || {
            chains.append_many_from(to.client, to.floor, sub.clone())
        })
        .ok()?;
        let layer = placements.first().map(|p| p.layer);
        let one_span = (!to.exact || layer == Some(to.floor))
            && placements.iter().all(|p| Some(p.layer) == layer)
            && placements
                .windows(2)
                .all(|w| w[0].va.0 + w[0].len == w[1].va.0);
        if !one_span {
            for p in &placements {
                chains.release(to.client, p.va, p.len);
            }
            return None;
        }
        placements.first().map(|p| p.va)
    }
}

/// The copy of `old` that `new` no longer references — a swap's loser.
fn dropped(old: &SegmentRecord, new: &SegmentRecord) -> Option<(ClientId, VirtualAddr)> {
    let kept = |c: (ClientId, VirtualAddr)| c == (new.client, new.va) || new.replica == Some(c);
    std::iter::once((old.client, old.va))
        .chain(old.replica)
        .find(|&c| !kept(c))
}

/// Gates created on first use, one per key. Callers `try_lock` (a pass
/// that skips when contended) or `lock` (the close-time flush) the mutex
/// they are handed.
#[derive(Debug, Default)]
pub(crate) struct Gates<K>(Mutex<HashMap<K, Arc<Mutex<()>>>>);

impl<K: Eq + Hash> Gates<K> {
    /// The gate for `key`.
    pub(crate) fn get(&self, key: K) -> Arc<Mutex<()>> {
        let mut gates = self.0.lock().expect("gate table poisoned");
        Arc::clone(gates.entry(key).or_default())
    }
}

/// The per-node background actor skeleton of the tiering and scrub
/// daemons: one OS thread per node, each running a tick and then parking
/// for the interval, until stopped or dropped.
#[derive(Debug)]
pub(crate) struct NodeActors {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl NodeActors {
    /// Start one actor per node of `job`, each calling `tick(job, node)`
    /// every `interval`; with `enabled` false, no thread at all. A tick's
    /// errors are its own business: the next one starts from fresh state.
    pub(crate) fn spawn(
        job: Arc<UniviStorJob>,
        enabled: bool,
        interval: Duration,
        tick: fn(&UniviStorJob, usize),
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let nodes = if enabled { job.cfg().geometry.nodes } else { 0 };
        let threads = (0..nodes)
            .map(|node| {
                let (job, stop) = (Arc::clone(&job), Arc::clone(&stop));
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        tick(&job, node);
                        std::thread::park_timeout(interval);
                    }
                })
            })
            .collect();
        NodeActors { stop, threads }
    }

    /// Number of actor threads running.
    pub(crate) fn actors(&self) -> usize {
        self.threads.len()
    }

    /// Signal all actors and wait for them to exit.
    pub(crate) fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl Drop for NodeActors {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::metadata::tests::insert_one;
    use crate::metadata::MetadataService;
    use crate::placement::ChainSet;
    use crate::va::Tier;
    use std::collections::BTreeMap;

    /// Chunk size of [`core`]'s chains and config.
    pub(crate) const CHUNK: u64 = 128;
    const PRIMARY: ClientId = ClientId { app: 0, rank: 0 };
    const REPLICA: ClientId = ClientId { app: 0, rank: 2 };
    /// A rank on a third node, holding neither copy.
    const BUDDY: ClientId = ClientId { app: 0, rank: 4 };

    /// Eight ranks on four nodes (`test_small(4, 2)`, 128 B chunks), each
    /// a 4 KiB DRAM layer over an unbounded PFS layer; an empty index.
    pub(crate) fn core() -> (LockedCore, UniviStorConfig) {
        let mut cfg = UniviStorConfig::test_small(4, 2);
        cfg.chunk_size = CHUNK;
        let chains = ChainSet::new();
        for rank in 0..8u32 {
            let caps = vec![(Tier::Dram, 4096), (Tier::Pfs, u64::MAX)];
            let chain = || ProcChain::new(caps, CHUNK);
            chains.ensure(ClientId::new(0, rank), chain).unwrap();
        }
        let metadata = MetadataService::new(256, 4, 4, 2);
        (LockedCore { chains, metadata }, cfg)
    }

    /// [`core`] holding one stamped 128 B record: primary on rank 0,
    /// replica on rank 2. Returns the move of its primary to nowhere.
    fn harness() -> (LockedCore, UniviStorConfig, Move) {
        let (core, cfg) = core();
        let payload = Payload::pattern(7, CHUNK);
        let p = core.chains.append(PRIMARY, payload.clone()).unwrap();
        let r = core.chains.append(REPLICA, payload.clone()).unwrap();
        let rec = SegmentRecord {
            replica: Some((REPLICA, r.va)),
            checksum: Some(payload.content_checksum()),
            ..SegmentRecord::new(PRIMARY, p.va, CHUNK)
        };
        let key = SegKey { fid: 1, offset: 0 };
        insert_one(&core.metadata, key, rec, 0);
        let (from, site, to) = ((PRIMARY, p.va), VerifySite::Tiering, None);
        let mv = Move {
            key,
            rec,
            from,
            site,
            to,
        };
        (core, cfg, mv)
    }

    fn to(client: ClientId, floor: usize, exact: bool) -> Option<Place> {
        Some(Place {
            client,
            floor,
            exact,
        })
    }

    fn live(core: &LockedCore) -> BTreeMap<ClientId, i64> {
        let chains = &core.chains;
        let bytes = |c| chains.with(c, |ch| ch.live_bytes() as i64).unwrap();
        chains
            .clients()
            .into_iter()
            .map(|c| (c, bytes(c)))
            .collect()
    }

    /// One row: the set-up of harness and move, the expected outcome, and
    /// the exact change of every chain's live bytes. The fresh copy takes
    /// the place of the copy on its own chain (the primary), else of the
    /// replica; a verify failure is expected at the move's site exactly
    /// when the outcome is `Corrupt`.
    struct Row {
        name: &'static str,
        setup: fn(&LockedCore, &mut Move),
        expect: fn(&Moved) -> bool,
        deltas: &'static [(ClientId, i64)],
    }

    #[test]
    fn relocate_outcomes() {
        let rows = [
            Row {
                name: "a spill win releases the old primary and nothing else",
                setup: |_, mv| mv.to = to(PRIMARY, 1, false),
                expect: |o| matches!(o, Moved::Swapped(_)),
                deltas: &[],
            },
            Row {
                name: "a re-mirror win releases exactly the old replica",
                setup: |_, mv| mv.to = to(BUDDY, 0, false),
                expect: |o| matches!(o, Moved::Swapped(_)),
                deltas: &[(REPLICA, -(CHUNK as i64)), (BUDDY, CHUNK as i64)],
            },
            Row {
                name: "a stale record loses the CAS and the fresh span is released",
                setup: |core, mv| {
                    let p = core.chains.append(PRIMARY, Payload::pattern(8, CHUNK));
                    let overwrite = SegmentRecord::new(PRIMARY, p.unwrap().va, CHUNK);
                    insert_one(&core.metadata, mv.key, overwrite, 0);
                    mv.to = to(PRIMARY, 1, false);
                },
                expect: |o| *o == Moved::LostRace,
                deltas: &[],
            },
            Row {
                name: "a corrupt source is counted at the caller's site, nothing placed",
                setup: |core, mv| {
                    let p = core.chains.append(PRIMARY, Payload::pattern(9, CHUNK));
                    mv.from = (PRIMARY, p.unwrap().va);
                    mv.site = VerifySite::Scrub;
                    mv.to = to(PRIMARY, 1, false);
                },
                expect: |o| *o == Moved::Corrupt,
                deltas: &[],
            },
            Row {
                name: "a full target has no room and keeps nothing",
                setup: |core, mv| {
                    let full = ClientId::new(1, 0);
                    let chain = || ProcChain::new(vec![(Tier::Dram, CHUNK)], CHUNK);
                    core.chains.ensure(full, chain).unwrap();
                    core.chains
                        .append(full, Payload::pattern(3, CHUNK))
                        .unwrap();
                    mv.to = to(full, 0, false);
                },
                expect: |o| *o == Moved::NoRoom,
                deltas: &[],
            },
            Row {
                name: "a copy that misses its exact layer is rolled back",
                setup: |core, mv| {
                    // Fill rank 0's DRAM: the copy can only land on the PFS.
                    for seed in 1..4096 / CHUNK {
                        let filler = Payload::pattern(100 + seed, CHUNK);
                        core.chains.append(PRIMARY, filler).unwrap();
                    }
                    mv.to = to(PRIMARY, 0, true);
                },
                expect: |o| *o == Moved::NoRoom,
                deltas: &[],
            },
        ];
        for row in rows {
            let (core, cfg, mut mv) = harness();
            (row.setup)(&core, &mut mv);
            let metrics = JobMetrics::new();
            let m = Maint {
                cfg: &cfg,
                core: &core,
                metrics: &metrics,
                verifier: &Verifier::default(),
                failed: HashSet::new(),
                files: Vec::new(),
            };
            let (before, index_before) = (live(&core), core.metadata.get(&mv.key).1);
            let rec = mv.rec;
            let moved = m
                .relocate(&mv, |fresh| {
                    fresh.map(|(client, va)| match client == rec.client {
                        true => SegmentRecord { va, ..rec },
                        false => SegmentRecord {
                            replica: Some((client, va)),
                            ..rec
                        },
                    })
                })
                .unwrap();
            let name = row.name;
            assert!((row.expect)(&moved), "{name}: {moved:?}");

            for (client, bytes) in live(&core) {
                let delta = row
                    .deltas
                    .iter()
                    .find(|(c, _)| *c == client)
                    .map_or(0, |d| d.1);
                assert_eq!(bytes - before[&client], delta, "{name}: {client:?}");
            }
            let index = core.metadata.get(&mv.key).1;
            if let Moved::Swapped(new) = moved {
                assert_eq!(index, Some(new), "{name}");
                for (client, va) in std::iter::once((new.client, new.va)).chain(new.replica) {
                    let (got, _) = core.chains.read_at(client, va, CHUNK).unwrap();
                    assert!(got.content_eq(&Payload::pattern(7, CHUNK)), "{name}");
                }
            } else {
                assert_eq!(index, index_before, "{name}: index touched");
            }

            let failures = "univistor_integrity_verify_failures_total";
            let site = ["read", "flush", "tiering", "repair", "scrub"][mv.site as usize];
            let expected = (moved == Moved::Corrupt) as u64;
            let snap = metrics.snapshot();
            assert_eq!(snap.counter_total(failures), expected, "{name}");
            assert_eq!(
                snap.counter(failures, &[("site", site)]),
                Some(expected),
                "{name}"
            );
        }
    }
}
