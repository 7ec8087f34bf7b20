//! Distributed and Hierarchical data Placement — DHP (§II-B1, Fig. 2).
//!
//! Each client process owns a **chain of log files**, one per storage
//! layer, fastest first. A segment goes to the first layer whose log still
//! has room; when a log's allocated space depletes, subsequent segments
//! spill to the next layer, repeating down to the destination layer
//! (typically the PFS). This turns the shared-write pattern into
//! file-per-process writes and uses the capacity of every layer.
//!
//! Log capacities follow the paper's `c/p` rule: a layer of capacity `c`
//! shared by `p` processes gives each process a log of `c/p` — where for
//! node-local layers `c`/`p` are the node's capacity and the processes on
//! that node, and for shared layers the totals across the job.

use crate::config::JobGeometry;
use crate::fault::FaultInjector;
use crate::hash::FoldMap;
use crate::log::LogFile;
use crate::metadata::ClientId;
use crate::va::{Tier, TierMap, VirtualAddr};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, RwLock};
use univistor_sim::{Payload, SimError, SimResult};

/// Where an appended segment landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedSegment {
    /// Layer index within the chain.
    pub layer: usize,
    /// The layer's tier.
    pub tier: Tier,
    /// Virtual address (Eq. 1).
    pub va: VirtualAddr,
    /// Segment length.
    pub len: u64,
}

impl PlacedSegment {
    /// True when the DHP could not keep this segment in the chain's top
    /// layer and spilled it down the hierarchy.
    pub fn spilled(&self) -> bool {
        self.layer > 0
    }
}

/// One process's cross-layer log chain.
#[derive(Debug)]
pub struct ProcChain {
    tiers: TierMap,
    logs: Vec<LogFile>,
}

impl ProcChain {
    /// Build a chain from ordered per-process (tier, capacity) pairs.
    /// Capacities are truncated to whole chunks; the TierMap reflects the
    /// truncated (actually addressable) capacities so VAs stay dense.
    pub fn new(layer_caps: Vec<(Tier, u64)>, chunk_size: u64) -> SimResult<Self> {
        let mut logs = Vec::with_capacity(layer_caps.len());
        let mut truncated = Vec::with_capacity(layer_caps.len());
        for (tier, cap) in layer_caps {
            let log = LogFile::new(cap, chunk_size)?;
            let addressable = if cap == u64::MAX {
                u64::MAX
            } else {
                log.capacity()
            };
            truncated.push((tier, addressable));
            logs.push(log);
        }
        Ok(ProcChain {
            tiers: TierMap::new(truncated),
            logs,
        })
    }

    /// The chain's tier map (for VA decoding elsewhere).
    pub fn tiers(&self) -> &TierMap {
        &self.tiers
    }

    /// Append one segment, spilling to the first layer with room.
    pub fn append(&mut self, payload: Payload) -> SimResult<PlacedSegment> {
        self.append_from(0, payload)
    }

    /// Append one segment considering only layers `min_layer` and below —
    /// the background tiering controller's targeted placement: a spill
    /// pass moving data *off* layer `l` appends from `l + 1`, so the copy
    /// can never land back on the tier being relieved. `min_layer` is
    /// clamped to the final (unbounded) layer.
    pub fn append_from(&mut self, min_layer: usize, payload: Payload) -> SimResult<PlacedSegment> {
        let len = payload.len();
        let last = self.logs.len() - 1;
        let first = min_layer.min(last);
        for (layer, log) in self.logs.iter_mut().enumerate().skip(first) {
            if layer == last || log.fits(len) {
                let addr = log.append(payload)?;
                return Ok(PlacedSegment {
                    layer,
                    tier: self.tiers.tier(layer),
                    va: self.tiers.encode(layer, addr.0),
                    len,
                });
            }
        }
        unreachable!("loop always reaches the final layer")
    }

    /// Read `len` bytes at `va`.
    pub fn read(&self, va: VirtualAddr, len: u64) -> SimResult<Payload> {
        let (layer, _, addr) = self.tiers.decode(va);
        self.logs[layer].read(crate::log::LogAddr(addr), len)
    }

    /// Release `len` bytes at `va` (overwritten or flushed data).
    pub fn release(&mut self, va: VirtualAddr, len: u64) {
        let (layer, _, addr) = self.tiers.decode(va);
        self.logs[layer].release(crate::log::LogAddr(addr), len);
    }

    /// Live bytes per layer.
    pub fn live_by_layer(&self) -> Vec<(Tier, u64)> {
        self.logs
            .iter()
            .enumerate()
            .map(|(i, l)| (self.tiers.tier(i), l.live_bytes()))
            .collect()
    }

    /// `(tier, live bytes, usable capacity)` per layer, in chain order —
    /// the tiering controller's watermark probe. The final layer's
    /// capacity saturates at `u64::MAX` (unbounded).
    pub fn layer_usage(&self) -> Vec<(Tier, u64, u64)> {
        self.logs
            .iter()
            .enumerate()
            .map(|(i, l)| (self.tiers.tier(i), l.live_bytes(), l.capacity()))
            .collect()
    }

    /// Layers in the chain.
    pub fn n_layers(&self) -> usize {
        self.logs.len()
    }

    /// The tier a VA resides on.
    pub fn tier_of(&self, va: VirtualAddr) -> Tier {
        self.tiers.decode(va).1
    }

    /// Total live bytes across layers.
    pub fn live_bytes(&self) -> u64 {
        self.logs.iter().map(LogFile::live_bytes).sum()
    }
}

/// The job's set of per-client log chains, each behind its own lock so
/// different clients append/read/release concurrently — DHP's whole point
/// (writes never cross clients). The map itself is read-mostly (a chain is
/// inserted once per client at first open) and guarded by an `RwLock`;
/// per-chain locks nest strictly inside the map lock and at most one chain
/// lock is held at a time (replica appends and displacement releases take
/// the owners' locks sequentially, never together).
#[derive(Debug, Default)]
pub struct ChainSet {
    chains: RwLock<FoldMap<ClientId, Arc<RwLock<ProcChain>>>>,
    /// Fault injector shared with the job; `None` (the default) costs the
    /// data ops only this `Option` check.
    injector: Option<Arc<FaultInjector>>,
}

impl ChainSet {
    /// An empty set.
    pub fn new() -> Self {
        ChainSet::default()
    }

    /// Install the fault injector (at job construction, before the set is
    /// shared). Chain appends and reads then draw from its schedule.
    pub fn set_injector(&mut self, injector: Arc<FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Corruption application hook: flips registered corrupt bytes into
    /// a payload read from `client`'s chain at `va`.
    fn corrupt(&self, client: ClientId, va: VirtualAddr, payload: Payload) -> Payload {
        match &self.injector {
            Some(inj) => inj.corrupt_read(client, va, payload),
            None => payload,
        }
    }

    fn inject(&self, site: &'static str, tier: Tier) -> SimResult<()> {
        match &self.injector {
            Some(inj) => inj.inject(site, Some(tier)),
            None => Ok(()),
        }
    }

    /// True when `client` already owns a chain.
    pub fn contains(&self, client: ClientId) -> bool {
        self.read_map().contains_key(&client)
    }

    /// Number of chains.
    pub fn len(&self) -> usize {
        self.read_map().len()
    }

    /// True when no client owns a chain yet.
    pub fn is_empty(&self) -> bool {
        self.read_map().is_empty()
    }

    /// Every client owning a chain, sorted for deterministic iteration
    /// (the tiering passes enumerate chains per node through this).
    pub fn clients(&self) -> Vec<ClientId> {
        let mut out: Vec<ClientId> = self.read_map().keys().copied().collect();
        out.sort();
        out
    }

    fn read_map(
        &self,
    ) -> std::sync::RwLockReadGuard<'_, FoldMap<ClientId, Arc<RwLock<ProcChain>>>> {
        self.chains.read().expect("chain map poisoned")
    }

    fn chain(&self, client: ClientId) -> SimResult<Arc<RwLock<ProcChain>>> {
        self.read_map()
            .get(&client)
            .cloned()
            .ok_or_else(|| no_chain(client))
    }

    /// Insert `client`'s chain if absent, building it with `make`.
    pub fn ensure(
        &self,
        client: ClientId,
        make: impl FnOnce() -> SimResult<ProcChain>,
    ) -> SimResult<()> {
        if self.contains(client) {
            return Ok(());
        }
        let chain = make()?;
        let mut map = self.chains.write().expect("chain map poisoned");
        map.entry(client)
            .or_insert_with(|| Arc::new(RwLock::new(chain)));
        Ok(())
    }

    /// Append one segment to `client`'s chain (exclusive chain lock).
    /// An injected transient fault rolls the placement back, so a failed
    /// append leaves the chain unchanged and is safe to retry.
    pub fn append(&self, client: ClientId, payload: Payload) -> SimResult<PlacedSegment> {
        let mut placed = self.append_many(client, vec![payload])?;
        Ok(placed.pop().expect("one payload placed"))
    }

    /// Append a run of segments to `client`'s chain under ONE exclusive
    /// chain-lock acquisition — the batched write pipeline's piece run,
    /// versus one acquisition per piece through [`append`](Self::append).
    /// Placement is identical to appending the payloads one at a time. On
    /// error every segment already placed is rolled back (released) before
    /// returning, so a failed batch leaves the chain unchanged.
    pub fn append_many(
        &self,
        client: ClientId,
        payloads: Vec<Payload>,
    ) -> SimResult<Vec<PlacedSegment>> {
        self.append_many_from(client, 0, payloads)
    }

    /// [`append_many`](Self::append_many) restricted to layers `min_layer`
    /// and below — the tiering controller's migration append. Same single
    /// exclusive-lock acquisition, same per-piece fault instrumentation,
    /// same full-batch rollback on error.
    pub fn append_many_from(
        &self,
        client: ClientId,
        min_layer: usize,
        payloads: Vec<Payload>,
    ) -> SimResult<Vec<PlacedSegment>> {
        let chain = self.chain(client)?;
        let mut chain = chain.write().expect("chain poisoned");
        append_run(
            &mut chain,
            self.injector.as_deref(),
            client,
            min_layer,
            payloads,
        )
    }

    /// Read `len` bytes at `va` of `client`'s chain plus the tier they
    /// reside on. Takes only shared locks — concurrent readers of
    /// different (or the same) chains never block each other.
    pub fn read_at(
        &self,
        client: ClientId,
        va: VirtualAddr,
        len: u64,
    ) -> SimResult<(Payload, Tier)> {
        let mut got = None;
        self.read_each(client, [(va, len)], |fetched| got = Some(fetched))?;
        Ok(got.expect("one span requested"))
    }

    /// Read every `(va, len)` request from `client`'s chain under a
    /// **single** shared lock acquisition, results in request order — the
    /// flush gather's batch, mirroring `append_many` on the write side.
    pub fn read_at_many(
        &self,
        client: ClientId,
        requests: &[(VirtualAddr, u64)],
    ) -> SimResult<Vec<(Payload, Tier)>> {
        let mut out = Vec::with_capacity(requests.len());
        self.read_each(client, requests.iter().copied(), |fetched| {
            out.push(fetched)
        })?;
        Ok(out)
    }

    /// Read each `(va, len)` request from `client`'s chain, handing the
    /// results to `each` in request order, under one shared chain-lock
    /// acquisition taken beneath the map's read guard (chain locks nest
    /// inside the map lock), so a fetch clones no `Arc` — the read
    /// pipeline's grouped fetch.
    pub(crate) fn read_each(
        &self,
        client: ClientId,
        requests: impl IntoIterator<Item = (VirtualAddr, u64)>,
        mut each: impl FnMut((Payload, Tier)),
    ) -> SimResult<()> {
        let map = self.read_map();
        let chain = map.get(&client).ok_or_else(|| no_chain(client))?;
        let chain = chain.read().expect("chain poisoned");
        for (va, len) in requests {
            let payload = chain.read(va, len)?;
            let tier = chain.tier_of(va);
            self.inject("chain_read", tier)?;
            each((self.corrupt(client, va, payload), tier));
        }
        Ok(())
    }

    /// Release `len` bytes at `va` of `client`'s chain. A missing chain is
    /// a no-op (the displaced owner may never have connected — e.g. a
    /// replica whose buddy is gone).
    pub fn release(&self, client: ClientId, va: VirtualAddr, len: u64) {
        if let Ok(chain) = self.chain(client) {
            chain.write().expect("chain poisoned").release(va, len);
        }
    }

    /// Release a run of `(owner, va, len)` spans, taking each owner's chain
    /// lock once per consecutive same-owner group (callers sort spans by
    /// owner so each chain costs one acquisition). Missing chains are
    /// skipped, as for [`release`](Self::release). Releases within a chain
    /// happen in input order. Returns the number of chain-lock acquisitions
    /// taken.
    pub fn release_many(&self, spans: &[(ClientId, VirtualAddr, u64)]) -> u64 {
        let mut acquisitions = 0u64;
        let mut i = 0;
        while i < spans.len() {
            let client = spans[i].0;
            let mut j = i;
            while j < spans.len() && spans[j].0 == client {
                j += 1;
            }
            if let Ok(chain) = self.chain(client) {
                let mut chain = chain.write().expect("chain poisoned");
                acquisitions += 1;
                for &(_, va, len) in &spans[i..j] {
                    chain.release(va, len);
                }
            }
            i = j;
        }
        acquisitions
    }

    /// Aggregate live bytes per tier across every chain (shared locks).
    pub fn live_by_tier(&self) -> BTreeMap<Tier, u64> {
        let mut usage = BTreeMap::new();
        for chain in self.read_map().values() {
            let chain = chain.read().expect("chain poisoned");
            for (tier, bytes) in chain.live_by_layer() {
                *usage.entry(tier).or_insert(0) += bytes;
            }
        }
        usage
    }

    /// Total live bytes across all chains.
    pub fn live_bytes(&self) -> u64 {
        self.read_map()
            .values()
            .map(|c| c.read().expect("chain poisoned").live_bytes())
            .sum()
    }

    /// Run `f` with shared access to `client`'s chain.
    ///
    /// Acquisition avoids std `RwLock`'s writer-preferring blocking path:
    /// `try_read` with a bounded spin, then a yielding loop. A queued
    /// writer therefore never wedges a would-be reader behind it while an
    /// existing shared view is held (the writer itself still waits its
    /// turn, but readers keep flowing — see
    /// `UniviStorJob::with_shared_read_view`).
    pub fn with<R>(&self, client: ClientId, f: impl FnOnce(&ProcChain) -> R) -> SimResult<R> {
        let chain = self.chain(client)?;
        let mut spins = 0u32;
        loop {
            match chain.try_read() {
                Ok(chain) => return Ok(f(&chain)),
                Err(std::sync::TryLockError::Poisoned(_)) => panic!("chain poisoned"),
                Err(std::sync::TryLockError::WouldBlock) => {
                    if spins < 64 {
                        spins += 1;
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }
}

/// The error for a producer without a chain.
fn no_chain(client: ClientId) -> SimError {
    SimError::InvalidConfig(format!("no chain for producer {client:?}"))
}

/// Place a run of payloads on `chain` from layer `min_layer` down — the one
/// append loop behind [`ChainSet::append_many`] and
/// [`ChainSet::append_many_from`]. Each placed piece is one instrumented
/// operation (a `chain_append` draw); a transient fault mid-run aborts and
/// rolls back the whole batch, mirroring a real mid-batch I/O error, so a
/// failed run leaves the chain unchanged and is safe to retry.
/// Silent-corruption registration happens only once the whole batch has
/// stuck — rolled-back pieces never existed.
fn append_run(
    chain: &mut ProcChain,
    injector: Option<&FaultInjector>,
    client: ClientId,
    min_layer: usize,
    payloads: Vec<Payload>,
) -> SimResult<Vec<PlacedSegment>> {
    let mut placed: Vec<PlacedSegment> = Vec::with_capacity(payloads.len());
    for payload in payloads {
        let appended = chain.append_from(min_layer, payload).and_then(|p| {
            match injector.map_or(Ok(()), |inj| inj.inject("chain_append", Some(p.tier))) {
                Ok(()) => Ok(p),
                Err(e) => {
                    chain.release(p.va, p.len);
                    Err(e)
                }
            }
        });
        match appended {
            Ok(p) => placed.push(p),
            Err(e) => {
                for p in &placed {
                    chain.release(p.va, p.len);
                }
                return Err(e);
            }
        }
    }
    if let Some(inj) = injector {
        for p in &placed {
            inj.on_append(client, p.va, p.len, p.tier);
        }
    }
    Ok(placed)
}

/// The first replication buddy for `client` whose node is healthy: walk
/// the ranks one node-stride at a time (the classic buddy is the first
/// hop) and skip the client's own node and every failed node. `None`
/// when no healthy off-node buddy exists (single-node jobs, or every
/// other node failed) — the caller then writes unreplicated, exactly as
/// a single-node job always has.
pub fn healthy_buddy(
    geometry: &JobGeometry,
    failed: &HashSet<usize>,
    client: ClientId,
) -> Option<ClientId> {
    let total = geometry.total_procs() as u32;
    let own_node = geometry.node_of_rank(client.rank as usize);
    for hop in 1..geometry.nodes {
        let rank = (client.rank + (hop * geometry.procs_per_node) as u32) % total;
        let node = geometry.node_of_rank(rank as usize);
        if node != own_node && !failed.contains(&node) {
            return Some(ClientId::new(client.app, rank));
        }
    }
    None
}

/// Compute the per-process log capacity of each layer for one client,
/// applying the `c/p` rule (§II-B1).
///
/// * DRAM: node cache capacity / client processes on the node;
/// * node-local SSD (when present): node SSD capacity / processes on the
///   node;
/// * shared burst buffer: total BB capacity / total client processes;
/// * PFS: unbounded.
pub fn paper_layer_caps(
    dram_cache_per_node: u64,
    procs_per_node: usize,
    bb_total: u64,
    total_procs: usize,
) -> Vec<(Tier, u64)> {
    layer_caps_with_node_local(
        dram_cache_per_node,
        None,
        procs_per_node,
        bb_total,
        total_procs,
    )
}

/// The full four-layer variant of the `c/p` rule, with an optional
/// node-local SSD layer between DRAM and the shared burst buffer.
pub fn layer_caps_with_node_local(
    dram_cache_per_node: u64,
    node_local_per_node: Option<u64>,
    procs_per_node: usize,
    bb_total: u64,
    total_procs: usize,
) -> Vec<(Tier, u64)> {
    assert!(procs_per_node > 0 && total_procs > 0);
    let mut caps = vec![(Tier::Dram, dram_cache_per_node / procs_per_node as u64)];
    if let Some(ssd) = node_local_per_node {
        caps.push((Tier::NodeLocal, ssd / procs_per_node as u64));
    }
    caps.push((Tier::SharedBurstBuffer, bb_total / total_procs as u64));
    caps.push((Tier::Pfs, u64::MAX));
    caps
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 2 geometry: node-local cap 2 units, BB cap 3 units, PFS ∞.
    /// We scale units to one 64-byte chunk each so chunk math stays exact.
    fn fig2_chain() -> ProcChain {
        ProcChain::new(
            vec![
                (Tier::NodeLocal, 2 * 64),
                (Tier::SharedBurstBuffer, 3 * 64),
                (Tier::Pfs, u64::MAX),
            ],
            64,
        )
        .unwrap()
    }

    /// A chain set holding one [`fig2_chain`], for `client`.
    fn fig2_set(client: ClientId) -> ChainSet {
        let chains = ChainSet::new();
        chains.ensure(client, || Ok(fig2_chain())).unwrap();
        chains
    }

    #[test]
    fn fig2_spill_sequence() {
        // 8 segments (D1–D8 of process 1): 2 land on node-local, 3 on the
        // BB, 3 on the PFS — exactly Fig. 2.
        let mut chain = fig2_chain();
        let placements: Vec<PlacedSegment> = (0..8)
            .map(|i| chain.append(Payload::pattern(i, 64)).unwrap())
            .collect();
        let tiers: Vec<Tier> = placements.iter().map(|p| p.tier).collect();
        assert_eq!(
            tiers,
            vec![
                Tier::NodeLocal,
                Tier::NodeLocal,
                Tier::SharedBurstBuffer,
                Tier::SharedBurstBuffer,
                Tier::SharedBurstBuffer,
                Tier::Pfs,
                Tier::Pfs,
                Tier::Pfs,
            ]
        );
        // D4 (index 3) is the second segment of the BB log: VA = 2·64 + 64.
        assert_eq!(placements[3].va, VirtualAddr(3 * 64));
    }

    #[test]
    fn reads_find_data_across_layers() {
        let mut chain = fig2_chain();
        let mut placed = Vec::new();
        for i in 0..8u64 {
            placed.push((i, chain.append(Payload::pattern(i, 64)).unwrap()));
        }
        for (seed, p) in placed {
            let got = chain.read(p.va, 64).unwrap();
            assert!(
                got.content_eq(&Payload::pattern(seed, 64)),
                "segment {seed} on {} corrupted",
                p.tier
            );
        }
    }

    #[test]
    fn release_lets_fast_layer_recycle() {
        let mut chain = fig2_chain();
        let first = chain.append(Payload::pattern(1, 64)).unwrap();
        chain.append(Payload::pattern(2, 64)).unwrap();
        // Node-local full; release the first chunk, next append reuses it.
        chain.release(first.va, 64);
        let again = chain.append(Payload::pattern(3, 64)).unwrap();
        assert_eq!(again.tier, Tier::NodeLocal);
    }

    #[test]
    fn live_by_layer_tracks_distribution() {
        let mut chain = fig2_chain();
        for i in 0..6u64 {
            chain.append(Payload::pattern(i, 64)).unwrap();
        }
        let live = chain.live_by_layer();
        assert_eq!(live[0], (Tier::NodeLocal, 128));
        assert_eq!(live[1], (Tier::SharedBurstBuffer, 192));
        assert_eq!(live[2], (Tier::Pfs, 64));
        assert_eq!(chain.live_bytes(), 6 * 64);
    }

    #[test]
    fn segments_smaller_than_chunks_pack() {
        let mut chain =
            ProcChain::new(vec![(Tier::Dram, 256), (Tier::Pfs, u64::MAX)], 128).unwrap();
        // Four 50-byte segments: two per 128-byte chunk (with 28 wasted),
        // all on DRAM.
        for i in 0..4u64 {
            let p = chain.append(Payload::pattern(i, 50)).unwrap();
            assert_eq!(p.tier, Tier::Dram, "segment {i}");
        }
        // Chunk space exhausted (2×28 B tails unusable): spill.
        let p = chain.append(Payload::pattern(9, 50)).unwrap();
        assert_eq!(p.tier, Tier::Pfs);
    }

    #[test]
    fn paper_caps_follow_c_over_p() {
        let caps = paper_layer_caps(44 << 30, 32, 100 << 30, 8192);
        assert_eq!(caps[0].1, (44u64 << 30) / 32);
        assert_eq!(caps[1].1, (100u64 << 30) / 8192);
        assert_eq!(caps[2].1, u64::MAX);
    }

    #[test]
    fn read_at_many_matches_per_request_reads() {
        let chains = fig2_set(ClientId::new(0, 0));
        let client = ClientId::new(0, 0);
        let placed: Vec<PlacedSegment> = (0..8u64)
            .map(|i| chains.append(client, Payload::pattern(i, 64)).unwrap())
            .collect();
        // One grouped fetch over all segments, in a shuffled order.
        let requests: Vec<(VirtualAddr, u64)> = [3usize, 0, 7, 5, 1, 6, 2, 4]
            .iter()
            .map(|&i| (placed[i].va, 64))
            .collect();
        let batch = chains.read_at_many(client, &requests).unwrap();
        assert_eq!(batch.len(), requests.len());
        for (&(va, len), (payload, tier)) in requests.iter().zip(&batch) {
            let (single, single_tier) = chains.read_at(client, va, len).unwrap();
            assert!(payload.content_eq(&single));
            assert_eq!(*tier, single_tier);
        }
    }

    #[test]
    fn healthy_buddy_skips_failed_nodes() {
        let g = JobGeometry {
            nodes: 4,
            procs_per_node: 2,
            servers_per_node: 2,
        };
        let client = ClientId::new(0, 1); // node 0
        let none_failed = HashSet::new();
        // Healthy cluster: the classic one-node-stride buddy.
        assert_eq!(
            healthy_buddy(&g, &none_failed, client),
            Some(ClientId::new(0, 3))
        );
        // Buddy's node failed: walk one more stride.
        let failed: HashSet<usize> = [1].into_iter().collect();
        assert_eq!(
            healthy_buddy(&g, &failed, client),
            Some(ClientId::new(0, 5))
        );
        // Every other node failed: no buddy.
        let all: HashSet<usize> = [1, 2, 3].into_iter().collect();
        assert_eq!(healthy_buddy(&g, &all, client), None);
        // The client's own failed node never disqualifies *other* nodes.
        let own: HashSet<usize> = [0].into_iter().collect();
        assert_eq!(healthy_buddy(&g, &own, client), Some(ClientId::new(0, 3)));
    }

    #[test]
    fn healthy_buddy_single_node_has_none() {
        let g = JobGeometry {
            nodes: 1,
            procs_per_node: 4,
            servers_per_node: 2,
        };
        assert_eq!(
            healthy_buddy(&g, &HashSet::new(), ClientId::new(0, 2)),
            None
        );
    }

    #[test]
    fn injected_append_faults_roll_back_placement() {
        use crate::fault::{FaultConfig, FaultInjector};
        let mut chains = fig2_set(ClientId::new(0, 0));
        chains.set_injector(Arc::new(FaultInjector::new(FaultConfig {
            seed: 1,
            transient_prob: 1.0,
            ..FaultConfig::default()
        })));
        let client = ClientId::new(0, 0);
        assert!(chains.append(client, Payload::pattern(0, 64)).is_err());
        assert!(chains
            .append_many(
                client,
                vec![Payload::pattern(1, 64), Payload::pattern(2, 64)]
            )
            .is_err());
        // Every placement was rolled back: the chain holds no live bytes.
        assert_eq!(chains.live_bytes(), 0);
    }

    #[test]
    fn append_from_skips_layers_above_the_floor() {
        let mut chain = fig2_chain();
        // Node-local has room, but a floor of layer 1 forces the BB.
        let p = chain.append_from(1, Payload::pattern(0, 64)).unwrap();
        assert_eq!(p.tier, Tier::SharedBurstBuffer);
        // Floor past the last layer clamps to the PFS instead of panicking.
        let p = chain.append_from(99, Payload::pattern(1, 64)).unwrap();
        assert_eq!(p.tier, Tier::Pfs);
        // Floor 0 is plain append: node-local is still free and is used.
        let p = chain.append_from(0, Payload::pattern(2, 64)).unwrap();
        assert_eq!(p.tier, Tier::NodeLocal);
    }

    #[test]
    fn layer_usage_reports_live_and_capacity() {
        let mut chain = fig2_chain();
        for i in 0..3u64 {
            chain.append(Payload::pattern(i, 64)).unwrap();
        }
        let usage = chain.layer_usage();
        assert_eq!(chain.n_layers(), 3);
        assert_eq!(usage[0], (Tier::NodeLocal, 128, 128));
        assert_eq!(usage[1].0, Tier::SharedBurstBuffer);
        assert_eq!(usage[1].1, 64);
        assert_eq!(usage[1].2, 192);
        assert_eq!(usage[2].0, Tier::Pfs);
    }

    #[test]
    fn append_many_from_rolls_back_like_append_many() {
        use crate::fault::{FaultConfig, FaultInjector};
        let client = ClientId::new(0, 0);
        let chains = fig2_set(client);
        let placed = chains
            .append_many_from(
                client,
                1,
                vec![Payload::pattern(0, 64), Payload::pattern(1, 64)],
            )
            .unwrap();
        assert!(placed.iter().all(|p| p.tier == Tier::SharedBurstBuffer));
        // And under a certain transient fault, the batch rolls back whole.
        let mut faulty = fig2_set(client);
        faulty.set_injector(Arc::new(FaultInjector::new(FaultConfig {
            seed: 7,
            transient_prob: 1.0,
            ..FaultConfig::default()
        })));
        assert!(faulty
            .append_many_from(client, 1, vec![Payload::pattern(2, 64)])
            .is_err());
        assert_eq!(faulty.live_bytes(), 0);
    }

    #[test]
    fn vas_are_unique_within_a_chain() {
        let mut chain = fig2_chain();
        let mut seen = std::collections::HashSet::new();
        for i in 0..8u64 {
            let p = chain.append(Payload::pattern(i, 64)).unwrap();
            assert!(seen.insert(p.va), "duplicate VA {:?}", p.va);
        }
    }
}
