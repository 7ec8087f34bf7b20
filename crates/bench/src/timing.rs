//! The timing plane: converts functional receipts into simulated phase
//! times on the calibrated Cori-like platform.
//!
//! Each phase time is the maximum over the bottlenecks the phase crosses
//! (per-process CPU caps, NUMA-socket memory systems, NICs, burst-buffer
//! SSDs, OSTs), plus serial overheads (open/close metadata storms, stripe
//! synchronization, lock revocations). For the symmetric bulk-synchronous
//! phases the evaluation measures, this max-of-bottlenecks closed form
//! equals the max–min-fair flow allocation; a progressive-filling
//! reference in this module's tests cross-checks that claim.
//!
//! Scheduling (IA vs. CFS) enters through real placements: every node's
//! core assignment is computed with the actual policy implementations and
//! the contention model turns stacking/imbalance into per-process rate
//! caps.

use univistor_core::config::{Features, JobGeometry};
use univistor_core::flush::FlushReceipt;
use univistor_core::metrics::tier_label;
use univistor_core::va::Tier;
use univistor_core::MetricsSnapshot;
use univistor_sim::calibration::{small_io_efficiency, Calibration};
use univistor_sim::cores::{
    CfsPolicy, ContentionModel, CoreAssignment, InterferenceAwarePolicy, NodeShape,
    PlacementPolicy, SERVER_PROGRAM,
};
use univistor_sim::latency::{all_to_one_storm, collective_open_close};

/// Per-process cached bytes by destination tier for one write phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct TierBytes {
    /// Bytes cached on node-local DRAM.
    pub dram: u64,
    /// Bytes cached on the node-local SSD (when that layer is enabled).
    pub node_local: u64,
    /// Bytes cached on the shared burst buffer (file-per-process logs).
    pub bb: u64,
    /// Bytes spilled to per-process PFS logs.
    pub pfs: u64,
}

impl TierBytes {
    /// The per-process averages of a phase's per-tier
    /// `univistor_cached_bytes_total` samples (a panel delta).
    pub fn from_delta(delta: &MetricsSnapshot, procs: usize) -> Self {
        let per = |t: Tier| {
            let total = delta.counter("univistor_cached_bytes_total", &[("tier", tier_label(t))]);
            total.unwrap_or(0) / procs.max(1) as u64
        };
        TierBytes {
            dram: per(Tier::Dram),
            node_local: per(Tier::NodeLocal),
            bb: per(Tier::SharedBurstBuffer),
            pfs: per(Tier::Pfs),
        }
    }

    /// Total per-process bytes.
    pub fn total(&self) -> u64 {
        self.dram + self.node_local + self.bb + self.pfs
    }
}

/// The calibrated platform an experiment runs on.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Hardware constants.
    pub cal: Calibration,
    /// Job geometry.
    pub geometry: JobGeometry,
    /// Seed for the CFS baseline's randomness.
    pub seed: u64,
}

/// Summary of per-process memory rates under a placement policy.
#[derive(Debug, Clone, Copy)]
pub struct MemProfile {
    /// Slowest client's effective copy rate (sets the phase makespan
    /// together with socket aggregates).
    pub min_client_rate: f64,
    /// Largest per-socket client count across the job (drives the
    /// socket-bandwidth bound).
    pub max_socket_clients: usize,
    /// Effective per-server copy rate during a flush (after migration
    /// with IA; stacked with clients without).
    pub server_flush_rate: f64,
}

impl Platform {
    /// The paper's platform for `procs` total client processes.
    pub fn paper(procs: usize) -> Self {
        Platform {
            cal: Calibration::default(),
            geometry: JobGeometry::paper(procs),
            seed: 0x5eed_cafe,
        }
    }

    fn shape(&self) -> NodeShape {
        NodeShape {
            sockets: self.cal.sockets_per_node,
            cores_per_socket: self.cal.cores_per_socket,
        }
    }

    /// Total client processes.
    pub fn procs(&self) -> usize {
        self.geometry.total_procs()
    }

    /// Burst-buffer aggregate bandwidth of this job's allocation.
    pub fn bb_aggregate_bw(&self) -> f64 {
        self.cal.bb_nodes_for_job(self.geometry.nodes) as f64 * self.cal.bb_node_bw
    }

    /// NIC aggregate bandwidth.
    pub fn nic_aggregate_bw(&self) -> f64 {
        self.geometry.nodes as f64 * self.cal.nic_bw
    }

    /// Compute real placements on every node with the selected policy and
    /// summarize the contention profile.
    pub fn mem_profile(&self, interference_aware: bool) -> MemProfile {
        let shape = self.shape();
        let programs = [
            (0u32, self.geometry.procs_per_node),
            (SERVER_PROGRAM, self.geometry.servers_per_node),
        ];
        let model = ContentionModel {
            per_proc_copy_bw: self.cal.per_proc_copy_bw,
            ctx_switch_efficiency: self.cal.ctx_switch_efficiency,
        };
        let mut min_client_rate = f64::INFINITY;
        let mut max_socket_clients = 0usize;
        let mut server_flush_rate: f64 = f64::INFINITY;
        // Under IA every node is identical; sample one. Under CFS, place
        // every node with its own seed.
        let node_count = if interference_aware {
            1
        } else {
            self.geometry.nodes
        };
        for node in 0..node_count {
            let assignment: CoreAssignment = if interference_aware {
                InterferenceAwarePolicy::new().place(shape, &programs)
            } else {
                CfsPolicy::new(self.seed.wrapping_add(node as u64), self.cal.cfs_stack_prob)
                    .place(shape, &programs)
            };
            // Client phase rates (servers idle).
            for r in model.proc_rates(&assignment, |s| s.program == 0) {
                min_client_rate = min_client_rate.min(r.rate_cap);
            }
            for socket in 0..shape.sockets {
                let clients = (0..shape.cores_per_socket)
                    .map(|c| {
                        assignment
                            .procs_on_core(socket * shape.cores_per_socket + c)
                            .iter()
                            .filter(|p| p.program == 0)
                            .count()
                    })
                    .sum::<usize>();
                max_socket_clients = max_socket_clients.max(clients);
            }
            // Flush-time server rates: IA migrates clients off server
            // cores (servers run alone); without IA servers stay stacked
            // wherever CFS put them, sharing their cores with clients that
            // are concurrently computing.
            if interference_aware {
                server_flush_rate = self.cal.per_proc_copy_bw;
            } else {
                for r in model.proc_rates(&assignment, |_| true) {
                    if r.slot.program == SERVER_PROGRAM {
                        server_flush_rate = server_flush_rate.min(r.rate_cap);
                    }
                }
            }
        }
        if !interference_aware {
            // CFS load balancing bounds how long any process stays
            // deeply stacked.
            let floor = self.cal.per_proc_copy_bw * self.cal.cfs_min_share;
            min_client_rate = min_client_rate.max(floor.min(self.cal.per_proc_copy_bw));
            server_flush_rate = server_flush_rate.max(floor);
        }
        MemProfile {
            min_client_rate,
            max_socket_clients,
            server_flush_rate,
        }
    }

    /// Cost of a collective open or close under the given features
    /// (§II-F): one root RPC + broadcast with COC, an all-to-one storm
    /// without.
    pub fn open_close_cost(&self, features: &Features) -> f64 {
        let p = self.procs() as u64;
        if features.collective_open_close {
            collective_open_close(p, self.cal.net_latency, self.cal.rpc_service_time)
        } else {
            all_to_one_storm(p, self.cal.net_latency, self.cal.rpc_service_time)
        }
    }

    // ----- write phases ----------------------------------------------

    /// Time of one UniviStor cache-write phase: every client writes
    /// `per_proc` bytes through DHP (already executed functionally; the
    /// tier split comes from the job's receipts), including one collective
    /// open + close.
    pub fn univistor_write_time(
        &self,
        features: &Features,
        per_proc: TierBytes,
        segments_per_proc: u64,
    ) -> f64 {
        let profile = self.mem_profile(features.interference_aware);
        let p = self.procs() as f64;

        // Sub-phase 1: DRAM. Makespan = max(slowest socket drain, slowest
        // capped client).
        let t_dram = if per_proc.dram > 0 {
            let socket_drain =
                (profile.max_socket_clients as u64 * per_proc.dram) as f64 / self.cal.socket_mem_bw;
            let client_drain = per_proc.dram as f64 / profile.min_client_rate;
            socket_drain.max(client_drain)
        } else {
            0.0
        };

        // Sub-phase 1b: node-local SSD — per-node device shared by the
        // node's clients, no network involved.
        let t_node_local = if per_proc.node_local > 0 {
            let node_bytes = per_proc.node_local * self.geometry.procs_per_node as u64;
            (node_bytes as f64 / self.cal.node_local_bw)
                .max(per_proc.node_local as f64 / profile.min_client_rate)
        } else {
            0.0
        };

        // Sub-phase 2: shared burst buffer — file-per-process logs, so no
        // shared-file penalty. Bounded by BB SSDs, NICs, and client CPUs.
        let t_bb = if per_proc.bb > 0 {
            let total = per_proc.bb as f64 * p;
            let bw = self
                .bb_aggregate_bw()
                .min(self.nic_aggregate_bw())
                .min(p * profile.min_client_rate);
            total / bw
        } else {
            0.0
        };

        // Sub-phase 3: spill to per-process PFS log files (file-per-
        // process → no lock contention; one OST per log, round-robin;
        // log-structured 8 MiB chunk writes keep the per-RPC overhead
        // small but nonzero).
        let t_pfs = if per_proc.pfs > 0 {
            let total = per_proc.pfs as f64 * p;
            let chunk_eff = small_io_efficiency(
                8 << 20, // UniviStorConfig::paper() chunk size
                self.cal.ost_bw,
                self.cal.pfs_log_commit_overhead,
            );
            let used_osts = (self.procs().min(self.cal.ost_count)) as f64;
            let bw = (used_osts * self.cal.ost_bw)
                .min(self.nic_aggregate_bw())
                .min(p * profile.min_client_rate)
                * chunk_eff;
            total / bw
        } else {
            0.0
        };

        // Metadata puts: distributed across all metadata servers; each
        // client's puts are pipelined with its writes — the residual cost
        // is one round trip per segment at the client.
        let t_md =
            segments_per_proc as f64 * (2.0 * self.cal.net_latency + self.cal.rpc_service_time);

        t_dram + t_node_local + t_bb + t_pfs + t_md + 2.0 * self.open_close_cost(features)
    }

    /// Direct-Lustre shared-file write (the paper's "Lustre" series).
    pub fn lustre_write_time(&self, per_proc_bytes: u64) -> f64 {
        let p = self.procs() as u64;
        let total = per_proc_bytes as f64 * p as f64;
        let stripe_eff = small_io_efficiency(
            self.cal.default_stripe_size,
            self.cal.ost_bw,
            self.cal.ost_rpc_overhead,
        );
        // Lock ping-pong and per-stripe RPC costs degrade the whole
        // path, not just the OST side — a client stalled on a revoked
        // lock injects nothing into its NIC either.
        let bw = self
            .cal
            .lustre_peak_bw()
            .min(self.nic_aggregate_bw())
            .min(p as f64 * self.cal.per_proc_copy_bw)
            * self.cal.lustre_shared_efficiency(p)
            * stripe_eff;
        // Shared-file open storm at the MDS.
        total / bw + 2.0 * all_to_one_storm(p, self.cal.net_latency, self.cal.mds_service_time)
    }

    /// Data Elevator shared-file write to the burst buffer.
    pub fn de_write_time(&self, per_proc_bytes: u64) -> f64 {
        let p = self.procs() as u64;
        let total = per_proc_bytes as f64 * p as f64;
        let bw = self
            .bb_aggregate_bw()
            .min(self.nic_aggregate_bw())
            .min(p as f64 * self.cal.per_proc_copy_bw)
            * self.cal.bb_shared_efficiency(p);
        total / bw + 2.0 * all_to_one_storm(p, self.cal.net_latency, self.cal.mds_service_time)
    }

    // ----- read phases -----------------------------------------------

    /// Time of one UniviStor read phase from its panel delta: the
    /// per-path `univistor_read_bytes_total` samples, and the read ops and
    /// read metadata RPCs.
    pub fn univistor_read_time(&self, features: &Features, delta: &MetricsSnapshot) -> f64 {
        let profile = self.mem_profile(features.interference_aware);
        let p = self.procs() as f64;
        let per = |total: u64| total as f64 / p;
        let count = |family, key, value| delta.counter(family, &[(key, value)]).unwrap_or(0);
        let path = |value| count("univistor_read_bytes_total", "path", value);
        let shared_direct_bytes = path("bb_direct");
        let pfs_direct_bytes = path("pfs_direct");
        let remote_bytes = path("remote_hop");

        // Local direct: memcpy out of node-local logs.
        let ld = per(path("local_hit"));
        let t_local = if ld > 0.0 {
            let socket = profile.max_socket_clients as f64 * ld / self.cal.socket_mem_bw;
            socket.max(ld / profile.min_client_rate)
        } else {
            0.0
        };

        // Local via server: two copies through the socket plus the
        // co-located servers' CPU.
        let vs = per(path("local_via_server"));
        let t_via = if vs > 0.0 {
            let socket = 2.0 * profile.max_socket_clients as f64 * vs / self.cal.socket_mem_bw;
            let node_bytes = vs * self.geometry.procs_per_node as f64;
            let server_cpu =
                node_bytes / (self.geometry.servers_per_node as f64 * self.cal.per_proc_copy_bw);
            socket.max(server_cpu).max(vs / profile.min_client_rate)
        } else {
            0.0
        };

        // Shared layers fetched directly (BB and PFS logs are globally
        // visible; the SSDs' read channel is independent of writes).
        let t_shared = if shared_direct_bytes > 0 {
            shared_direct_bytes as f64 / self.bb_aggregate_bw().min(self.nic_aggregate_bw())
        } else {
            0.0
        };
        let t_pfs = if pfs_direct_bytes > 0 {
            let used_osts = self.procs().min(self.cal.ost_count) as f64;
            pfs_direct_bytes as f64 / (used_osts * self.cal.ost_bw).min(self.nic_aggregate_bw())
        } else {
            0.0
        };

        // Remote round trips cross two NICs.
        let t_remote = if remote_bytes > 0 {
            remote_bytes as f64 / (self.nic_aggregate_bw() / 2.0)
        } else {
            0.0
        };

        // Metadata lookups: spread over the metadata servers; the hot-spot
        // is the per-server queue.
        let servers = self.geometry.total_servers() as f64;
        let md_rpcs = count("univistor_md_rpcs_total", "op", "read");
        let requests = count("univistor_ops_total", "op", "read");
        let t_md = (md_rpcs as f64 / servers) * self.cal.rpc_service_time
            + (requests as f64 / p) * 2.0 * self.cal.net_latency;

        t_local + t_via + t_shared + t_pfs + t_remote + t_md + 2.0 * self.open_close_cost(features)
    }

    /// Data Elevator read (always from the shared BB file; shared-file
    /// metadata and striping still cost a mild contention factor on
    /// reads).
    pub fn de_read_time(&self, total_bytes: u64) -> f64 {
        let p = self.procs() as u64;
        let read_eff =
            univistor_sim::calibration::shared_efficiency(self.cal.bb_shared_contention / 2.0, p);
        let bw = self
            .bb_aggregate_bw()
            .min(self.nic_aggregate_bw())
            .min(p as f64 * self.cal.per_proc_copy_bw)
            * read_eff;
        total_bytes as f64 / bw
            + 2.0 * all_to_one_storm(p, self.cal.net_latency, self.cal.mds_service_time)
    }

    /// Direct-Lustre read.
    pub fn lustre_read_time(&self, total_bytes: u64) -> f64 {
        let p = self.procs() as u64;
        // Readers share locks and server-side prefetching amortizes part of
        // the per-stripe RPC cost, so reads see half of the write
        // overhead.
        let stripe_eff = small_io_efficiency(
            self.cal.default_stripe_size,
            self.cal.ost_bw,
            self.cal.ost_rpc_overhead / 2.0,
        );
        let bw = self
            .cal
            .lustre_peak_bw()
            .min(self.nic_aggregate_bw())
            .min(p as f64 * self.cal.per_proc_copy_bw)
            * stripe_eff;
        total_bytes as f64 / bw
            + 2.0 * all_to_one_storm(p, self.cal.net_latency, self.cal.mds_service_time)
    }

    // ----- flush phases ----------------------------------------------

    /// Time of one UniviStor server-side flush, from its receipt.
    pub fn univistor_flush_time(&self, features: &Features, receipt: &FlushReceipt) -> f64 {
        let profile = self.mem_profile(features.interference_aware);
        let servers = self.geometry.total_servers();
        let spn = self.geometry.servers_per_node.max(1);

        // OST side: the slowest OST drains last; small stripes pay the
        // per-RPC overhead.
        let stripe_eff = small_io_efficiency(
            receipt.plan.stripe_size,
            self.cal.ost_bw,
            self.cal.ost_rpc_overhead,
        );
        let max_ost = receipt.per_ost_bytes.iter().copied().max().unwrap_or(0);
        // A PFS-sourced flush (the "Disk" configuration) reads its input
        // back off the same OST pool it writes to.
        let pfs_src: u64 = receipt
            .source_tier_bytes
            .iter()
            .filter(|(t, _)| *t == Tier::Pfs)
            .map(|(_, b)| *b)
            .sum();
        let ost_load_factor = 1.0 + pfs_src as f64 / receipt.file_size.max(1) as f64;
        let t_ost = max_ost as f64 * ost_load_factor / (self.cal.ost_bw * stripe_eff);

        // Server CPU side. Pulling source bytes off the shared BB (or the
        // PFS logs) costs the server extra copy work compared with reading
        // node-local DRAM.
        let src_bytes = |tier: Tier| -> u64 {
            receipt
                .source_tier_bytes
                .iter()
                .filter(|(t, _)| *t == tier)
                .map(|(_, b)| *b)
                .sum()
        };
        let remote_src_frac = (src_bytes(Tier::SharedBurstBuffer) + src_bytes(Tier::Pfs)) as f64
            / receipt.file_size.max(1) as f64;
        let cpu_factor = 1.0 + 0.15 * remote_src_frac;
        let max_server = receipt.per_server_bytes.iter().copied().max().unwrap_or(0);
        let t_server = max_server as f64 * cpu_factor / profile.server_flush_rate;

        // NIC side (servers of one node share its NIC).
        let max_node_bytes = receipt
            .per_server_bytes
            .chunks(spn)
            .map(|c| c.iter().sum::<u64>())
            .max()
            .unwrap_or(0);
        let t_nic = max_node_bytes as f64 / self.cal.nic_bw;

        // Source side: reading spilled data back off the BB.
        let bb_src = receipt
            .source_tier_bytes
            .iter()
            .filter(|(t, _)| *t == Tier::SharedBurstBuffer)
            .map(|(_, b)| *b)
            .sum::<u64>();
        let t_src = bb_src as f64 / self.bb_aggregate_bw();

        // Serial overheads: stripe synchronization per contacted OST and
        // lock revocations.
        let sync = receipt.osts_per_server as f64 * self.cal.ost_sync_overhead;
        let locks = (receipt.lock_revocations as f64 / servers.max(1) as f64)
            * (2.0 * self.cal.net_latency + self.cal.rpc_service_time);

        t_ost.max(t_server).max(t_nic).max(t_src) + sync + locks
    }

    /// Data Elevator's flush (static striping, no IA): same bottleneck
    /// structure with DE's fixed parameters.
    pub fn de_flush_time(
        &self,
        receipt: &univistor_baselines::data_elevator::DeFlushReceipt,
    ) -> f64 {
        let spn = self.geometry.servers_per_node.max(1);
        let servers = self.geometry.total_servers();
        let stripe_eff = small_io_efficiency(
            self.cal.default_stripe_size,
            self.cal.ost_bw,
            self.cal.ost_rpc_overhead,
        );
        let max_ost = receipt.per_ost_bytes.iter().copied().max().unwrap_or(0);
        let t_ost = max_ost as f64 / (self.cal.ost_bw * stripe_eff);

        // DE has no interference-aware migration: its flushing servers
        // share cores with the application wherever CFS put them; CFS's
        // load balancing bounds the share they keep.
        let server_rate = self.cal.per_proc_copy_bw * self.cal.cfs_min_share;
        let max_server = receipt.per_server_bytes.iter().copied().max().unwrap_or(0);
        // All source bytes come off the shared BB file.
        let t_server = max_server as f64 * 1.15 / server_rate;

        let max_node_bytes = receipt
            .per_server_bytes
            .chunks(spn)
            .map(|c| c.iter().sum::<u64>())
            .max()
            .unwrap_or(0);
        let t_nic = max_node_bytes as f64 / self.cal.nic_bw;

        // Source side: the whole file is read back from the BB.
        let t_src = receipt.file_size as f64 / self.bb_aggregate_bw();

        let sync = receipt.osts_per_server as f64 * self.cal.ost_sync_overhead;
        let locks = (receipt.lock_revocations as f64 / servers.max(1) as f64)
            * (2.0 * self.cal.net_latency + self.cal.rpc_service_time);

        t_ost.max(t_server).max(t_nic).max(t_src) + sync + locks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(ia: bool, coc: bool) -> Features {
        Features {
            interference_aware: ia,
            collective_open_close: coc,
            ..Features::default()
        }
    }

    #[test]
    fn ia_speeds_up_dram_writes() {
        let p = Platform::paper(1024);
        let per = TierBytes {
            dram: 256 << 20,
            ..TierBytes::default()
        };
        let with_ia = p.univistor_write_time(&features(true, true), per, 32);
        let without = p.univistor_write_time(&features(false, true), per, 32);
        let speedup = without / with_ia;
        assert!(
            (1.2..4.0).contains(&speedup),
            "IA write speedup {speedup} out of plausible band"
        );
    }

    #[test]
    fn coc_matters_more_at_scale() {
        let small = Platform::paper(64);
        let large = Platform::paper(8192);
        let per = TierBytes {
            dram: 256 << 20,
            ..TierBytes::default()
        };
        let s_gain = small.univistor_write_time(&features(true, false), per, 32)
            / small.univistor_write_time(&features(true, true), per, 32);
        let l_gain = large.univistor_write_time(&features(true, false), per, 32)
            / large.univistor_write_time(&features(true, true), per, 32);
        assert!(
            l_gain > s_gain,
            "COC gain must grow with scale: {s_gain} vs {l_gain}"
        );
        assert!(l_gain > 1.1, "COC gain at 8192 procs too small: {l_gain}");
    }

    #[test]
    fn dram_beats_bb_beats_lustre() {
        let p = Platform::paper(2048);
        let f = Features::default();
        let dram = p.univistor_write_time(
            &f,
            TierBytes {
                dram: 256 << 20,
                ..Default::default()
            },
            32,
        );
        let bb = p.univistor_write_time(
            &f,
            TierBytes {
                bb: 256 << 20,
                ..Default::default()
            },
            32,
        );
        let de = p.de_write_time(256 << 20);
        let lustre = p.lustre_write_time(256 << 20);
        assert!(dram < bb, "DRAM {dram} !< BB {bb}");
        assert!(bb < de, "UniviStor/BB {bb} !< DE {de}");
        assert!(de < lustre, "DE {de} !< Lustre {lustre}");
    }

    #[test]
    fn dram_vs_lustre_gap_grows_toward_paper_band() {
        let f = Features::default();
        let per = TierBytes {
            dram: 256 << 20,
            ..Default::default()
        };
        let gap_small = {
            let p = Platform::paper(64);
            p.lustre_write_time(256 << 20) / p.univistor_write_time(&f, per, 32)
        };
        let gap_large = {
            let p = Platform::paper(8192);
            p.lustre_write_time(256 << 20) / p.univistor_write_time(&f, per, 32)
        };
        assert!(gap_large > gap_small);
        assert!(
            (20.0..80.0).contains(&gap_large),
            "paper reports up to ≈46×, got {gap_large}"
        );
    }

    /// Max–min fair finish times of `flows` (`(bytes, rate cap)`) sharing
    /// one pool of `bw` bytes/s, all starting at 0: progressive filling
    /// grants the smallest caps first and splits what is left evenly among
    /// the rest, re-rated at every completion.
    fn maxmin_finish(bw: f64, flows: &[(f64, f64)]) -> Vec<f64> {
        let mut left: Vec<f64> = flows.iter().map(|f| f.0).collect();
        let mut finish = vec![0.0; flows.len()];
        let mut active: Vec<usize> = (0..flows.len()).collect();
        active.sort_by(|&a, &b| flows[a].1.total_cmp(&flows[b].1));
        let mut now = 0.0;
        while !active.is_empty() {
            let (mut pool, n) = (bw, active.len());
            let rates: Vec<f64> = (0..n)
                .map(|k| {
                    let rate = flows[active[k]].1.min(pool / (n - k) as f64);
                    pool -= rate;
                    rate
                })
                .collect();
            let dt = (0..n)
                .map(|k| left[active[k]] / rates[k])
                .fold(f64::INFINITY, f64::min);
            now += dt;
            for (&i, rate) in active.iter().zip(&rates) {
                left[i] -= rate * dt;
                if left[i] <= 1e-6 {
                    finish[i] = now;
                }
            }
            active.retain(|&i| left[i] > 1e-6);
        }
        finish
    }

    #[test]
    fn maxmin_reference_known_answer() {
        // Capped at 1 B/s, flow 0 leaves 9 B/s to the other two until they
        // finish at 10 / 4.5 s; it then drains its last 70/9 bytes alone.
        let inf = f64::INFINITY;
        let got = maxmin_finish(10.0, &[(10.0, 1.0), (10.0, inf), (10.0, inf)]);
        for (g, want) in got.iter().zip([10.0, 20.0 / 9.0, 20.0 / 9.0]) {
            assert!((g - want).abs() < 1e-12, "{got:?}");
        }
    }

    #[test]
    fn analytic_write_time_matches_maxmin_allocation() {
        // The module doc promises the closed form equals the max–min-fair
        // flow allocation for symmetric phases. Check the DRAM sub-phase
        // against the reference with one flow per client, at the
        // calibrated socket bandwidth (the clients' rate caps bind) and at
        // a starved one (the socket binds).
        let mut p = Platform::paper(256); // 8 nodes x 32 clients
        let bytes = 64u64 << 20;
        let f = Features {
            collective_open_close: true,
            ..Features::default()
        };
        // All nodes are identical under IA; place one node.
        let shape = p.shape();
        let programs = [
            (0u32, p.geometry.procs_per_node),
            (SERVER_PROGRAM, p.geometry.servers_per_node),
        ];
        let assignment = InterferenceAwarePolicy::new().place(shape, &programs);
        let model = ContentionModel {
            per_proc_copy_bw: p.cal.per_proc_copy_bw,
            ctx_switch_efficiency: p.cal.ctx_switch_efficiency,
        };
        let rates = model.proc_rates(&assignment, |s| s.program == 0);
        for socket_mem_bw in [p.cal.socket_mem_bw, 4.0 * p.cal.per_proc_copy_bw] {
            p.cal.socket_mem_bw = socket_mem_bw;
            // Analytic DRAM time, stripped of the md/open-close latencies.
            let dram = TierBytes {
                dram: bytes,
                ..Default::default()
            };
            let analytic = p.univistor_write_time(&f, dram, 0) - 2.0 * p.open_close_cost(&f);
            // Max–min ground truth: one memory pool per socket, one flow
            // per client with its contention-model rate cap.
            let simulated = (0..shape.sockets)
                .map(|s| {
                    let flows: Vec<(f64, f64)> = rates
                        .iter()
                        .filter(|r| r.socket == s)
                        .map(|r| (bytes as f64, r.rate_cap))
                        .collect();
                    maxmin_finish(socket_mem_bw, &flows)
                        .into_iter()
                        .fold(0.0, f64::max)
                })
                .fold(0.0, f64::max);
            assert!(
                (analytic - simulated).abs() < 1e-6 * simulated,
                "socket {socket_mem_bw}: analytic {analytic} vs max-min {simulated}"
            );
        }
    }

    #[test]
    fn mem_profile_cfs_is_worse_but_deterministic() {
        let p = Platform::paper(1024);
        let ia = p.mem_profile(true);
        let cfs1 = p.mem_profile(false);
        let cfs2 = p.mem_profile(false);
        assert_eq!(cfs1.max_socket_clients, cfs2.max_socket_clients);
        assert!(cfs1.max_socket_clients >= ia.max_socket_clients);
        assert!(cfs1.min_client_rate <= ia.min_client_rate);
        assert!(cfs1.server_flush_rate < ia.server_flush_rate);
    }
}
