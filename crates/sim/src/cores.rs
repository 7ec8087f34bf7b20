//! Per-node CPU core and NUMA machinery.
//!
//! This module provides what §II-C of the paper calls the scheduling
//! substrate: a description of a node's sockets/cores, an assignment of
//! processes to cores, the CFS-like *baseline* placement policy (oblivious
//! to program membership and NUMA), and a contention model that converts an
//! assignment into per-process effective memory rates.
//!
//! UniviStor's interference-aware policy implements [`PlacementPolicy`] in
//! `univistor-core::sched` — it is part of the paper's contribution, not the
//! substrate.

use crate::rng::DetRng;
use std::collections::HashMap;

/// Socket/core geometry of one compute node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeShape {
    /// NUMA sockets.
    pub sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
}

impl NodeShape {
    /// Total cores.
    pub fn cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Socket owning `core`.
    pub fn socket_of(&self, core: usize) -> usize {
        assert!(core < self.cores(), "core {core} out of range");
        core / self.cores_per_socket
    }

    /// Core indices of `socket`.
    pub fn cores_of_socket(&self, socket: usize) -> std::ops::Range<usize> {
        assert!(socket < self.sockets, "socket {socket} out of range");
        let start = socket * self.cores_per_socket;
        start..start + self.cores_per_socket
    }
}

/// One process instance on a node: which program it belongs to and its
/// per-node index within that program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcSlot {
    /// Program id (e.g. 0 = App 1, 1 = App 2, `SERVER_PROGRAM` = servers).
    pub program: u32,
    /// Index of this process within its program on this node.
    pub index: u32,
}

/// Conventional program id for UniviStor server processes.
pub const SERVER_PROGRAM: u32 = u32::MAX;

/// An assignment of process slots to cores on one node.
#[derive(Debug, Clone)]
pub struct CoreAssignment {
    /// Node geometry.
    pub shape: NodeShape,
    per_core: Vec<Vec<ProcSlot>>,
    location: HashMap<ProcSlot, usize>,
}

impl CoreAssignment {
    /// An empty assignment for `shape`.
    pub fn new(shape: NodeShape) -> Self {
        CoreAssignment {
            shape,
            per_core: vec![Vec::new(); shape.cores()],
            location: HashMap::new(),
        }
    }

    /// Pin `slot` to `core` (replacing any previous pin).
    pub fn assign(&mut self, slot: ProcSlot, core: usize) {
        assert!(core < self.shape.cores(), "core {core} out of range");
        if let Some(old) = self.location.insert(slot, core) {
            self.per_core[old].retain(|s| *s != slot);
        }
        self.per_core[core].push(slot);
    }

    /// Current core of `slot`.
    pub fn core_of(&self, slot: ProcSlot) -> Option<usize> {
        self.location.get(&slot).copied()
    }

    /// Processes pinned to `core`.
    pub fn procs_on_core(&self, core: usize) -> &[ProcSlot] {
        &self.per_core[core]
    }

    /// All placed slots.
    pub fn slots(&self) -> impl Iterator<Item = ProcSlot> + '_ {
        self.location.keys().copied()
    }

    /// Total processes pinned on cores of `socket`.
    pub fn socket_load(&self, socket: usize) -> usize {
        self.shape
            .cores_of_socket(socket)
            .map(|c| self.per_core[c].len())
            .sum()
    }

    /// Number of cores hosting more than one process.
    pub fn stacked_cores(&self) -> usize {
        self.per_core.iter().filter(|v| v.len() > 1).count()
    }

    /// Move `slot` to `core` (used for flush-time migration).
    pub fn migrate(&mut self, slot: ProcSlot, core: usize) {
        assert!(
            self.location.contains_key(&slot),
            "cannot migrate unplaced slot {slot:?}"
        );
        self.assign(slot, core);
    }

    /// Largest per-socket load minus smallest (0 = perfectly NUMA-balanced).
    pub fn numa_imbalance(&self) -> usize {
        let loads: Vec<usize> = (0..self.shape.sockets)
            .map(|s| self.socket_load(s))
            .collect();
        let max = loads.iter().copied().max().unwrap_or(0);
        let min = loads.iter().copied().min().unwrap_or(0);
        max - min
    }
}

/// A policy deciding where each program's processes land on a node.
pub trait PlacementPolicy {
    /// Place `programs` — a list of `(program id, process count)` — on a
    /// node of the given shape.
    fn place(&mut self, shape: NodeShape, programs: &[(u32, usize)]) -> CoreAssignment;
}

/// The CFS-like baseline (§II-C, Fig. 4a): placement is oblivious to program
/// membership and NUMA topology. Processes arrive in an interleaved order;
/// each lands on the least-loaded core *unless* wake-affinity strikes
/// (`stack_prob`), in which case it lands on a uniformly random core — which
/// may stack it on a busy core while others idle.
#[derive(Debug)]
pub struct CfsPolicy {
    rng: DetRng,
    stack_prob: f64,
}

impl CfsPolicy {
    /// Baseline policy with the given seed and wake-affinity probability.
    pub fn new(seed: u64, stack_prob: f64) -> Self {
        CfsPolicy {
            rng: DetRng::seed(seed),
            stack_prob,
        }
    }
}

impl PlacementPolicy for CfsPolicy {
    fn place(&mut self, shape: NodeShape, programs: &[(u32, usize)]) -> CoreAssignment {
        let mut assignment = CoreAssignment::new(shape);
        // Interleave arrivals across programs, then shuffle: CFS sees an
        // arbitrary wake-up order, not program groups.
        let mut arrivals: Vec<ProcSlot> = Vec::new();
        for &(program, count) in programs {
            for index in 0..count {
                arrivals.push(ProcSlot {
                    program,
                    index: index as u32,
                });
            }
        }
        self.rng.shuffle(&mut arrivals);

        let cores = shape.cores();
        for slot in arrivals {
            let core = if self.rng.chance(self.stack_prob) {
                self.rng.below(cores)
            } else {
                // Least-loaded core, random tiebreak.
                let min_load = (0..cores)
                    .map(|c| assignment.procs_on_core(c).len())
                    .min()
                    .expect("node has cores");
                let candidates: Vec<usize> = (0..cores)
                    .filter(|&c| assignment.procs_on_core(c).len() == min_load)
                    .collect();
                candidates[self.rng.below(candidates.len())]
            };
            assignment.assign(slot, core);
        }
        assignment
    }
}

/// Effective memory rate of one active process.
#[derive(Debug, Clone, Copy)]
pub struct ProcRate {
    /// The process.
    pub slot: ProcSlot,
    /// Socket whose memory system it uses.
    pub socket: usize,
    /// Per-process rate cap (bytes/s) after core timeslicing and
    /// context-switch penalties. Socket-level sharing is applied on top by
    /// the timing plane's per-socket memory-bandwidth bound.
    pub rate_cap: f64,
}

/// Converts a core assignment plus the set of *active* processes into
/// per-process rate caps.
#[derive(Debug, Clone, Copy)]
pub struct ContentionModel {
    /// Single-core copy bandwidth (bytes/s).
    pub per_proc_copy_bw: f64,
    /// Multiplicative efficiency per extra active process on the same core.
    pub ctx_switch_efficiency: f64,
}

impl ContentionModel {
    /// Rates for every active process. `active` filters slots (e.g. only
    /// client processes during a write phase, only servers during a flush).
    pub fn proc_rates(
        &self,
        assignment: &CoreAssignment,
        active: impl Fn(ProcSlot) -> bool,
    ) -> Vec<ProcRate> {
        let mut rates = Vec::new();
        for core in 0..assignment.shape.cores() {
            let active_here: Vec<ProcSlot> = assignment
                .procs_on_core(core)
                .iter()
                .copied()
                .filter(|s| active(*s))
                .collect();
            let k = active_here.len();
            if k == 0 {
                continue;
            }
            // Timeslicing divides the core k ways; every context switch
            // also costs cache refill, modeled multiplicatively.
            let cap =
                self.per_proc_copy_bw / k as f64 * self.ctx_switch_efficiency.powi(k as i32 - 1);
            let socket = assignment.shape.socket_of(core);
            for slot in active_here {
                rates.push(ProcRate {
                    slot,
                    socket,
                    rate_cap: cap,
                });
            }
        }
        rates.sort_by_key(|r| r.slot);
        rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: NodeShape = NodeShape {
        sockets: 2,
        cores_per_socket: 3,
    };

    fn slot(p: u32, i: u32) -> ProcSlot {
        ProcSlot {
            program: p,
            index: i,
        }
    }

    #[test]
    fn shape_geometry() {
        assert_eq!(SHAPE.cores(), 6);
        assert_eq!(SHAPE.socket_of(0), 0);
        assert_eq!(SHAPE.socket_of(2), 0);
        assert_eq!(SHAPE.socket_of(3), 1);
        assert_eq!(SHAPE.cores_of_socket(1), 3..6);
    }

    #[test]
    fn assign_and_migrate() {
        let mut a = CoreAssignment::new(SHAPE);
        a.assign(slot(0, 0), 0);
        a.assign(slot(0, 1), 0);
        assert_eq!(a.procs_on_core(0).len(), 2);
        assert_eq!(a.stacked_cores(), 1);
        a.migrate(slot(0, 1), 5);
        assert_eq!(a.procs_on_core(0).len(), 1);
        assert_eq!(a.core_of(slot(0, 1)), Some(5));
        assert_eq!(a.stacked_cores(), 0);
    }

    #[test]
    fn socket_load_and_imbalance() {
        let mut a = CoreAssignment::new(SHAPE);
        a.assign(slot(0, 0), 0);
        a.assign(slot(0, 1), 1);
        a.assign(slot(0, 2), 2);
        assert_eq!(a.socket_load(0), 3);
        assert_eq!(a.socket_load(1), 0);
        assert_eq!(a.numa_imbalance(), 3);
    }

    #[test]
    fn cfs_is_deterministic_per_seed() {
        let programs = [(0u32, 2usize), (1, 2), (SERVER_PROGRAM, 2)];
        let a = CfsPolicy::new(42, 0.3).place(SHAPE, &programs);
        let b = CfsPolicy::new(42, 0.3).place(SHAPE, &programs);
        for s in a.slots() {
            assert_eq!(a.core_of(s), b.core_of(s));
        }
    }

    #[test]
    fn cfs_places_everyone() {
        let programs = [(0u32, 4usize), (1, 4)];
        let a = CfsPolicy::new(1, 0.3).place(SHAPE, &programs);
        assert_eq!(a.slots().count(), 8);
    }

    #[test]
    fn cfs_with_stacking_prob_stacks_sometimes() {
        // 6 procs on 6 cores: a NUMA/program-aware policy would never stack;
        // the CFS baseline with wake affinity does, over enough seeds.
        let programs = [(0u32, 6usize)];
        let stacked_seeds = (0..50)
            .filter(|&seed| {
                CfsPolicy::new(seed, 0.3)
                    .place(SHAPE, &programs)
                    .stacked_cores()
                    > 0
            })
            .count();
        assert!(stacked_seeds > 10, "only {stacked_seeds}/50 seeds stacked");
    }

    #[test]
    fn cfs_zero_stack_prob_never_stacks_when_cores_suffice() {
        let programs = [(0u32, 6usize)];
        for seed in 0..20 {
            let a = CfsPolicy::new(seed, 0.0).place(SHAPE, &programs);
            assert_eq!(a.stacked_cores(), 0);
        }
    }

    #[test]
    fn contention_model_penalizes_stacking() {
        let model = ContentionModel {
            per_proc_copy_bw: 2e9,
            ctx_switch_efficiency: 0.7,
        };
        let mut a = CoreAssignment::new(SHAPE);
        a.assign(slot(0, 0), 0);
        a.assign(slot(0, 1), 0); // stacked pair
        a.assign(slot(0, 2), 3); // alone
        let rates = model.proc_rates(&a, |_| true);
        let by_slot: HashMap<ProcSlot, f64> = rates.iter().map(|r| (r.slot, r.rate_cap)).collect();
        assert_eq!(by_slot[&slot(0, 2)], 2e9);
        assert!((by_slot[&slot(0, 0)] - 2e9 / 2.0 * 0.7).abs() < 1.0);
        assert_eq!(by_slot[&slot(0, 0)], by_slot[&slot(0, 1)]);
    }

    #[test]
    fn contention_model_ignores_inactive() {
        let model = ContentionModel {
            per_proc_copy_bw: 2e9,
            ctx_switch_efficiency: 0.7,
        };
        let mut a = CoreAssignment::new(SHAPE);
        a.assign(slot(0, 0), 0);
        a.assign(slot(SERVER_PROGRAM, 0), 0); // idle server stacked on top
        let rates = model.proc_rates(&a, |s| s.program == 0);
        assert_eq!(rates.len(), 1);
        // Idle server does not steal the core.
        assert_eq!(rates[0].rate_cap, 2e9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn socket_of_bounds_checked() {
        SHAPE.socket_of(6);
    }

    #[test]
    #[should_panic(expected = "unplaced slot")]
    fn migrating_unplaced_slot_panics() {
        let mut a = CoreAssignment::new(SHAPE);
        a.migrate(slot(0, 0), 1);
    }

    #[test]
    fn cfs_oversubscription_places_everyone() {
        // 10 procs on 6 cores: every proc lands somewhere, stacking is
        // inevitable.
        let programs = [(0u32, 10usize)];
        let a = CfsPolicy::new(5, 0.3).place(SHAPE, &programs);
        assert_eq!(a.slots().count(), 10);
        assert!(a.stacked_cores() >= 2);
    }

    #[test]
    fn contention_three_deep_stacking_compounds() {
        let model = ContentionModel {
            per_proc_copy_bw: 3e9,
            ctx_switch_efficiency: 0.5,
        };
        let mut a = CoreAssignment::new(SHAPE);
        for i in 0..3 {
            a.assign(slot(0, i), 0);
        }
        let rates = model.proc_rates(&a, |_| true);
        // 3-way timeslice × 0.5² cache penalty.
        for r in rates {
            assert!((r.rate_cap - 3e9 / 3.0 * 0.25).abs() < 1.0);
        }
    }

    #[test]
    fn proc_rates_report_socket() {
        let model = ContentionModel {
            per_proc_copy_bw: 1e9,
            ctx_switch_efficiency: 0.7,
        };
        let mut a = CoreAssignment::new(SHAPE);
        a.assign(slot(0, 0), 4); // socket 1
        let rates = model.proc_rates(&a, |_| true);
        assert_eq!(rates[0].socket, 1);
    }
}
