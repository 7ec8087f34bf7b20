//! Analytic latency models for RPCs and MPI-style collectives.
//!
//! These costs delay a phase (they do not consume bandwidth) and are the basis
//! of the Collective Open/Close (COC) study: without COC, `p` processes all
//! send the same metadata RPC to one server, which services them serially —
//! an all-to-one storm. With COC only the root talks to the server and
//! broadcasts the result in `log2(p)` network steps.

/// Time for one RPC round trip plus server-side service.
pub fn rpc_round_trip(net_latency: f64, service_time: f64) -> f64 {
    2.0 * net_latency + service_time
}

/// Serial service of `p` identical RPCs at one server (all-to-one storm).
/// The requests overlap in the network but queue at the server, so the last
/// requester waits `p` service times plus one round trip.
pub fn all_to_one_storm(p: u64, net_latency: f64, service_time: f64) -> f64 {
    2.0 * net_latency + p as f64 * service_time
}

/// Binomial-tree broadcast/barrier cost over `p` processes.
pub fn tree_collective(p: u64, net_latency: f64) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    (p as f64).log2().ceil() * 2.0 * net_latency
}

/// Collective open/close cost with the COC optimization: one root RPC plus a
/// broadcast of the result.
pub fn collective_open_close(p: u64, net_latency: f64, service_time: f64) -> f64 {
    rpc_round_trip(net_latency, service_time) + tree_collective(p, net_latency)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAT: f64 = 2e-6;
    const SVC: f64 = 20e-6;

    #[test]
    fn storm_scales_linearly() {
        let t1 = all_to_one_storm(64, LAT, SVC);
        let t2 = all_to_one_storm(8192, LAT, SVC);
        assert!(t2 / t1 > 100.0);
        assert!((all_to_one_storm(1, LAT, SVC) - rpc_round_trip(LAT, SVC)).abs() < 1e-12);
    }

    #[test]
    fn coc_scales_logarithmically() {
        let t64 = collective_open_close(64, LAT, SVC);
        let t8k = collective_open_close(8192, LAT, SVC);
        // 128× more processes, far less than 3× the cost.
        assert!(t8k < 3.0 * t64);
    }

    #[test]
    fn coc_beats_storm_at_scale() {
        assert!(collective_open_close(8192, LAT, SVC) < all_to_one_storm(8192, LAT, SVC) / 100.0);
    }

    #[test]
    fn tree_collective_edge_cases() {
        assert_eq!(tree_collective(1, LAT), 0.0);
        assert_eq!(tree_collective(0, LAT), 0.0);
        assert!(tree_collective(2, LAT) > 0.0);
    }
}
