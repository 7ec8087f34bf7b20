//! Tier explorer: peek inside UniviStor's data structures — DHP
//! placement, virtual addresses (Eq. 1), the distributed metadata
//! service's round-robin range partitioning (Fig. 3), and the adaptive
//! striping planner's two regimes (Eqs. 2–6).
//!
//! Run with: `cargo run --example tier_explorer`

use univistor::core::metadata::{ClientId, MetadataService, SegmentRecord};
use univistor::core::placement::ProcChain;
use univistor::core::striping::{adaptive_plan, naive_plan, ost_loads};
use univistor::core::va::Tier;
use univistor::sim::Payload;

fn main() {
    println!("=== 1. DHP placement and virtual addresses (Fig. 2) ===");
    // Reproduce Fig. 2's geometry: per-process logs of 2 units on the
    // node-local layer and 3 on the shared burst buffer, PFS unbounded.
    // One unit = 64 bytes here.
    let unit = 64u64;
    let mut chain = ProcChain::new(
        vec![
            (Tier::NodeLocal, 2 * unit),
            (Tier::SharedBurstBuffer, 3 * unit),
            (Tier::Pfs, u64::MAX),
        ],
        unit,
    )
    .expect("chain");

    for i in 1..=8u64 {
        let placed = chain.append(Payload::pattern(i, unit)).expect("append");
        println!(
            "  D{i}: layer {} ({}), VA = {}",
            placed.layer,
            placed.tier,
            placed.va.0 / unit // in Fig. 2's units
        );
    }
    println!("  live bytes by layer: {:?}", chain.live_by_layer());

    println!("\n=== 2. Distributed metadata service (Fig. 3) ===");
    // 16 records over 4 ranges, assigned round-robin to 4 servers.
    let md = MetadataService::new(4 * unit, 4, 2, 1);
    for i in 0..16u64 {
        let offset = i * unit;
        let record = SegmentRecord::new(
            ClientId::new(0, (i / 8) as u32),
            univistor::core::va::VirtualAddr((i % 8) * unit),
            unit,
        );
        md.insert_batch(
            1,
            offset,
            offset + unit,
            &[(offset, record)],
            (i / 8) as usize,
        )
        .expect("no injector");
        if i % 4 == 0 {
            let server = md.partition_of(offset);
            println!("  records for offsets {}..{} → S{server}", i, i + 4);
        }
    }
    println!("  per-server record counts: {:?}", md.shard_sizes());

    println!("\n=== 3. Adaptive striping (Eqs. 2–6) ===");
    let gb = 1u64 << 30;
    let osts = 248;
    for (servers, file) in [(8usize, 64 * gb), (512, 512 * gb)] {
        let plan = adaptive_plan(file, servers, osts, 8, gb);
        let loads = ost_loads(&plan, osts);
        let used = loads.iter().filter(|l| **l > 0).count();
        let max = *loads.iter().max().expect("osts") as f64;
        let mean = file as f64 / used as f64;
        println!(
            "  {servers} servers × {} GiB → {:?}: stripe {} MiB, {} OSTs/server, \
             {used} OSTs used, imbalance {:.2}",
            file / gb,
            plan.case,
            plan.stripe_size >> 20,
            plan.osts_per_server,
            max / mean
        );
    }
    let naive = naive_plan(512 * gb, 512, osts, 1 << 20);
    println!(
        "  naive baseline: every server touches {} OSTs (sync overhead ×{})",
        naive.osts_per_server,
        naive.osts_per_server
            / adaptive_plan(512 * gb, 512, osts, 8, gb)
                .osts_per_server
                .max(1)
    );

    println!("\n=== 4. The paper's Eq. 6 example ===");
    println!(
        "  512 servers over 248 OSTs → C_dum_servers = {} (the paper's prose \
         says 724; Eq. 6 itself gives 744 — a typo we document)",
        univistor::core::striping::c_dum_servers(512, 248)
    );
}
