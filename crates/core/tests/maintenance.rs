//! Cross-plane leak check. Tiering, online repair and the scrubber all
//! change the index through one copy-and-swap, which places a fresh copy
//! and releases the copy that lost. After a seeded mix of writes,
//! overwrites and every kind of maintenance pass, under both runtimes,
//! each read must still match a flat model. The live log bytes must also
//! equal the bytes the index references, counting each record's primary
//! plus its replica. A leaked or double-freed copy breaks that equality.

use univistor_core::config::{PromotionPolicy, Runtime, TierWatermarks, TieringConfig};
use univistor_core::fault::FaultConfig;
use univistor_core::metadata::ClientId;
use univistor_core::server::UniviStorJob;
use univistor_core::UniviStorConfig;
use univistor_mpi::driver::OpenMode;
use univistor_sim::rng::DetRng;
use univistor_sim::{Payload, SparseBuffer};

const FILE: u64 = 2048;
const RANKS: u32 = 8;
const ROOT: ClientId = ClientId { app: 0, rank: 0 };

/// 4 nodes × 2 procs, replication on. DRAM and BB are roomy enough that
/// every record is mirrored, but the DRAM watermarks are low so a pass
/// always spills. A fault injector is configured (targeted corruption
/// needs one) with zero random probabilities.
fn cfg(runtime: Runtime) -> UniviStorConfig {
    let mut cfg = UniviStorConfig::test_small(4, 2);
    cfg.runtime = runtime;
    cfg.replicate_volatile = true;
    cfg.cal.dram_cache_capacity_per_node = 4096;
    cfg.cal.bb_capacity_per_node = 16384;
    cfg.fault = Some(FaultConfig::default());
    cfg.tiering = TieringConfig::on();
    cfg.tiering.drain_cadence_ops = 0; // passes only when we ask
    cfg.tiering.dram = TierWatermarks {
        high: 0.1,
        low: 0.05,
    };
    cfg
}

fn write(j: &UniviStorJob, model: &mut SparseBuffer, rank: u32, offset: u64, data: Payload) {
    j.write(ClientId::new(0, rank), "/m", offset, data.clone())
        .unwrap();
    model.write(offset, data);
}

/// `count` random overwrites inside the file.
fn overwrites(
    j: &UniviStorJob,
    model: &mut SparseBuffer,
    rng: &mut DetRng,
    seed: &mut u64,
    count: usize,
) {
    for _ in 0..count {
        let rank = rng.below(RANKS as usize) as u32;
        let offset = rng.below(FILE as usize - 1) as u64;
        let len = (1 + rng.below(256) as u64).min(FILE - offset);
        *seed += 1;
        write(j, model, rank, offset, Payload::pattern(*seed, len));
    }
}

/// Every extent reads back as modeled, and the live log bytes are exactly
/// the bytes the index references.
fn check(j: &UniviStorJob, model: &SparseBuffer, step: &str) {
    let referenced: u64 = j
        .index_of("/m")
        .unwrap()
        .iter()
        .map(|(_, r)| r.len * (1 + r.replica.is_some() as u64))
        .sum();
    let live: u64 = j.tier_usage().iter().map(|(_, b)| b).sum();
    assert_eq!(live, referenced, "{step}: live log bytes vs index bytes");
    for (off, p) in model.extents() {
        let got = j.read(ROOT, "/m", off, p.len()).unwrap();
        assert!(got.content_eq(p), "{step}: extent at {off} diverged");
    }
}

fn run(runtime: Runtime) {
    let j = UniviStorJob::new(cfg(runtime));
    let ranks = RANKS as usize;
    j.open_file("/m")
        .read_write()
        .representing(ranks)
        .by(ROOT)
        .unwrap();
    let (mut model, mut rng, mut seed) = (SparseBuffer::new(), DetRng::seed(0x1ea7), 0u64);
    // Cover the whole file first (the close-time flush rejects holes).
    let block = FILE / RANKS as u64;
    for rank in 0..RANKS {
        seed += 1;
        let data = Payload::pattern(seed, block);
        write(&j, &mut model, rank, rank as u64 * block, data);
    }
    overwrites(&j, &mut model, &mut rng, &mut seed, 24);
    check(&j, &model, "writes");

    let pass = j.tiering().run_pass().unwrap();
    assert!(pass.spilled_segments > 0, "{runtime:?}: {pass:?}");
    check(&j, &model, "spill pass");

    // The checks' reads heated every record: promote the spilled ones.
    let eager = PromotionPolicy {
        min_reads: 1,
        min_benefit: 0.0,
    };
    let promoted = j.tiering().promote_now(eager).unwrap();
    assert!(promoted.promoted_segments > 0, "{runtime:?}: {promoted:?}");
    check(&j, &model, "promotion");

    overwrites(&j, &mut model, &mut rng, &mut seed, 16);
    j.fail_node(1);
    let repair = j.rebuild_degraded().unwrap();
    assert!(
        repair.repaired_primary > 0 && repair.repaired_replica > 0,
        "{runtime:?}: {repair:?}"
    );
    assert_eq!(repair.lost_records, 0, "{runtime:?}: {repair:?}");
    assert_eq!(j.degraded_segments(), 0);
    j.restore_node(1);
    check(&j, &model, "repair");

    // Stamp the overwrite fragments first: an unstamped copy cannot be
    // told from a corrupt one.
    j.scrub().scrub_now().unwrap();
    let index = j.index_of("/m").unwrap();
    assert!(index.iter().all(|(_, r)| r.checksum.is_some()));
    let corrupted = j.corrupt_stored_range("/m", 0, FILE, false).unwrap();
    let scrub = j.scrub().scrub_now().unwrap();
    assert_eq!(scrub.repaired_copies, corrupted as u64, "{scrub:?}");
    check(&j, &model, "scrub");

    overwrites(&j, &mut model, &mut rng, &mut seed, 8);
    j.tiering().run_pass().unwrap();
    check(&j, &model, "final pass");
    let flushed = j.close("/m", ROOT, OpenMode::ReadWrite, ranks, true);
    assert!(flushed.unwrap().is_some(), "last close flushes");
    for (off, p) in model.extents() {
        let got = j.lustre_read("/m", off, p.len()).unwrap();
        assert!(got.content_eq(p), "{runtime:?}: flushed extent at {off}");
    }
}

#[test]
fn maintenance_passes_leak_no_copy_under_either_runtime() {
    for runtime in [Runtime::Locked, Runtime::Partitioned] {
        run(runtime);
    }
}
