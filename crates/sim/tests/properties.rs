//! Randomized-property tests for the substrate's core data structures:
//! the sparse buffer must behave like a flat byte array, and payload
//! slicing must commute with materialization.
//!
//! Cases are generated with the crate's own deterministic RNG (the
//! workspace builds without external crates, so no proptest): each test
//! runs a few hundred seeded trials, which covers the same input space
//! reproducibly.

use univistor_sim::payload::Payload;
use univistor_sim::rng::DetRng;
use univistor_sim::SparseBuffer;

const ARENA: usize = 512;

#[derive(Debug, Clone)]
struct WriteOp {
    offset: usize,
    data: Vec<u8>,
}

fn gen_write_ops(rng: &mut DetRng) -> Vec<WriteOp> {
    let count = 1 + rng.below(40);
    (0..count)
        .filter_map(|_| {
            let offset = rng.below(ARENA);
            let len = (1 + rng.below(63)).min(ARENA - offset);
            if len == 0 {
                return None;
            }
            let data = (0..len).map(|_| rng.below(256) as u8).collect();
            Some(WriteOp { offset, data })
        })
        .collect()
}

#[test]
fn sparse_buffer_matches_flat_array() {
    let mut rng = DetRng::seed(0x5bab_b1e5);
    for _trial in 0..200 {
        let ops = gen_write_ops(&mut rng);
        let mut buf = SparseBuffer::new();
        let mut model = vec![0u8; ARENA];
        let mut written = vec![false; ARENA];

        for op in &ops {
            buf.write(op.offset as u64, Payload::from_bytes(op.data.clone()));
            for (i, b) in op.data.iter().enumerate() {
                model[op.offset + i] = *b;
                written[op.offset + i] = true;
            }
        }

        // Tolerant read of the full arena matches the model (holes = 0).
        let got = buf.read(0, ARENA as u64).to_bytes();
        assert_eq!(&got[..], &model[..]);

        // bytes_stored equals the number of written bytes.
        let expect_stored = written.iter().filter(|w| **w).count() as u64;
        assert_eq!(buf.bytes_stored(), expect_stored);

        // read_exact succeeds exactly on fully-written ranges.
        for (start, len) in [(0usize, 16usize), (100, 50), (400, 112)] {
            let fully = written[start..start + len].iter().all(|w| *w);
            let r = buf.read_exact(start as u64, len as u64);
            assert_eq!(r.is_ok(), fully, "range [{start}, +{len})");
        }
    }
}

#[test]
fn payload_slice_commutes_with_materialize() {
    let mut rng = DetRng::seed(0x5eed_cafe);
    for _trial in 0..300 {
        let seed = (rng.below(1 << 30) as u64) << 32 | rng.below(1 << 30) as u64;
        let len = 1 + rng.below(2047) as u64;
        let cut = (rng.below(2048) as u64).min(len);
        let p = Payload::pattern(seed, len);
        let (a, b) = p.split_at(cut);
        let mut joined = a.to_bytes().to_vec();
        joined.extend_from_slice(&b.to_bytes());
        assert_eq!(&joined[..], &p.to_bytes()[..]);
    }
}

/// Extents a buffer that never coalesced would hold: one per maximal run
/// of bytes last written by the same write (a split extent's fragments
/// are separate runs).
fn uncoalesced_extents(writer: &[Option<usize>]) -> usize {
    let mut runs = 0;
    let mut prev = None;
    for &w in writer {
        if w.is_some() && w != prev {
            runs += 1;
        }
        prev = w;
    }
    runs
}

/// Pattern writes drawn from three shared seeds: half continue the
/// previous write's stream at the buffer offset where it ended (the shape
/// a log append run lays down, so they coalesce), the rest land anywhere
/// at any stream position — overwrites that split coalesced extents,
/// same-seed neighbours that are not stream-contiguous, and holes. Every
/// read-back equals a flat byte-array model, and coalescing never leaves
/// more extents than the uncoalesced reference.
#[test]
fn coalesced_pattern_writes_match_flat_array() {
    let mut rng = DetRng::seed(0xc0a1_e5ce);
    for trial in 0..300 {
        let mut buf = SparseBuffer::new();
        let mut model = vec![0u8; ARENA];
        let mut writer: Vec<Option<usize>> = vec![None; ARENA];
        let mut prev: Option<(u64, usize, u64)> = None; // (seed, end, stream end)
        for i in 0..1 + rng.below(40) {
            let (seed, offset, pos) = match prev {
                Some((seed, end, pos)) if end < ARENA && rng.chance(0.5) => (seed, end, pos),
                _ => {
                    let seed = 1 + rng.below(3) as u64;
                    let offset = rng.below(ARENA);
                    let pos = if rng.chance(0.5) {
                        offset as u64
                    } else {
                        rng.below(4096) as u64
                    };
                    (seed, offset, pos)
                }
            };
            let len = (1 + rng.below(63)).min(ARENA - offset);
            let data = Payload::pattern(seed, pos + len as u64).slice(pos, len as u64);
            let bytes = data.to_bytes();
            buf.write(offset as u64, data);
            model[offset..offset + len].copy_from_slice(&bytes);
            writer[offset..offset + len].fill(Some(i));
            prev = Some((seed, offset + len, pos + len as u64));

            let reference = uncoalesced_extents(&writer);
            assert!(
                buf.extent_count() <= reference,
                "trial {trial} write {i}: {} extents > {reference} uncoalesced",
                buf.extent_count()
            );
        }

        assert_eq!(&buf.read(0, ARENA as u64).to_bytes()[..], &model[..]);
        let written = writer.iter().filter(|w| w.is_some()).count() as u64;
        assert_eq!(buf.bytes_stored(), written, "trial {trial}");
        for _ in 0..8 {
            let start = rng.below(ARENA);
            let len = 1 + rng.below(ARENA - start);
            let got = buf.read(start as u64, len as u64).to_bytes();
            assert_eq!(&got[..], &model[start..start + len], "trial {trial}");
            let fully = writer[start..start + len].iter().all(Option::is_some);
            assert_eq!(
                buf.read_exact(start as u64, len as u64).is_ok(),
                fully,
                "trial {trial}: read_exact [{start}, +{len})"
            );
        }
    }
}
