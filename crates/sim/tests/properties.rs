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
