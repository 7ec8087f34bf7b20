//! The Lustre file system facade: files, striping, OST objects, locks.

use crate::layout::{FileLayout, StripePiece};
use crate::locks::{ExtentLockManager, LockMode};
use crate::ost::Ost;
use std::collections::HashMap;
use std::sync::Mutex;
use univistor_sim::{Payload, SimError, SimResult};

/// Everything a write did, for the timing plane: which OSTs received how
/// many bytes, and how many lock revocations the write caused.
#[derive(Debug, Clone)]
pub struct WriteReceipt {
    /// Per-OST contiguous pieces (OST indices reduced modulo the FS size).
    pub pieces: Vec<StripePiece>,
    /// Lock revocations triggered (each costs a server round trip).
    pub lock_revocations: u64,
    /// Lock RPCs that were served from the client's lock cache.
    pub lock_cache_hits: u64,
}

impl WriteReceipt {
    /// Aggregate (ost, bytes) loads of this write.
    pub fn ost_bytes(&self) -> Vec<(usize, u64)> {
        let mut loads = std::collections::BTreeMap::new();
        for p in &self.pieces {
            *loads.entry(p.ost).or_insert(0u64) += p.len;
        }
        loads.into_iter().collect()
    }
}

#[derive(Debug, Clone)]
struct FileMeta {
    fid: u64,
    layout: FileLayout,
    size: u64,
}

/// A functional Lustre: `ost_count` OSTs, named files with per-file stripe
/// layouts, extent locks. The lock manager sits behind its own `Mutex` so
/// the read path — which only *acquires* extent locks and touches no file
/// or OST state — works through `&self` and can run under a shared
/// outer lock.
#[derive(Debug)]
pub struct Lustre {
    osts: Vec<Ost>,
    files: HashMap<String, FileMeta>,
    locks: Mutex<ExtentLockManager>,
    next_fid: u64,
}

impl Lustre {
    /// A file system with `ost_count` OSTs.
    pub fn new(ost_count: usize) -> Self {
        assert!(ost_count > 0, "need at least one OST");
        Lustre {
            osts: (0..ost_count).map(|_| Ost::new()).collect(),
            files: HashMap::new(),
            locks: Mutex::new(ExtentLockManager::new()),
            next_fid: 1,
        }
    }

    /// Number of OSTs.
    pub fn ost_count(&self) -> usize {
        self.osts.len()
    }

    /// Create a file with the given layout. Errors if it already exists.
    pub fn create(&mut self, path: &str, layout: impl Into<FileLayout>) -> SimResult<()> {
        if self.files.contains_key(path) {
            return Err(SimError::InvalidConfig(format!(
                "file '{path}' already exists"
            )));
        }
        let fid = self.next_fid;
        self.next_fid += 1;
        self.files.insert(
            path.to_string(),
            FileMeta {
                fid,
                layout: layout.into(),
                size: 0,
            },
        );
        Ok(())
    }

    /// Create unless present (open with O_CREAT semantics).
    pub fn create_if_absent(&mut self, path: &str, layout: impl Into<FileLayout>) {
        if !self.files.contains_key(path) {
            self.create(path, layout).expect("absence just checked");
        }
    }

    /// True when the file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Logical size (highest written offset + 1).
    pub fn file_size(&self, path: &str) -> SimResult<u64> {
        self.meta(path).map(|m| m.size)
    }

    /// The file's layout.
    pub fn layout_of(&self, path: &str) -> SimResult<FileLayout> {
        self.meta(path).map(|m| m.layout.clone())
    }

    fn meta(&self, path: &str) -> SimResult<&FileMeta> {
        self.files
            .get(path)
            .ok_or_else(|| SimError::InvalidConfig(format!("no such file '{path}'")))
    }

    /// Write `payload` at `offset` on behalf of client `writer`.
    pub fn write(
        &mut self,
        path: &str,
        offset: u64,
        payload: Payload,
        writer: u64,
    ) -> SimResult<WriteReceipt> {
        let len = payload.len();
        let (fid, layout) = {
            let m = self.meta(path)?;
            (m.fid, m.layout.clone())
        };
        let n_osts = self.osts.len();
        let mut pieces = Vec::new();
        let mut revocations = 0u64;
        let mut cache_hits = 0u64;
        for mut piece in layout.pieces(offset, len) {
            piece.ost %= n_osts;
            let out = self.locks.lock().expect("lock manager poisoned").acquire(
                fid,
                piece.ost,
                piece.object_offset,
                piece.object_offset + piece.len,
                writer,
                LockMode::Write,
            );
            revocations += out.revocations;
            cache_hits += out.cache_hit as u64;
            let data = payload.slice(piece.file_offset - offset, piece.len);
            self.osts[piece.ost].write(fid, piece.object_offset, data);
            pieces.push(piece);
        }
        let m = self.files.get_mut(path).expect("meta() checked existence");
        m.size = m.size.max(offset + len);
        Ok(WriteReceipt {
            pieces,
            lock_revocations: revocations,
            lock_cache_hits: cache_hits,
        })
    }

    /// Read `[offset, offset + len)` on behalf of `reader`; errors on holes.
    /// A range reaching past the file's size is a hole before any stripe
    /// piece is planned, and a range that wraps is refused.
    /// `&self`: file metadata and OST objects are only read, and the lock
    /// manager synchronizes itself.
    pub fn read(&self, path: &str, offset: u64, len: u64, reader: u64) -> SimResult<Payload> {
        let (fid, layout) = {
            let m = self.meta(path)?;
            let end = offset.checked_add(len).ok_or_else(|| {
                SimError::InvalidConfig(format!("read extent [{offset}, +{len}) out of range"))
            })?;
            if len > 0 && end > m.size {
                let from = offset.max(m.size);
                return Err(SimError::Hole {
                    offset: from,
                    len: end - from,
                });
            }
            (m.fid, m.layout.clone())
        };
        let n_osts = self.osts.len();
        let mut parts = Vec::new();
        for mut piece in layout.pieces(offset, len) {
            piece.ost %= n_osts;
            self.locks.lock().expect("lock manager poisoned").acquire(
                fid,
                piece.ost,
                piece.object_offset,
                piece.object_offset + piece.len,
                reader,
                LockMode::Read,
            );
            parts.push(self.osts[piece.ost].read(fid, piece.object_offset, piece.len)?);
        }
        Ok(Payload::chain(parts))
    }

    /// Delete a file and its objects.
    pub fn delete(&mut self, path: &str) -> SimResult<()> {
        let m = self
            .files
            .remove(path)
            .ok_or_else(|| SimError::InvalidConfig(format!("no such file '{path}'")))?;
        for ost in &mut self.osts {
            ost.delete(m.fid);
        }
        self.locks
            .lock()
            .expect("lock manager poisoned")
            .drop_file(m.fid);
        Ok(())
    }

    /// Cumulative bytes written per OST (load-balance inspection).
    pub fn ost_loads(&self) -> Vec<u64> {
        self.osts.iter().map(Ost::bytes_written).collect()
    }

    /// Bytes currently stored across all OSTs.
    pub fn bytes_stored(&self) -> u64 {
        self.osts.iter().map(Ost::bytes_stored).sum()
    }

    /// Total lock revocations so far.
    pub fn lock_conflicts(&self) -> u64 {
        self.locks
            .lock()
            .expect("lock manager poisoned")
            .conflicts()
    }

    /// Access the lock manager (tests, diagnostics).
    pub fn locks(&self) -> std::sync::MutexGuard<'_, ExtentLockManager> {
        self.locks.lock().expect("lock manager poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::StripeLayout;

    fn fs() -> Lustre {
        Lustre::new(8)
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut fs = fs();
        fs.create("/f", StripeLayout::new(4, 3, 0)).unwrap();
        let data = Payload::from_bytes(&b"hello striped world"[..]);
        fs.write("/f", 0, data.clone(), 1).unwrap();
        let got = fs.read("/f", 0, data.len(), 1).unwrap();
        assert!(got.content_eq(&data));
        assert_eq!(fs.file_size("/f").unwrap(), data.len());
    }

    #[test]
    fn double_create_fails() {
        let mut fs = fs();
        fs.create("/f", StripeLayout::single(0)).unwrap();
        assert!(fs.create("/f", StripeLayout::single(0)).is_err());
        fs.create_if_absent("/f", StripeLayout::single(1)); // no-op
        match fs.layout_of("/f").unwrap() {
            FileLayout::Uniform(l) => assert_eq!(l.start_ost, 0),
            other => panic!("unexpected layout {other:?}"),
        }
    }

    #[test]
    fn write_distributes_load_across_stripe_set() {
        let mut fs = fs();
        fs.create("/f", StripeLayout::new(1 << 20, 4, 2)).unwrap();
        fs.write("/f", 0, Payload::pattern(1, 8 << 20), 1).unwrap();
        let loads = fs.ost_loads();
        // OSTs 2..6 get 2 MiB each, others nothing.
        assert_eq!(&loads[2..6], &[2 << 20; 4]);
        assert_eq!(loads[0], 0);
        assert_eq!(loads[6], 0);
    }

    #[test]
    fn start_ost_wraps_modulo_fs_size() {
        let mut fs = fs();
        fs.create("/f", StripeLayout::new(10, 4, 6)).unwrap();
        let r = fs.write("/f", 0, Payload::pattern(1, 40), 1).unwrap();
        let osts: Vec<usize> = r.pieces.iter().map(|p| p.ost).collect();
        assert_eq!(osts, vec![6, 7, 0, 1]); // wrapped at 8
    }

    #[test]
    fn sparse_read_errors_on_hole() {
        let mut fs = fs();
        fs.create("/f", StripeLayout::new(10, 2, 0)).unwrap();
        fs.write("/f", 0, Payload::pattern(1, 10), 1).unwrap();
        fs.write("/f", 20, Payload::pattern(2, 10), 1).unwrap();
        assert!(fs.read("/f", 0, 10, 1).is_ok());
        assert!(fs.read("/f", 0, 30, 1).is_err());
    }

    #[test]
    fn read_past_eof_is_a_hole_before_any_piece_is_planned() {
        let mut fs = fs();
        fs.create("/f", StripeLayout::new(4096, 4, 0)).unwrap();
        fs.write("/f", 0, Payload::pattern(1, 4096), 1).unwrap();
        let before = fs.locks().acquisitions();
        for (offset, len) in [(0, 1u64 << 40), (0, 1 << 30), (4000, 100), (8192, 1)] {
            let from = offset.max(4096);
            let hole = SimError::Hole {
                offset: from,
                len: offset + len - from,
            };
            assert_eq!(fs.read("/f", offset, len, 2).unwrap_err(), hole);
        }
        let wrapped = fs.read("/f", u64::MAX - 10, 100, 2).unwrap_err();
        assert!(matches!(wrapped, SimError::InvalidConfig(_)), "{wrapped}");
        assert_eq!(fs.locks().acquisitions(), before, "no piece was locked");
        assert!(fs.read("/f", 0, 4096, 2).is_ok());
        assert!(fs.read("/f", 9000, 0, 2).unwrap().is_empty());
    }

    #[test]
    fn interleaved_writers_cause_conflicts_fpp_does_not() {
        // Shared file, two writers alternating stripe units.
        let mut shared = Lustre::new(4);
        shared
            .create("/shared", StripeLayout::new(64, 1, 0))
            .unwrap();
        for i in 0..16u64 {
            shared
                .write("/shared", i * 64, Payload::pattern(i, 64), i % 2)
                .unwrap();
        }
        assert!(shared.lock_conflicts() > 10);

        // File-per-process: same data, zero conflicts.
        let mut fpp = Lustre::new(4);
        fpp.create("/p0", StripeLayout::new(64, 1, 0)).unwrap();
        fpp.create("/p1", StripeLayout::new(64, 1, 1)).unwrap();
        for i in 0..16u64 {
            let path = if i % 2 == 0 { "/p0" } else { "/p1" };
            fpp.write(path, (i / 2) * 64, Payload::pattern(i, 64), i % 2)
                .unwrap();
        }
        assert_eq!(fpp.lock_conflicts(), 0);
    }

    #[test]
    fn delete_frees_objects_and_locks() {
        let mut fs = fs();
        fs.create("/f", StripeLayout::new(4, 2, 0)).unwrap();
        fs.write("/f", 0, Payload::pattern(1, 100), 1).unwrap();
        fs.delete("/f").unwrap();
        assert!(!fs.exists("/f"));
        assert!(fs.read("/f", 0, 1, 1).is_err());
        // Objects physically gone.
        assert_eq!(fs.bytes_stored(), 0);
        assert!(fs.delete("/f").is_err());
    }

    #[test]
    fn writes_to_missing_file_fail() {
        let mut fs = fs();
        assert!(fs.write("/nope", 0, Payload::pattern(1, 4), 1).is_err());
    }

    #[test]
    fn receipt_reports_ost_bytes() {
        let mut fs = fs();
        fs.create("/f", StripeLayout::new(100, 2, 0)).unwrap();
        let r = fs.write("/f", 0, Payload::pattern(1, 300), 1).unwrap();
        let loads = r.ost_bytes();
        assert_eq!(loads, vec![(0, 200), (1, 100)]);
    }

    #[test]
    fn paper_scale_virtual_write() {
        // 256 MB × 64 writers into one shared file: bytes stay virtual.
        let mut fs = Lustre::new(248);
        fs.create("/big", StripeLayout::new(1 << 20, 248, 0))
            .unwrap();
        let per = 256u64 << 20;
        for w in 0..64u64 {
            fs.write("/big", w * per, Payload::pattern(w, per), w)
                .unwrap();
        }
        assert_eq!(fs.file_size("/big").unwrap(), 64 * per);
        let loads = fs.ost_loads();
        let total: u64 = loads.iter().sum();
        assert_eq!(total, 64 * per);
    }
}
