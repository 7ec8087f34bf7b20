//! A trivial in-memory ADIO driver.
//!
//! One flat namespace of sparse files in process memory. Used as the test
//! backend for the MPI-IO layer and as node-local scratch in examples. It
//! deliberately has *no* tiering, placement or contention intelligence —
//! that is what `univistor-core` adds.

use crate::driver::{FileHandle, FsDriver, OpenContext};
use std::collections::HashMap;
use std::sync::Mutex;
use univistor_sim::{Payload, SimError, SimResult, SparseBuffer};

#[derive(Debug, Default)]
struct MemFile {
    fid: u64,
    data: SparseBuffer,
    size: u64,
}

/// In-memory file system driver.
#[derive(Debug, Default)]
pub struct MemDriver {
    inner: Mutex<MemState>,
}

#[derive(Debug, Default)]
struct MemState {
    files: HashMap<String, MemFile>,
    next_fid: u64,
}

impl MemDriver {
    /// An empty in-memory namespace.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FsDriver for MemDriver {
    fn name(&self) -> &'static str {
        "mem"
    }

    fn open(&self, ctx: &OpenContext) -> SimResult<FileHandle> {
        let mut st = self.inner.lock().unwrap();
        if !st.files.contains_key(&ctx.path) {
            if !ctx.mode.writable() {
                return Err(SimError::InvalidConfig(format!(
                    "no such file '{}'",
                    ctx.path
                )));
            }
            let fid = st.next_fid;
            st.next_fid += 1;
            st.files.insert(
                ctx.path.clone(),
                MemFile {
                    fid,
                    data: SparseBuffer::new(),
                    size: 0,
                },
            );
        }
        let f = &st.files[&ctx.path];
        Ok(FileHandle {
            fid: f.fid,
            path: ctx.path.clone(),
            mode: ctx.mode,
            nprocs: ctx.nprocs,
        })
    }

    fn write_at(&self, h: &FileHandle, _rank: usize, offset: u64, data: Payload) -> SimResult<()> {
        if !h.mode.writable() {
            return Err(SimError::InvalidConfig(format!(
                "file '{}' not opened for writing",
                h.path
            )));
        }
        let mut st = self.inner.lock().unwrap();
        let f = st
            .files
            .get_mut(&h.path)
            .ok_or_else(|| SimError::InvalidConfig(format!("stale handle for '{}'", h.path)))?;
        let end = offset + data.len();
        f.data.write(offset, data);
        f.size = f.size.max(end);
        Ok(())
    }

    fn read_at(&self, h: &FileHandle, _rank: usize, offset: u64, len: u64) -> SimResult<Payload> {
        if !h.mode.readable() {
            return Err(SimError::InvalidConfig(format!(
                "file '{}' not opened for reading",
                h.path
            )));
        }
        let st = self.inner.lock().unwrap();
        let f = st
            .files
            .get(&h.path)
            .ok_or_else(|| SimError::InvalidConfig(format!("stale handle for '{}'", h.path)))?;
        f.data.read_exact(offset, len)
    }

    fn close(&self, _h: &FileHandle, _rank: usize) -> SimResult<()> {
        Ok(())
    }

    fn file_size(&self, h: &FileHandle) -> SimResult<u64> {
        let st = self.inner.lock().unwrap();
        st.files
            .get(&h.path)
            .map(|f| f.size)
            .ok_or_else(|| SimError::InvalidConfig(format!("stale handle for '{}'", h.path)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::OpenMode;
    use crate::hints::Hints;

    fn ctx(path: &str, mode: OpenMode) -> OpenContext {
        OpenContext {
            path: path.into(),
            mode,
            rank: 0,
            nprocs: 1,
            hints: Hints::new(),
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let d = MemDriver::new();
        let h = d.open(&ctx("/a", OpenMode::ReadWrite)).unwrap();
        d.write_at(&h, 0, 5, Payload::from_bytes(&b"abc"[..]))
            .unwrap();
        let got = d.read_at(&h, 0, 5, 3).unwrap();
        assert_eq!(&got.to_bytes()[..], b"abc");
        assert_eq!(d.file_size(&h).unwrap(), 8);
    }

    #[test]
    fn open_missing_readonly_fails() {
        let d = MemDriver::new();
        assert!(d.open(&ctx("/missing", OpenMode::Read)).is_err());
    }

    #[test]
    fn mode_enforcement() {
        let d = MemDriver::new();
        let hw = d.open(&ctx("/a", OpenMode::Write)).unwrap();
        d.write_at(&hw, 0, 0, Payload::from_bytes(&b"x"[..]))
            .unwrap();
        assert!(d.read_at(&hw, 0, 0, 1).is_err());
        let hr = d.open(&ctx("/a", OpenMode::Read)).unwrap();
        assert!(d.write_at(&hr, 0, 0, Payload::zeros(1)).is_err());
        assert!(d.read_at(&hr, 0, 0, 1).is_ok());
    }

    #[test]
    fn reopen_preserves_contents_and_fid() {
        let d = MemDriver::new();
        let h1 = d.open(&ctx("/a", OpenMode::Write)).unwrap();
        d.write_at(&h1, 0, 0, Payload::from_bytes(&b"persist"[..]))
            .unwrap();
        d.close(&h1, 0).unwrap();
        let h2 = d.open(&ctx("/a", OpenMode::Read)).unwrap();
        assert_eq!(h1.fid, h2.fid);
        assert_eq!(&d.read_at(&h2, 0, 0, 7).unwrap().to_bytes()[..], b"persist");
    }
}
