//! The UniviStor ADIO driver (§II-F).
//!
//! Applications select UniviStor by forcing the file-system type
//! (`ROMIO_FSTYPE_FORCE=UniviStor`); their unchanged `MPI_File_*` calls
//! then flow through this driver into the job's servers. The driver
//! implements the Collective Open/Close optimization: when enabled, only
//! the root rank sends the open/close metadata RPC (the result reaches the
//! other ranks through the collective's broadcast), turning the all-to-one
//! storm into a single request.
//!
//! One driver instance represents one *application* of the job (`app` id);
//! coupled applications each construct their own driver over the shared
//! [`UniviStorJob`].

use crate::metadata::ClientId;
use crate::server::UniviStorJob;
use std::sync::Arc;
use univistor_mpi::driver::{FileHandle, FsDriver, OpenContext};
use univistor_sim::{Payload, SimResult};

/// Driver name matched against `ROMIO_FSTYPE_FORCE`.
pub const DRIVER_NAME: &str = "UniviStor";

/// The ADIO driver for one application.
pub struct UniviStorDriver {
    job: Arc<UniviStorJob>,
    app: u32,
}

impl UniviStorDriver {
    /// A driver for application `app` over a running job.
    pub fn new(job: Arc<UniviStorJob>, app: u32) -> Self {
        UniviStorDriver { job, app }
    }

    /// The underlying job (tests, verification).
    pub fn job(&self) -> &UniviStorJob {
        &self.job
    }

    /// The shared job handle (for constructing a coupled application's
    /// driver over the same job).
    pub fn job_arc(&self) -> &Arc<UniviStorJob> {
        &self.job
    }

    fn client(&self, rank: usize) -> ClientId {
        ClientId::new(self.app, rank as u32)
    }
}

impl FsDriver for UniviStorDriver {
    fn name(&self) -> &'static str {
        DRIVER_NAME
    }

    fn open(&self, ctx: &OpenContext) -> SimResult<FileHandle> {
        let coc = self.job.cfg().features.collective_open_close;
        let is_root = ctx.rank == 0;
        self.job.connect(self.client(ctx.rank));
        let fid = if coc && !is_root {
            // Root already performed (or will perform) the metadata RPC on
            // behalf of everyone; the collective open's agreement step in
            // MpiFile::open orders us after it. No RPC from this rank.
            0
        } else {
            let represents = if coc { ctx.nprocs } else { 1 };
            self.job
                .open_file(&ctx.path)
                .mode(ctx.mode)
                .representing(represents)
                .lock_holder(is_root)
                .by(self.client(ctx.rank))?
        };
        Ok(FileHandle {
            fid,
            path: ctx.path.clone(),
            mode: ctx.mode,
            nprocs: ctx.nprocs,
        })
    }

    fn write_at(&self, h: &FileHandle, rank: usize, offset: u64, data: Payload) -> SimResult<()> {
        Ok(self.job.write(self.client(rank), &h.path, offset, data)?)
    }

    fn read_at(&self, h: &FileHandle, rank: usize, offset: u64, len: u64) -> SimResult<Payload> {
        Ok(self.job.read(self.client(rank), &h.path, offset, len)?)
    }

    fn close(&self, h: &FileHandle, rank: usize) -> SimResult<()> {
        let coc = self.job.cfg().features.collective_open_close;
        let is_root = rank == 0;
        if !coc || is_root {
            // Under COC the root's close represents the whole communicator
            // (its open registered nprocs); otherwise every rank closes for
            // itself.
            let represents = if coc { h.nprocs } else { 1 };
            self.job
                .close(&h.path, self.client(rank), h.mode, represents, is_root)?;
        }
        self.job.disconnect(self.client(rank));
        Ok(())
    }

    fn file_size(&self, h: &FileHandle) -> SimResult<u64> {
        Ok(self.job.file_size(&h.path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UniviStorConfig;
    use univistor_mpi::driver::OpenMode;
    use univistor_mpi::{Hints, MpiFile, World};

    fn driver(coc: bool) -> UniviStorDriver {
        let mut cfg = UniviStorConfig::test_small(2, 2);
        cfg.features.collective_open_close = coc;
        UniviStorDriver::new(Arc::new(UniviStorJob::new(cfg)), 0)
    }

    #[test]
    fn spmd_write_read_through_mpiio() {
        for coc in [false, true] {
            let d = driver(coc);
            let oks = World::run(4, |comm| {
                let f =
                    MpiFile::open(&comm, &d, "/exp", OpenMode::ReadWrite, Hints::new()).unwrap();
                let mine = Payload::pattern(comm.rank() as u64, 256);
                f.write_at_all(comm.rank() as u64 * 256, mine).unwrap();
                let next = (comm.rank() + 1) % comm.size();
                let theirs = f.read_at_all(next as u64 * 256, 256).unwrap();
                let ok = theirs.content_eq(&Payload::pattern(next as u64, 256));
                f.close().unwrap();
                ok
            });
            assert_eq!(oks, vec![true; 4], "coc={coc}");
            // Close flushed to Lustre.
            assert_eq!(d.job().lustre_file_size("/exp").unwrap(), 1024);
        }
    }

    #[test]
    fn coc_sends_one_open_rpc_instead_of_nprocs() {
        let d_coc = driver(true);
        World::run(4, |comm| {
            let f = MpiFile::open(&comm, &d_coc, "/f", OpenMode::Write, Hints::new()).unwrap();
            f.write_at(0, Payload::pattern(1, 64)).unwrap();
            f.close().unwrap();
        });
        let d_storm = driver(false);
        World::run(4, |comm| {
            let f = MpiFile::open(&comm, &d_storm, "/f", OpenMode::Write, Hints::new()).unwrap();
            f.write_at(0, Payload::pattern(1, 64)).unwrap();
            f.close().unwrap();
        });
        let open_close_rpcs = |d: &UniviStorDriver| {
            d.job()
                .metrics()
                .counter("univistor_md_rpcs_total", &[("op", "open_close")])
                .unwrap_or(0)
        };
        let (coc_rpcs, storm_rpcs) = (open_close_rpcs(&d_coc), open_close_rpcs(&d_storm));
        assert_eq!(coc_rpcs, 2, "COC: one open + one close");
        assert_eq!(storm_rpcs, 8, "storm: nprocs opens + nprocs closes");
    }

    #[test]
    fn connection_management_tracks_clients() {
        let d = driver(true);
        World::run(3, |comm| {
            let f = MpiFile::open(&comm, &d, "/f", OpenMode::Write, Hints::new()).unwrap();
            comm.barrier();
            f.close().unwrap();
        });
        // All clients disconnected after close.
        assert_eq!(d.job().connected_count(), 0);
    }
}
