//! Lightweight workflow management (§II-E).
//!
//! Coupled applications (a simulation writing, an analysis reading) must
//! not observe partial data. UniviStor coordinates them through a shared
//! **state file**: a writing application locks a file by setting its state
//! to WRITING and releases it with WRITE_DONE; readers wait for WRITING to
//! clear and mark READING/READ_DONE; FLUSHING/FLUSH_DONE guard against a
//! writer overwriting a file the servers are flushing. Lock
//! acquire/release piggybacks on the *collective* `MPI_File_open` /
//! `MPI_File_close`: only the root process touches the state file, so the
//! mechanism adds no per-rank synchronization.
//!
//! The coordinator here is the state file: a shared map with condition-
//! variable waiting, usable from the threaded SPMD runtime so a reader
//! genuinely blocks until its producer closes the file.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Per-file workflow states, exactly the paper's set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileState {
    /// Never touched (implicit initial state).
    Idle,
    /// A writer holds the file.
    Writing,
    /// Last writer finished.
    WriteDone,
    /// One or more readers hold the file.
    Reading,
    /// Last reader finished.
    ReadDone,
    /// Servers are flushing the file to the PFS.
    Flushing,
    /// Flush complete.
    FlushDone,
}

#[derive(Debug, Default)]
struct Entry {
    state: Option<FileState>,
    readers: u32,
}

impl Entry {
    fn state(&self) -> FileState {
        self.state.unwrap_or(FileState::Idle)
    }
}

#[derive(Debug, Default)]
struct Inner {
    files: HashMap<String, Entry>,
    /// Total blocking waits (for tests/metrics).
    waits: u64,
}

/// The shared state file. Cloneable handles all point at one map.
#[derive(Debug, Default)]
pub struct StateFile {
    inner: Mutex<Inner>,
    cond: Condvar,
}

/// Wait timeout: workflow bugs should fail tests, not hang them.
const WAIT_TIMEOUT: Duration = Duration::from_secs(30);

impl StateFile {
    /// An empty state file.
    pub fn new() -> Self {
        Self::default()
    }

    fn wait_until(&self, path: &str, ready: impl Fn(&Entry) -> bool) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let mut waited = false;
        loop {
            let entry = inner.files.entry(path.to_string()).or_default();
            if ready(entry) {
                return waited;
            }
            waited = true;
            inner.waits += 1;
            let (guard, timeout) = self
                .cond
                .wait_timeout(inner, WAIT_TIMEOUT)
                .expect("state file lock poisoned");
            inner = guard;
            assert!(
                !timeout.timed_out(),
                "workflow wait on '{path}' timed out — deadlock?"
            );
        }
    }

    /// Writer lock: waits while the file is being written, read or
    /// flushed; then marks WRITING. Returns true if the caller had to wait.
    pub fn acquire_write(&self, path: &str) -> bool {
        let waited = self.wait_until(path, |e| {
            !matches!(e.state(), FileState::Writing | FileState::Flushing) && e.readers == 0
        });
        let mut inner = self.inner.lock().unwrap();
        let entry = inner.files.entry(path.to_string()).or_default();
        entry.state = Some(FileState::Writing);
        waited
    }

    /// Writer unlock: WRITING → WRITE_DONE, wake waiters.
    pub fn release_write(&self, path: &str) {
        let mut inner = self.inner.lock().unwrap();
        let entry = inner.files.entry(path.to_string()).or_default();
        assert_eq!(
            entry.state(),
            FileState::Writing,
            "release_write without write lock on '{path}'"
        );
        entry.state = Some(FileState::WriteDone);
        drop(inner);
        self.cond.notify_all();
    }

    /// Reader lock: waits while the file is being written; then joins the
    /// reader group (concurrent readers share). Returns true if it waited.
    ///
    /// Readers joining during FLUSHING leave the state alone: they read
    /// the still-cached data while the servers drain (§II-E), and the
    /// flush transition must survive until `end_flush`.
    pub fn acquire_read(&self, path: &str) -> bool {
        let waited = self.wait_until(path, |e| e.state() != FileState::Writing);
        let mut inner = self.inner.lock().unwrap();
        let entry = inner.files.entry(path.to_string()).or_default();
        entry.readers += 1;
        if entry.state() != FileState::Flushing {
            entry.state = Some(FileState::Reading);
        }
        waited
    }

    /// Reader lock for a file the producer may not even have created yet
    /// (the in-situ case): waits until the file has been written at least
    /// once (any post-WRITING state), then joins the reader group.
    pub fn acquire_read_produced(&self, path: &str) -> bool {
        let waited = self.wait_until(path, |e| {
            !matches!(e.state(), FileState::Idle | FileState::Writing)
        });
        let mut inner = self.inner.lock().unwrap();
        let entry = inner.files.entry(path.to_string()).or_default();
        entry.readers += 1;
        if entry.state() != FileState::Flushing {
            entry.state = Some(FileState::Reading);
        }
        waited
    }

    /// Reader unlock: last reader sets READ_DONE — unless the servers are
    /// mid-flush, in which case FLUSHING stays until `end_flush` (the
    /// reader group count alone records that the readers left).
    pub fn release_read(&self, path: &str) {
        let mut inner = self.inner.lock().unwrap();
        let entry = inner.files.entry(path.to_string()).or_default();
        assert!(
            entry.readers > 0,
            "release_read without read lock on '{path}'"
        );
        entry.readers -= 1;
        if entry.readers == 0 && entry.state() != FileState::Flushing {
            entry.state = Some(FileState::ReadDone);
        }
        drop(inner);
        self.cond.notify_all();
    }

    /// Server-side flush begin: waits for writers, then marks FLUSHING.
    /// Concurrent readers are fine — they read the still-cached data.
    pub fn begin_flush(&self, path: &str) -> bool {
        let waited = self.wait_until(path, |e| e.state() != FileState::Writing);
        let mut inner = self.inner.lock().unwrap();
        let entry = inner.files.entry(path.to_string()).or_default();
        entry.state = Some(FileState::Flushing);
        waited
    }

    /// Flush end: FLUSHING → FLUSH_DONE.
    pub fn end_flush(&self, path: &str) {
        self.leave_flush(path, FileState::FlushDone);
    }

    /// Failed flush: FLUSHING → WRITE_DONE. The cached file is intact, so
    /// a writer may reopen it and its next close flushes again.
    pub fn abort_flush(&self, path: &str) {
        self.leave_flush(path, FileState::WriteDone);
    }

    fn leave_flush(&self, path: &str, to: FileState) {
        let mut inner = self.inner.lock().unwrap();
        let entry = inner.files.entry(path.to_string()).or_default();
        assert_eq!(
            entry.state(),
            FileState::Flushing,
            "flush end without begin_flush on '{path}'"
        );
        entry.state = Some(to);
        drop(inner);
        self.cond.notify_all();
    }

    /// Current state of a file.
    pub fn state_of(&self, path: &str) -> FileState {
        let inner = self.inner.lock().unwrap();
        inner
            .files
            .get(path)
            .map(|e| e.state())
            .unwrap_or(FileState::Idle)
    }

    /// Total blocking waits so far.
    pub fn wait_count(&self) -> u64 {
        self.inner.lock().unwrap().waits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn write_read_state_transitions() {
        let sf = StateFile::new();
        assert_eq!(sf.state_of("/f"), FileState::Idle);
        assert!(!sf.acquire_write("/f"));
        assert_eq!(sf.state_of("/f"), FileState::Writing);
        sf.release_write("/f");
        assert_eq!(sf.state_of("/f"), FileState::WriteDone);
        assert!(!sf.acquire_read("/f"));
        assert_eq!(sf.state_of("/f"), FileState::Reading);
        sf.release_read("/f");
        assert_eq!(sf.state_of("/f"), FileState::ReadDone);
    }

    #[test]
    fn reader_blocks_until_writer_finishes() {
        let sf = Arc::new(StateFile::new());
        sf.acquire_write("/data");
        let writer_done = Arc::new(AtomicBool::new(false));

        let sf2 = Arc::clone(&sf);
        let done2 = Arc::clone(&writer_done);
        let reader = std::thread::spawn(move || {
            let waited = sf2.acquire_read("/data");
            // The writer must have finished before we got the lock.
            assert!(done2.load(Ordering::SeqCst));
            sf2.release_read("/data");
            waited
        });

        std::thread::sleep(Duration::from_millis(50));
        writer_done.store(true, Ordering::SeqCst);
        sf.release_write("/data");
        assert!(
            reader.join().expect("reader panicked"),
            "reader never waited"
        );
    }

    #[test]
    fn writer_blocks_on_readers() {
        let sf = Arc::new(StateFile::new());
        sf.acquire_read("/f");
        sf.acquire_read("/f"); // two concurrent readers share

        let sf2 = Arc::clone(&sf);
        let readers_left = Arc::new(AtomicU32::new(2));
        let left2 = Arc::clone(&readers_left);
        let writer = std::thread::spawn(move || {
            sf2.acquire_write("/f");
            assert_eq!(left2.load(Ordering::SeqCst), 0);
            sf2.release_write("/f");
        });

        std::thread::sleep(Duration::from_millis(30));
        readers_left.fetch_sub(1, Ordering::SeqCst);
        sf.release_read("/f");
        std::thread::sleep(Duration::from_millis(30));
        readers_left.fetch_sub(1, Ordering::SeqCst);
        sf.release_read("/f");
        writer.join().expect("writer panicked");
    }

    #[test]
    fn flush_blocks_writers_not_readers() {
        let sf = Arc::new(StateFile::new());
        sf.acquire_write("/f");
        sf.release_write("/f");
        assert!(!sf.begin_flush("/f"));
        // A reader proceeds during the flush, and its join/leave leaves
        // the FLUSHING transition intact for `end_flush`.
        assert!(!sf.acquire_read("/f"));
        assert_eq!(sf.state_of("/f"), FileState::Flushing);
        sf.release_read("/f");
        assert_eq!(sf.state_of("/f"), FileState::Flushing);

        let sf2 = Arc::clone(&sf);
        let flushed = Arc::new(AtomicBool::new(false));
        let fl2 = Arc::clone(&flushed);
        let writer = std::thread::spawn(move || {
            sf2.acquire_write("/f");
            assert!(fl2.load(Ordering::SeqCst));
            sf2.release_write("/f");
        });
        std::thread::sleep(Duration::from_millis(50));
        flushed.store(true, Ordering::SeqCst);
        sf.end_flush("/f");
        writer.join().expect("writer panicked");
    }

    #[test]
    fn files_are_independent() {
        let sf = StateFile::new();
        sf.acquire_write("/a");
        // Locking /a must not block /b at all.
        assert!(!sf.acquire_write("/b"));
        sf.release_write("/b");
        sf.release_write("/a");
    }

    #[test]
    #[should_panic(expected = "without write lock")]
    fn unbalanced_release_panics() {
        let sf = StateFile::new();
        sf.release_write("/f");
    }

    #[test]
    fn full_lifecycle_write_flush_rewrite() {
        let sf = StateFile::new();
        sf.acquire_write("/f");
        sf.release_write("/f");
        sf.begin_flush("/f");
        sf.end_flush("/f");
        assert_eq!(sf.state_of("/f"), FileState::FlushDone);
        // A second producer cycle proceeds from FLUSH_DONE.
        assert!(!sf.acquire_write("/f"));
        sf.release_write("/f");
        assert_eq!(sf.state_of("/f"), FileState::WriteDone);
    }

    #[test]
    fn acquire_read_produced_waits_for_first_write() {
        let sf = Arc::new(StateFile::new());
        let sf2 = Arc::clone(&sf);
        let produced = Arc::new(AtomicBool::new(false));
        let p2 = Arc::clone(&produced);
        let reader = std::thread::spawn(move || {
            let waited = sf2.acquire_read_produced("/future");
            assert!(p2.load(Ordering::SeqCst), "read before any write");
            sf2.release_read("/future");
            waited
        });
        std::thread::sleep(Duration::from_millis(40));
        sf.acquire_write("/future");
        produced.store(true, Ordering::SeqCst);
        sf.release_write("/future");
        assert!(reader.join().expect("reader"), "reader never waited");
    }

    #[test]
    fn wait_count_observable() {
        let sf = Arc::new(StateFile::new());
        sf.acquire_write("/f");
        let sf2 = Arc::clone(&sf);
        let t = std::thread::spawn(move || {
            sf2.acquire_read("/f");
            sf2.release_read("/f");
        });
        std::thread::sleep(Duration::from_millis(30));
        sf.release_write("/f");
        t.join().expect("reader");
        assert!(sf.wait_count() >= 1);
    }
}
