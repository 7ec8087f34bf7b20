//! Log-structured per-process, per-layer files (§II-B1).
//!
//! Each log's space is formatted as fixed-size **chunks**. Appends fill the
//! current chunk sequentially (maximizing device bandwidth with a
//! sequential pattern); when a chunk is used up, a new chunk id is popped
//! from the **free-chunk stack**; when a chunk's contents are deleted or
//! fully overwritten, its id is pushed back for reuse.
//!
//! Addresses within a log are plain byte offsets
//! (`chunk_id * chunk_size + offset_in_chunk`), which is what Eq. 1 turns
//! into virtual addresses.
//!
//! Bookkeeping is lazy (maps keyed by chunk id, a frontier counter for
//! never-used chunks) so that a log representing an effectively unbounded
//! layer — the per-process log *file* on the PFS — costs memory only for
//! the chunks actually touched.

use std::collections::HashMap;
use univistor_sim::{Payload, SimError, SimResult, SparseBuffer};

/// A segment's location within a log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogAddr(pub u64);

/// One log file.
#[derive(Debug)]
pub struct LogFile {
    chunk_size: u64,
    n_chunks: u64,
    /// Chunk ids recycled by `release` (stack; top = next to reuse).
    recycled: Vec<u64>,
    /// First chunk id never handed out.
    frontier: u64,
    /// Per-chunk fill cursor (bytes appended since last recycle).
    fill: HashMap<u64, u64>,
    /// Per-chunk live (unreleased) bytes.
    live: HashMap<u64, u64>,
    live_total: u64,
    /// The chunk currently accepting appends.
    active: Option<u64>,
    /// Byte store addressed by LogAddr.
    data: SparseBuffer,
    appended_segments: u64,
}

impl LogFile {
    /// A log of `capacity` bytes formatted into `capacity / chunk_size`
    /// chunks (a trailing partial chunk is not usable, as in the paper's
    /// fixed-chunk format). `capacity == u64::MAX` gives an effectively
    /// unbounded log.
    pub fn new(capacity: u64, chunk_size: u64) -> SimResult<Self> {
        if chunk_size == 0 {
            return Err(SimError::InvalidConfig(
                "chunk_size must be positive".into(),
            ));
        }
        let n_chunks = capacity / chunk_size;
        if n_chunks == 0 {
            return Err(SimError::InvalidConfig(format!(
                "capacity {capacity} below one chunk ({chunk_size})"
            )));
        }
        Ok(LogFile {
            chunk_size,
            n_chunks,
            recycled: Vec::new(),
            frontier: 0,
            fill: HashMap::new(),
            live: HashMap::new(),
            live_total: 0,
            active: None,
            data: SparseBuffer::new(),
            appended_segments: 0,
        })
    }

    /// Usable capacity (whole chunks). Saturates for unbounded logs.
    pub fn capacity(&self) -> u64 {
        self.n_chunks.saturating_mul(self.chunk_size)
    }

    /// Chunk size.
    pub fn chunk_size(&self) -> u64 {
        self.chunk_size
    }

    fn active_room(&self) -> u64 {
        self.active
            .map(|c| self.chunk_size - self.fill.get(&c).copied().unwrap_or(0))
            .unwrap_or(0)
    }

    /// Chunk ids currently free (recycled + never used).
    pub fn free_chunks(&self) -> u64 {
        self.recycled.len() as u64 + (self.n_chunks - self.frontier)
    }

    /// Bytes that could still be appended without freeing anything
    /// (remaining space in the active chunk + whole free chunks).
    pub fn appendable(&self) -> u64 {
        self.active_room()
            .saturating_add(self.free_chunks().saturating_mul(self.chunk_size))
    }

    /// True when `len` more bytes fit in one chunk-contiguous append.
    /// (`len` must not exceed the chunk size — callers segment writes.)
    pub fn fits(&self, len: u64) -> bool {
        debug_assert!(len <= self.chunk_size, "segment larger than a chunk");
        len <= self.active_room() || self.free_chunks() > 0
    }

    fn pop_free(&mut self) -> Option<u64> {
        if let Some(c) = self.recycled.pop() {
            return Some(c);
        }
        if self.frontier < self.n_chunks {
            let c = self.frontier;
            self.frontier += 1;
            return Some(c);
        }
        None
    }

    /// Append one segment (≤ chunk size). Returns its address.
    pub fn append(&mut self, payload: Payload) -> SimResult<LogAddr> {
        let len = payload.len();
        if len == 0 {
            return Err(SimError::InvalidFlow("empty segment append".into()));
        }
        if len > self.chunk_size {
            return Err(SimError::InvalidFlow(format!(
                "segment of {len} bytes exceeds chunk size {}",
                self.chunk_size
            )));
        }
        // Ensure an active chunk with room.
        let chunk = match self.active {
            Some(c) if self.chunk_size - self.fill.get(&c).copied().unwrap_or(0) >= len => c,
            _ => {
                let c = self.pop_free().ok_or(SimError::OutOfCapacity {
                    requested: len,
                    available: self.active_room(),
                })?;
                self.active = Some(c);
                c
            }
        };
        let offset_in_chunk = self.fill.get(&chunk).copied().unwrap_or(0);
        let addr = chunk * self.chunk_size + offset_in_chunk;
        *self.fill.entry(chunk).or_insert(0) += len;
        *self.live.entry(chunk).or_insert(0) += len;
        self.live_total += len;
        self.data.write(addr, payload);
        self.appended_segments += 1;
        Ok(LogAddr(addr))
    }

    /// Read `len` bytes at `addr`.
    pub fn read(&self, addr: LogAddr, len: u64) -> SimResult<Payload> {
        self.data.read_exact(addr.0, len)
    }

    /// Release a previously appended span (logical overwrite/delete).
    /// The span may cross chunk boundaries — coalesced records merge
    /// address-adjacent appends, so their displaced spans can cover the
    /// seam between two exactly-filled chunks; each covered chunk is
    /// debited for its own bytes. When a chunk's live bytes reach zero,
    /// its id returns to the free stack for reuse. Chunks are processed
    /// highest-first so a multi-chunk release pushes ids onto the stack in
    /// descending order and the next appends pop them back ascending —
    /// freed runs are reused front to back, address-contiguously.
    pub fn release(&mut self, addr: LogAddr, len: u64) {
        let start = addr.0;
        let mut end = start + len;
        while end > start {
            let chunk = (end - 1) / self.chunk_size;
            assert!(chunk < self.n_chunks, "release beyond log");
            let span_start = (chunk * self.chunk_size).max(start);
            let n = end - span_start;
            let live = self
                .live
                .get_mut(&chunk)
                .expect("release of never-written chunk");
            assert!(*live >= n, "releasing more than live bytes in chunk");
            *live -= n;
            self.live_total -= n;
            if *live == 0 {
                // Reset fill cursor and recycle the chunk id.
                self.live.remove(&chunk);
                self.fill.remove(&chunk);
                if self.active == Some(chunk) {
                    self.active = None;
                }
                self.recycled.push(chunk);
            }
            end = span_start;
        }
    }

    /// Live (not released) bytes in the log.
    pub fn live_bytes(&self) -> u64 {
        self.live_total
    }

    /// Total segments ever appended.
    pub fn appended_segments(&self) -> u64 {
        self.appended_segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> LogFile {
        LogFile::new(1024, 256).unwrap()
    }

    #[test]
    fn appends_are_sequential_within_chunk() {
        let mut l = log();
        let a = l.append(Payload::pattern(1, 100)).unwrap();
        let b = l.append(Payload::pattern(2, 100)).unwrap();
        assert_eq!(a, LogAddr(0));
        assert_eq!(b, LogAddr(100));
        assert!(l
            .read(a, 100)
            .unwrap()
            .content_eq(&Payload::pattern(1, 100)));
        assert!(l
            .read(b, 100)
            .unwrap()
            .content_eq(&Payload::pattern(2, 100)));
    }

    #[test]
    fn chunk_rollover_pops_next_free_id() {
        let mut l = log();
        l.append(Payload::pattern(1, 200)).unwrap();
        // 56 bytes left in chunk 0; a 100-byte segment opens chunk 1.
        let b = l.append(Payload::pattern(2, 100)).unwrap();
        assert_eq!(b, LogAddr(256));
        assert_eq!(l.free_chunks(), 2);
    }

    #[test]
    fn capacity_exhaustion_errors() {
        let mut l = log();
        for i in 0..4 {
            l.append(Payload::pattern(i, 256)).unwrap();
        }
        assert!(matches!(
            l.append(Payload::pattern(9, 1)),
            Err(SimError::OutOfCapacity { .. })
        ));
        assert_eq!(l.appendable(), 0);
    }

    #[test]
    fn release_recycles_chunks() {
        let mut l = log();
        let addrs: Vec<LogAddr> = (0..4)
            .map(|i| l.append(Payload::pattern(i, 256)).unwrap())
            .collect();
        assert_eq!(l.free_chunks(), 0);
        // Free the second chunk entirely; its id is reused next.
        l.release(addrs[1], 256);
        assert_eq!(l.free_chunks(), 1);
        let again = l.append(Payload::pattern(9, 256)).unwrap();
        assert_eq!(again, LogAddr(256));
    }

    #[test]
    fn partial_release_keeps_chunk_busy() {
        let mut l = log();
        let a = l.append(Payload::pattern(1, 100)).unwrap();
        l.append(Payload::pattern(2, 100)).unwrap();
        l.release(a, 100);
        // Chunk 0 still has 100 live bytes.
        assert_eq!(l.live_bytes(), 100);
        assert_eq!(l.free_chunks(), 3);
    }

    #[test]
    fn release_spanning_exactly_filled_chunks() {
        let mut l = log();
        // Two 256-byte appends fill chunks 0 and 1 back to back, so their
        // addresses are contiguous — the shape a coalesced record merges.
        let a = l.append(Payload::pattern(1, 256)).unwrap();
        let b = l.append(Payload::pattern(2, 256)).unwrap();
        assert_eq!(b.0, a.0 + 256);
        // One release over the merged span frees both chunks.
        l.release(a, 512);
        assert_eq!(l.live_bytes(), 0);
        assert_eq!(l.free_chunks(), 4);
        // The freed run is handed back front to back: new appends reuse it
        // address-contiguously.
        assert_eq!(l.append(Payload::pattern(3, 256)).unwrap(), LogAddr(0));
        assert_eq!(l.append(Payload::pattern(4, 256)).unwrap(), LogAddr(256));
    }

    #[test]
    fn release_straddling_a_chunk_seam_debits_each_side() {
        let mut l = log();
        let a = l.append(Payload::pattern(1, 256)).unwrap();
        l.append(Payload::pattern(2, 256)).unwrap();
        // Release the middle 256 bytes of the merged 512-byte span: the
        // tail half of chunk 0 plus the head half of chunk 1.
        l.release(LogAddr(a.0 + 128), 256);
        assert_eq!(l.live_bytes(), 256);
        // Neither chunk is empty yet, so nothing recycles.
        assert_eq!(l.free_chunks(), 2);
    }

    #[test]
    fn stream_contiguous_appends_read_back_as_one_window() {
        // The pieces of one write: consecutive windows of one stream,
        // appended back to back across a chunk seam.
        let mut l = log();
        let stream = Payload::pattern(7, 512);
        let first = l.append(stream.slice(0, 128)).unwrap();
        for i in 1..4 {
            l.append(stream.slice(i * 128, 128)).unwrap();
        }
        let whole = l.read(first, 512).unwrap();
        assert!(
            matches!(whole, Payload::Pattern { .. }),
            "expected one pattern window, got {whole:?}"
        );
        assert_eq!(whole, stream);
    }

    #[test]
    fn oversized_segment_rejected() {
        let mut l = log();
        assert!(l.append(Payload::pattern(1, 257)).is_err());
        assert!(l.append(Payload::empty()).is_err());
    }

    #[test]
    fn trailing_partial_capacity_unused() {
        let l = LogFile::new(1000, 256).unwrap(); // 3 whole chunks
        assert_eq!(l.capacity(), 768);
    }

    #[test]
    fn degenerate_configs_rejected() {
        assert!(LogFile::new(100, 0).is_err());
        assert!(LogFile::new(100, 256).is_err());
    }

    #[test]
    fn fits_accounts_for_active_chunk_room() {
        let mut l = LogFile::new(256, 256).unwrap(); // single chunk
        assert!(l.fits(256));
        l.append(Payload::pattern(1, 200)).unwrap();
        assert!(l.fits(56));
        assert!(!l.fits(57));
    }

    #[test]
    fn unbounded_log_is_cheap_and_works() {
        let mut l = LogFile::new(u64::MAX, 8 << 20).unwrap();
        for i in 0..100u64 {
            l.append(Payload::pattern(i, 8 << 20)).unwrap();
        }
        assert_eq!(l.live_bytes(), 100 * (8 << 20));
        assert!(l.fits(8 << 20));
        // Bookkeeping is proportional to touched chunks, not capacity.
        assert_eq!(l.appended_segments(), 100);
    }

    #[test]
    fn paper_scale_log_stays_virtual() {
        // A 5 GiB per-process DRAM log filled with 8 MiB segments.
        let mut l = LogFile::new(5 << 30, 8 << 20).unwrap();
        let seg = 8u64 << 20;
        let mut n = 0u64;
        while l.fits(seg) {
            l.append(Payload::pattern(n, seg)).unwrap();
            n += 1;
        }
        assert_eq!(n, 5 * 128);
        assert_eq!(l.live_bytes(), 5 << 30);
    }
}
