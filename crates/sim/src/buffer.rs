//! Sparse extent buffers.
//!
//! Every functional store in the reproduction — log-file chunks, burst-buffer
//! objects, Lustre OST objects — is a [`SparseBuffer`]: an ordered map from
//! byte offset to [`Payload`] extent. Writes split and overwrite overlapping
//! extents (last-writer-wins, byte-granular), and a write that starts where
//! its left neighbour ends and continues that neighbour's pattern stream
//! extends the neighbour instead of adding an extent — so the pieces of one
//! append run, laid down back to back, are stored (and read back) as one
//! extent. Reads gather extents and can either fill holes with zeros or
//! fail.

use crate::error::{SimError, SimResult};
use crate::payload::Payload;
use std::collections::BTreeMap;

/// A sparse, byte-addressed buffer of non-overlapping payload extents.
#[derive(Debug, Clone, Default)]
pub struct SparseBuffer {
    /// start offset → extent payload. Invariant: extents never overlap and
    /// are never empty.
    extents: BTreeMap<u64, Payload>,
}

impl SparseBuffer {
    /// A new, empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored extents (after splitting/merging by writes).
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// Total bytes stored (sum of extent lengths, not the span).
    pub fn bytes_stored(&self) -> u64 {
        self.extents.values().map(Payload::len).sum()
    }

    /// One past the last written byte, or 0 when empty.
    pub fn end_offset(&self) -> u64 {
        self.extents
            .last_key_value()
            .map(|(start, p)| start + p.len())
            .unwrap_or(0)
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Remove all extents.
    pub fn clear(&mut self) {
        self.extents.clear();
    }

    /// Write `payload` at `offset`, overwriting any overlapped bytes.
    pub fn write(&mut self, offset: u64, payload: Payload) {
        let len = payload.len();
        if len == 0 {
            return;
        }
        let end = offset
            .checked_add(len)
            .expect("write range overflows u64 address space");

        // Find all extents overlapping [offset, end). An extent starting
        // before `offset` may still overlap, so step back one entry.
        let first_candidate = self
            .extents
            .range(..offset)
            .next_back()
            .map(|(s, _)| *s)
            .unwrap_or(offset);
        let overlapping: Vec<u64> = self
            .extents
            .range(first_candidate..end)
            .filter(|(s, p)| **s < end && **s + p.len() > offset)
            .map(|(s, _)| *s)
            .collect();

        for s in overlapping {
            let existing = self.extents.remove(&s).expect("key from range scan");
            let e_end = s + existing.len();
            if s < offset {
                // Keep the left fragment.
                self.extents.insert(s, existing.slice(0, offset - s));
            }
            if e_end > end {
                // Keep the right fragment.
                self.extents
                    .insert(end, existing.slice(end - s, e_end - end));
            }
        }
        // A write that continues its left neighbour's stream extends it.
        if let Some((s, left)) = self.extents.range_mut(..offset).next_back() {
            if *s + left.len() == offset && left.try_extend(&payload) {
                return;
            }
        }
        self.extents.insert(offset, payload);
    }

    /// Read `[offset, offset + len)`, filling unwritten holes with zeros.
    pub fn read(&self, offset: u64, len: u64) -> Payload {
        self.gather(offset, len, /* tolerate_holes = */ true)
            .expect("tolerant read cannot fail")
    }

    /// Read `[offset, offset + len)`, failing on the first hole.
    pub fn read_exact(&self, offset: u64, len: u64) -> SimResult<Payload> {
        self.gather(offset, len, false)
    }

    fn gather(&self, offset: u64, len: u64, tolerate_holes: bool) -> SimResult<Payload> {
        if len == 0 {
            return Ok(Payload::empty());
        }
        let end = offset
            .checked_add(len)
            .expect("read range overflows u64 address space");
        let first = self.extents.range(..=offset).next_back();
        // One extent covers the whole range: its slice, no chain.
        if let Some((s, p)) = first {
            if s + p.len() >= end {
                return Ok(p.slice(offset - s, len));
            }
        }
        let first_candidate = first.map(|(s, _)| *s).unwrap_or(offset);
        let mut parts: Vec<Payload> = Vec::new();
        let mut cursor = offset;
        for (s, p) in self.extents.range(first_candidate..end) {
            let e_end = s + p.len();
            if e_end <= cursor {
                continue;
            }
            if *s > cursor {
                if !tolerate_holes {
                    return Err(SimError::Hole {
                        offset: cursor,
                        len: *s - cursor,
                    });
                }
                parts.push(Payload::zeros(*s - cursor));
                cursor = *s;
            }
            let take_start = cursor - s;
            let take_end = end.min(e_end) - s;
            parts.push(p.slice(take_start, take_end - take_start));
            cursor = s + take_end;
            if cursor >= end {
                break;
            }
        }
        if cursor < end {
            if !tolerate_holes {
                return Err(SimError::Hole {
                    offset: cursor,
                    len: end - cursor,
                });
            }
            parts.push(Payload::zeros(end - cursor));
        }
        Ok(Payload::chain(parts))
    }

    /// Iterate over `(offset, payload)` extents in offset order.
    pub fn extents(&self) -> impl Iterator<Item = (u64, &Payload)> {
        self.extents.iter().map(|(s, p)| (*s, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::Bytes;

    fn bp(s: &'static [u8]) -> Payload {
        Payload::from_bytes(Bytes::from_static(s))
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut buf = SparseBuffer::new();
        buf.write(10, bp(b"hello"));
        assert_eq!(&buf.read(10, 5).to_bytes()[..], b"hello");
        assert_eq!(buf.bytes_stored(), 5);
        assert_eq!(buf.end_offset(), 15);
    }

    #[test]
    fn read_fills_holes_with_zeros() {
        let mut buf = SparseBuffer::new();
        buf.write(4, bp(b"ab"));
        let got = buf.read(0, 10);
        assert_eq!(&got.to_bytes()[..], b"\0\0\0\0ab\0\0\0\0");
    }

    #[test]
    fn read_exact_fails_on_hole() {
        let mut buf = SparseBuffer::new();
        buf.write(0, bp(b"abc"));
        buf.write(6, bp(b"def"));
        assert!(buf.read_exact(0, 3).is_ok());
        let err = buf.read_exact(0, 9).unwrap_err();
        assert_eq!(err, SimError::Hole { offset: 3, len: 3 });
    }

    #[test]
    fn overwrite_middle_splits_extent() {
        let mut buf = SparseBuffer::new();
        buf.write(0, bp(b"aaaaaaaaaa"));
        buf.write(3, bp(b"BBB"));
        assert_eq!(&buf.read(0, 10).to_bytes()[..], b"aaaBBBaaaa");
        assert_eq!(buf.extent_count(), 3);
    }

    #[test]
    fn overwrite_left_and_right_edges() {
        let mut buf = SparseBuffer::new();
        buf.write(5, bp(b"xxxxx"));
        buf.write(3, bp(b"LLL")); // overlaps [5,6)
        buf.write(8, bp(b"RRR")); // overlaps [8,10)
        assert_eq!(&buf.read(3, 8).to_bytes()[..], b"LLLxxRRR");
    }

    #[test]
    fn overwrite_exact_and_covering() {
        let mut buf = SparseBuffer::new();
        buf.write(0, bp(b"abc"));
        buf.write(0, bp(b"xyz"));
        assert_eq!(&buf.read(0, 3).to_bytes()[..], b"xyz");
        buf.write(1, bp(b"q"));
        buf.write(0, bp(b"12345")); // covers everything
        assert_eq!(&buf.read(0, 5).to_bytes()[..], b"12345");
        assert_eq!(buf.extent_count(), 1);
    }

    #[test]
    fn overwrite_spanning_multiple_extents() {
        let mut buf = SparseBuffer::new();
        buf.write(0, bp(b"aa"));
        buf.write(4, bp(b"bb"));
        buf.write(8, bp(b"cc"));
        buf.write(1, bp(b"ZZZZZZZZ")); // [1, 9)
        assert_eq!(&buf.read(0, 10).to_bytes()[..], b"aZZZZZZZZc");
    }

    #[test]
    fn zero_len_ops_are_noops() {
        let mut buf = SparseBuffer::new();
        buf.write(5, Payload::empty());
        assert!(buf.is_empty());
        assert!(buf.read(0, 0).is_empty());
    }

    #[test]
    fn huge_sparse_writes_stay_virtual() {
        let mut buf = SparseBuffer::new();
        // Two 100 GB synthetic extents at far-apart offsets.
        buf.write(0, Payload::pattern(1, 100 << 30));
        buf.write(1 << 42, Payload::pattern(2, 100 << 30));
        assert_eq!(buf.bytes_stored(), 200 << 30);
        assert_eq!(buf.read(10, 100).len(), 100);
    }

    #[test]
    fn stream_contiguous_pattern_writes_coalesce() {
        let mut buf = SparseBuffer::new();
        // Stream positions [1000, 5096) of seed 3 at offsets [100, 4196).
        let stream = Payload::pattern(3, 8192);
        for i in 0..4u64 {
            buf.write(100 + i * 1024, stream.slice(1000 + i * 1024, 1024));
        }
        assert_eq!(buf.extent_count(), 1);
        // A read inside the extent is its slice, not a chain.
        assert_eq!(buf.read(200, 3000), stream.slice(1100, 3000));
        // Same seed but not the stream's next window: a new extent.
        buf.write(4196, Payload::pattern(3, 10));
        assert_eq!(buf.extent_count(), 2);
        // Writes continue only a *left* neighbour: the window just before
        // the extent's stream start stays its own extent...
        buf.write(50, stream.slice(950, 50));
        assert_eq!(buf.extent_count(), 3);
        // ...and a read across both merges them back into one window.
        assert_eq!(buf.read(50, 4146), stream.slice(950, 4146));
    }

    #[test]
    fn overwrite_splits_a_coalesced_extent() {
        let mut buf = SparseBuffer::new();
        let stream = Payload::pattern(4, 300);
        for i in 0..3u64 {
            buf.write(i * 100, stream.slice(i * 100, 100));
        }
        assert_eq!(buf.extent_count(), 1);
        buf.write(150, Payload::pattern(5, 100));
        assert_eq!(buf.extent_count(), 3);
        let got = buf.read(0, 300);
        assert!(got.slice(0, 150).content_eq(&stream.slice(0, 150)));
        assert!(got.slice(150, 100).content_eq(&Payload::pattern(5, 100)));
        assert!(got.slice(250, 50).content_eq(&stream.slice(250, 50)));
        // Rewriting the overwritten window with the stream's own bytes
        // joins the left fragment again.
        buf.write(150, stream.slice(150, 100));
        assert_eq!(buf.extent_count(), 2);
        assert_eq!(buf.read(0, 300), stream);
    }

    #[test]
    fn pattern_roundtrip_through_overwrites() {
        let mut buf = SparseBuffer::new();
        let base = Payload::pattern(9, 1 << 16);
        buf.write(0, base.clone());
        let patch = Payload::pattern(10, 100);
        buf.write(1000, patch.clone());
        let expected = {
            let mut v = base.to_bytes().to_vec();
            v[1000..1100].copy_from_slice(&patch.to_bytes());
            Bytes::from(v)
        };
        assert_eq!(buf.read(0, 1 << 16).to_bytes(), expected);
    }
}
