//! On-flash object entry format shared by every engine.
//!
//! A flash page holds a little-endian `u16` entry count followed by packed
//! entries of the form `[key: u64][total_size: u32][payload]`, where
//! `total_size` covers the 12-byte header plus the payload. Objects never
//! cross page boundaries (a set *is* one page in set-associative layouts;
//! the log baselines fill pages greedily), which is exactly the packing
//! model behind the paper's fill-rate arithmetic.
//!
//! Payload bytes are a deterministic function of the key, so integration
//! tests can verify end-to-end data integrity through flush, migration,
//! write-back and GC without storing the original values.

/// Bytes of the per-entry header (`key` + `size`).
pub const ENTRY_HEADER: u32 = 12;

/// Bytes of the per-page header (entry count).
pub const PAGE_HEADER: usize = 2;

/// Smallest valid object size.
pub const MIN_OBJECT_SIZE: u32 = ENTRY_HEADER;

/// Deterministic payload byte `i` for an object with `key`: the
/// reference formula that [`fill_payload`] computes a run at a time.
#[inline]
pub fn payload_byte(key: u64, i: usize) -> u8 {
    let rotated = key.rotate_left((i % 61) as u32);
    (rotated as u8) ^ (i as u8).wrapping_mul(31)
}

/// Period of [`payload_byte`]'s first term.
const ROTATIONS: usize = 61;

/// [`payload_byte`]'s second term for `i` in `0..256 + 61`, so that a
/// run of 61 bytes starting anywhere in `0..256` reads it unwrapped.
const STRIDE: [u8; 256 + ROTATIONS] = {
    let mut table = [0u8; 256 + ROTATIONS];
    let mut i = 0;
    while i < table.len() {
        table[i] = (i as u8).wrapping_mul(31);
        i += 1;
    }
    table
};

/// Fills `buf` with the deterministic payload for `key`, byte for byte
/// [`payload_byte`]: the key's rotations are tabled once, then every
/// 61-byte run is that table XORed with a slice of the second term.
pub fn fill_payload(key: u64, buf: &mut [u8]) {
    let mut rotations = [0u8; ROTATIONS];
    for (r, b) in rotations.iter_mut().take(buf.len()).enumerate() {
        *b = key.rotate_left(r as u32) as u8;
    }
    for (run, bytes) in buf.chunks_mut(ROTATIONS).enumerate() {
        let stride = &STRIDE[run * ROTATIONS % 256..];
        for ((b, &r), &s) in bytes.iter_mut().zip(&rotations).zip(stride) {
            *b = r ^ s;
        }
    }
}

/// Verifies that `buf` matches the deterministic payload for `key`.
pub fn verify_payload(key: u64, buf: &[u8]) -> bool {
    buf.iter()
        .enumerate()
        .all(|(i, &b)| b == payload_byte(key, i))
}

/// Writes one entry, header and payload, into `entry`, which is the
/// entry's `size` bytes: the one entry writer behind
/// [`PageBuf::try_push`] and [`encode_page`].
fn write_entry(entry: &mut [u8], key: u64, size: u32) {
    assert!(size >= MIN_OBJECT_SIZE, "object smaller than its header");
    let (header, payload) = entry.split_at_mut(ENTRY_HEADER as usize);
    header[..8].copy_from_slice(&key.to_le_bytes());
    header[8..].copy_from_slice(&size.to_le_bytes());
    fill_payload(key, payload);
}

/// Encodes `entries` as one page into `page`: the entry count, the
/// entries in order, then zeros to the end. The bytes are those
/// [`PageBuf`] finishes after the same pushes, written in place, so a
/// caller that encodes many pages can reuse one buffer.
///
/// # Panics
///
/// Panics if the entries do not fit `page`, there are more than
/// `u16::MAX` of them, or one is smaller than its header.
pub fn encode_page(page: &mut [u8], entries: &[(u64, u32)]) {
    let count = u16::try_from(entries.len()).expect("entry count fits the page header");
    page[..PAGE_HEADER].copy_from_slice(&count.to_le_bytes());
    let mut at = PAGE_HEADER;
    for &(key, size) in entries {
        let end = at + size as usize;
        assert!(end <= page.len(), "entries overflow the page");
        write_entry(&mut page[at..end], key, size);
        at = end;
    }
    page[at..].fill(0);
}

/// Incrementally builds one on-flash page of object entries.
///
/// # Examples
///
/// ```
/// use nemo_engine::codec::{PageBuf, parse_entries};
///
/// let mut page = PageBuf::new(256);
/// assert!(page.try_push(1, 100));
/// assert!(page.try_push(2, 100));
/// assert!(!page.try_push(3, 100)); // no room left
/// let bytes = page.finish();
/// assert_eq!(bytes.len(), 256);
/// assert_eq!(parse_entries(&bytes).count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PageBuf {
    data: Vec<u8>,
    page_size: usize,
    count: u16,
}

impl PageBuf {
    /// Creates an empty page of `page_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the page cannot hold at least one minimal entry.
    pub fn new(page_size: usize) -> Self {
        assert!(
            page_size > PAGE_HEADER + ENTRY_HEADER as usize,
            "page too small"
        );
        let mut data = Vec::with_capacity(page_size);
        data.extend_from_slice(&0u16.to_le_bytes());
        Self {
            data,
            page_size,
            count: 0,
        }
    }

    /// Bytes still available for entries.
    pub fn remaining(&self) -> usize {
        self.page_size - self.data.len()
    }

    /// Bytes used so far (including the page header).
    pub fn used(&self) -> usize {
        self.data.len()
    }

    /// Number of entries pushed.
    pub fn entry_count(&self) -> u16 {
        self.count
    }

    /// Appends an object if it fits; returns whether it was added.
    ///
    /// # Panics
    ///
    /// Panics if `size < MIN_OBJECT_SIZE`.
    pub fn try_push(&mut self, key: u64, size: u32) -> bool {
        assert!(size >= MIN_OBJECT_SIZE, "object smaller than its header");
        if (size as usize) > self.remaining() {
            return false;
        }
        let start = self.data.len();
        self.data.resize(start + size as usize, 0);
        write_entry(&mut self.data[start..], key, size);
        self.count += 1;
        true
    }

    /// Pads to the page size and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.data[0..2].copy_from_slice(&self.count.to_le_bytes());
        self.data.resize(self.page_size, 0);
        self.data
    }

    /// Whether no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Iterates `(key, size)` pairs out of a serialized page.
///
/// Returns an empty iterator for a page that was never written (all
/// zeros).
pub fn parse_entries(page: &[u8]) -> PageEntries<'_> {
    let count = if page.len() >= 2 {
        u16::from_le_bytes([page[0], page[1]])
    } else {
        0
    };
    PageEntries {
        page,
        offset: PAGE_HEADER,
        remaining: count,
    }
}

/// Iterator over the entries of one page. See [`parse_entries`].
#[derive(Debug, Clone)]
pub struct PageEntries<'a> {
    page: &'a [u8],
    offset: usize,
    remaining: u16,
}

impl Iterator for PageEntries<'_> {
    type Item = (u64, u32);

    fn next(&mut self) -> Option<(u64, u32)> {
        if self.remaining == 0 {
            return None;
        }
        let hdr_end = self.offset + ENTRY_HEADER as usize;
        if hdr_end > self.page.len() {
            return None; // corrupt page: stop early rather than panic
        }
        let key = u64::from_le_bytes(self.page[self.offset..self.offset + 8].try_into().ok()?);
        let size = u32::from_le_bytes(self.page[self.offset + 8..hdr_end].try_into().ok()?);
        if size < ENTRY_HEADER || self.offset + size as usize > self.page.len() {
            return None;
        }
        self.offset += size as usize;
        self.remaining -= 1;
        Some((key, size))
    }
}

/// Returns the payload slice of the entry for `key` inside `page`, if
/// present — what a real cache would copy out to serve a hit.
pub fn find_payload(page: &[u8], key: u64) -> Option<&[u8]> {
    let mut offset = PAGE_HEADER;
    let count = u16::from_le_bytes([page[0], page[1]]);
    for _ in 0..count {
        let k = u64::from_le_bytes(page[offset..offset + 8].try_into().ok()?);
        let size = u32::from_le_bytes(page[offset + 8..offset + 12].try_into().ok()?) as usize;
        if k == key {
            return Some(&page[offset + 12..offset + size]);
        }
        offset += size;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_entries() {
        let mut page = PageBuf::new(4096);
        let objs = [(1u64, 100u32), (2, 250), (3, 24), (u64::MAX, 500)];
        for &(k, s) in &objs {
            assert!(page.try_push(k, s));
        }
        let bytes = page.finish();
        let parsed: Vec<_> = parse_entries(&bytes).collect();
        assert_eq!(parsed, objs);
    }

    #[test]
    fn payload_integrity() {
        let mut page = PageBuf::new(4096);
        page.try_push(0xDEAD_BEEF, 200);
        let bytes = page.finish();
        let payload = find_payload(&bytes, 0xDEAD_BEEF).expect("present");
        assert_eq!(payload.len(), 188);
        assert!(verify_payload(0xDEAD_BEEF, payload));
        assert!(!verify_payload(0xDEAD_BEE0, payload));
    }

    #[test]
    fn rejects_when_full() {
        let mut page = PageBuf::new(100);
        assert!(page.try_push(1, 50));
        assert!(page.try_push(2, 48));
        assert!(!page.try_push(3, 24));
        assert_eq!(page.entry_count(), 2);
        assert_eq!(page.used(), 100);
    }

    #[test]
    fn empty_page_parses_empty() {
        let bytes = PageBuf::new(128).finish();
        assert_eq!(parse_entries(&bytes).count(), 0);
        let zeros = vec![0u8; 128];
        assert_eq!(parse_entries(&zeros).count(), 0);
        assert!(find_payload(&zeros, 1).is_none());
    }

    #[test]
    fn fill_tracks_sizes_exactly() {
        let mut page = PageBuf::new(1000);
        page.try_push(7, 300);
        page.try_push(8, 300);
        assert_eq!(page.used(), 2 + 600);
        assert_eq!(page.remaining(), 398);
    }

    #[test]
    fn corrupt_page_stops_iteration() {
        let mut page = PageBuf::new(128);
        page.try_push(9, 50);
        let mut bytes = page.finish();
        bytes[0] = 200; // lie about the count
                        // Iterator must terminate without panicking.
        assert!(parse_entries(&bytes).count() <= 200);
    }

    #[test]
    fn fill_payload_matches_the_byte_formula() {
        let mut rng = nemo_util::Xoshiro256StarStar::seed_from_u64(61);
        let random = (0..16).map(|_| rng.next_u64());
        for key in [0, u64::MAX, 0x0102_0304_0506_0708]
            .into_iter()
            .chain(random)
        {
            for len in 0..=300 {
                let mut buf = vec![0xa5; len];
                fill_payload(key, &mut buf);
                let want: Vec<u8> = (0..len).map(|i| payload_byte(key, i)).collect();
                assert_eq!(buf, want, "key {key:#x}, {len} bytes");
            }
        }
    }

    #[test]
    fn encoded_pages_match_page_buf() {
        let entries = [(1u64, 100u32), (2, 250), (3, 12), (u64::MAX, 500)];
        for n in 0..=entries.len() {
            let mut page = PageBuf::new(1024);
            for &(k, s) in &entries[..n] {
                assert!(page.try_push(k, s));
            }
            // A reused buffer: the last page's bytes must not show.
            let mut reused = vec![0xee; 1024];
            encode_page(&mut reused, &entries[..n]);
            assert_eq!(reused, page.finish(), "{n} entries");
        }
    }

    #[test]
    #[should_panic(expected = "overflow the page")]
    fn encoding_past_the_page_panics() {
        encode_page(&mut [0u8; 100], &[(1, 50), (2, 50)]);
    }

    #[test]
    #[should_panic(expected = "smaller than its header")]
    fn undersized_object_panics() {
        PageBuf::new(128).try_push(1, 4);
    }
}
