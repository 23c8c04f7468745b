//! On-flash object entry format shared by every engine.
//!
//! A flash page is *directory-first*: a little-endian `u16` entry count,
//! then one `[key: u64][total_size: u32]` directory slot per entry, then
//! zeros, then the payloads packed from the page end, the first entry's
//! payload last. `total_size` covers the 12-byte slot plus the payload,
//! so a page of entries uses `2 + Σ total_size` bytes, which is the
//! packing model behind the paper's fill-rate arithmetic. Objects never
//! cross page boundaries (a set *is* one page in set-associative layouts;
//! the log baselines fill pages greedily).
//!
//! A lookup ([`find_payload`]) walks the directory only: the slots are
//! contiguous, so finding one key among a page's entries touches a few
//! cache lines, not every entry of the page. [`encode_page`] is the one
//! writer and a bounds-checked directory walk the one reader.
//!
//! Payload bytes are a deterministic function of the key, so integration
//! tests can verify end-to-end data integrity through flush, migration,
//! write-back and GC without storing the original values.

/// Bytes of the per-entry directory slot (`key` + `size`).
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

/// Encodes `entries` as one page into `page`: the entry count, the
/// directory of `(key, size)` pairs in order, zeros, then the payloads
/// packed from the page end (the first entry's payload last). The one
/// page writer: [`PageBuf::finish`] encodes through it, and a caller that
/// encodes many pages can reuse one buffer.
///
/// # Panics
///
/// Panics if the entries do not fit `page`, there are more than
/// `u16::MAX` of them, or one is smaller than its header.
pub fn encode_page(page: &mut [u8], entries: &[(u64, u32)]) {
    let count = u16::try_from(entries.len()).expect("entry count fits the page header");
    let dir_end = PAGE_HEADER + entries.len() * ENTRY_HEADER as usize;
    let used = PAGE_HEADER
        + entries
            .iter()
            .map(|&(_, size)| {
                assert!(size >= MIN_OBJECT_SIZE, "object smaller than its header");
                size as usize
            })
            .sum::<usize>();
    assert!(used <= page.len(), "entries overflow the page");
    let (dir, payloads) = page.split_at_mut(dir_end);
    dir[..PAGE_HEADER].copy_from_slice(&count.to_le_bytes());
    let mut end = payloads.len();
    for (slot, &(key, size)) in dir[PAGE_HEADER..]
        .chunks_exact_mut(ENTRY_HEADER as usize)
        .zip(entries)
    {
        slot[..8].copy_from_slice(&key.to_le_bytes());
        slot[8..].copy_from_slice(&size.to_le_bytes());
        let start = end - (size - ENTRY_HEADER) as usize;
        fill_payload(key, &mut payloads[start..end]);
        end = start;
    }
    payloads[..end].fill(0);
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
    entries: Vec<(u64, u32)>,
    page_size: usize,
    used: usize,
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
        Self {
            entries: Vec::new(),
            page_size,
            used: PAGE_HEADER,
        }
    }

    /// Bytes still available for entries.
    pub fn remaining(&self) -> usize {
        self.page_size - self.used
    }

    /// Bytes used so far (including the page header).
    pub fn used(&self) -> usize {
        self.used
    }

    /// Number of entries pushed.
    pub fn entry_count(&self) -> u16 {
        self.entries.len() as u16
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
        self.used += size as usize;
        self.entries.push((key, size));
        true
    }

    /// Encodes the page ([`encode_page`]) and returns its bytes.
    pub fn finish(self) -> Vec<u8> {
        let mut page = vec![0; self.page_size];
        encode_page(&mut page, &self.entries);
        page
    }

    /// Whether no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Iterates `(key, size)` pairs out of a serialized page.
///
/// Returns an empty iterator for a page that was never written (all
/// zeros), and stops at the first entry a corrupt page cannot hold.
pub fn parse_entries(page: &[u8]) -> PageEntries<'_> {
    PageEntries {
        dir: Directory::new(page),
    }
}

/// Iterator over the entries of one page. See [`parse_entries`].
#[derive(Debug, Clone)]
pub struct PageEntries<'a> {
    dir: Directory<'a>,
}

impl Iterator for PageEntries<'_> {
    type Item = (u64, u32);

    fn next(&mut self) -> Option<(u64, u32)> {
        self.dir.next().map(|(key, size, _)| (key, size))
    }
}

/// Returns the payload slice of the entry for `key` inside `page`, if
/// present — what a real cache would copy out to serve a hit. Reads the
/// directory only, up to the key's entry, and then nothing but the
/// returned slice.
pub fn find_payload(page: &[u8], key: u64) -> Option<&[u8]> {
    let (_, _, payload) = Directory::new(page).find(|&(k, _, _)| k == key)?;
    Some(&page[payload])
}

/// The one bounds-checked walk of a page's directory behind
/// [`parse_entries`] and [`find_payload`]: yields each entry's key, size
/// and payload range, and ends at the first entry that does not fit —
/// a directory that leaves the page, a size below [`ENTRY_HEADER`], or
/// a payload that would run into the directory.
#[derive(Debug, Clone)]
struct Directory<'a> {
    page: &'a [u8],
    /// Offset of the next directory slot.
    slot: usize,
    /// Where the directory ends, as the count claims it.
    dir_end: usize,
    /// Start of the last payload (the page end before the first).
    end: usize,
}

impl<'a> Directory<'a> {
    fn new(page: &'a [u8]) -> Self {
        let count = match page {
            [lo, hi, ..] => u16::from_le_bytes([*lo, *hi]),
            _ => 0,
        };
        Self {
            page,
            slot: PAGE_HEADER,
            dir_end: PAGE_HEADER + count as usize * ENTRY_HEADER as usize,
            end: page.len(),
        }
    }
}

impl Iterator for Directory<'_> {
    type Item = (u64, u32, std::ops::Range<usize>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.slot >= self.dir_end {
            return None;
        }
        let entry = self
            .page
            .get(self.slot..self.slot + ENTRY_HEADER as usize)?;
        let key = u64::from_le_bytes(entry[..8].try_into().ok()?);
        let size = u32::from_le_bytes(entry[8..].try_into().ok()?);
        // A corrupt entry ends the walk rather than panic.
        let start = self
            .end
            .checked_sub(size.checked_sub(ENTRY_HEADER)? as usize)
            .filter(|&start| start >= self.dir_end)?;
        let payload = start..self.end;
        self.end = start;
        self.slot += ENTRY_HEADER as usize;
        Some((key, size, payload))
    }
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

    /// A page of `entries` in a `page_size` buffer that held other bytes.
    fn encoded(page_size: usize, entries: &[(u64, u32)]) -> Vec<u8> {
        let mut page = vec![0xee; page_size];
        encode_page(&mut page, entries);
        page
    }

    #[test]
    fn an_entry_smaller_than_its_header_ends_a_lookup() {
        // One entry holding the looked-up key but claiming 4 bytes: the
        // lookup must miss, not slice past the entry.
        let mut page = vec![0u8; 128];
        page[..2].copy_from_slice(&1u16.to_le_bytes());
        page[2..10].copy_from_slice(&7u64.to_le_bytes());
        page[10..14].copy_from_slice(&4u32.to_le_bytes());
        assert_eq!(find_payload(&page, 7), None);
        assert_eq!(parse_entries(&page).count(), 0);
    }

    #[test]
    fn corrupt_directories_end_the_walk() {
        let entries = [(1u64, 40u32), (2, 30), (3, 20)];
        let page = encoded(128, &entries);
        let set_u16 = |at: usize, v: u16| {
            let mut p = page.clone();
            p[at..at + 2].copy_from_slice(&v.to_le_bytes());
            p
        };
        let set_u32 = |at: usize, v: u32| {
            let mut p = page.clone();
            p[at..at + 4].copy_from_slice(&v.to_le_bytes());
            p
        };
        // A count whose directory leaves the page reads nothing.
        for count in [11, 200, u16::MAX] {
            let lying = set_u16(0, count);
            assert_eq!(parse_entries(&lying).count(), 0, "count {count}");
            assert_eq!(find_payload(&lying, 1), None);
        }
        // A size below the slot ends the walk at that entry.
        let small = set_u32(2 + 12 + 8, 11);
        assert_eq!(parse_entries(&small).collect::<Vec<_>>(), entries[..1]);
        assert_eq!(find_payload(&small, 3), None);
        // So does a payload that would run into the directory.
        let big = set_u32(2 + 2 * 12 + 8, 100);
        assert_eq!(parse_entries(&big).collect::<Vec<_>>(), entries[..2]);
        assert_eq!(find_payload(&big, 3), None);
        // And a count that claims more slots than the payloads leave room
        // for: the directory runs into the payloads.
        // Here the payloads start at 100, 82 and 74, and seven slots end
        // at 86.
        let seven = set_u16(0, 7);
        assert_eq!(parse_entries(&seven).collect::<Vec<_>>(), entries[..1]);
        assert_eq!(find_payload(&seven, 2), None);
        // Short and empty buffers parse empty.
        for short in [&[][..], &[1][..], &page[..2]] {
            assert_eq!(parse_entries(short).count(), 0);
            assert_eq!(find_payload(short, 1), None);
        }
    }

    proptest::proptest! {
        /// For random entry lists up to capacity, the page is one
        /// layout: `encode_page` and `PageBuf` write the same bytes, the
        /// directory returns the entries, and every lookup's slice is the
        /// key's payload. Overwriting every payload byte changes no
        /// answer, so a lookup reads the directory and nothing else.
        #[test]
        fn the_directory_alone_answers_lookups(
            sizes in proptest::collection::vec(12u32..600, 0..40),
            page_size in 64usize..4097,
            seed in proptest::arbitrary::any::<u64>(),
            fill in proptest::arbitrary::any::<u8>()
        ) {
            let mut rng = nemo_util::Xoshiro256StarStar::seed_from_u64(seed);
            let mut buf = PageBuf::new(page_size);
            let mut entries = Vec::new();
            for size in sizes {
                let key = rng.next_u64();
                if buf.try_push(key, size) {
                    entries.push((key, size));
                }
            }
            let page = encoded(page_size, &entries);
            proptest::prop_assert_eq!(&page, &buf.finish());
            proptest::prop_assert_eq!(parse_entries(&page).collect::<Vec<_>>(), entries.clone());
            let range = |p: &[u8], key| {
                find_payload(p, key).map(|s| s.as_ptr() as usize - p.as_ptr() as usize..s.len())
            };
            let dir_end = PAGE_HEADER + entries.len() * ENTRY_HEADER as usize;
            let mut scribbled = page.clone();
            scribbled[dir_end..].fill(fill);
            proptest::prop_assert_eq!(
                parse_entries(&scribbled).collect::<Vec<_>>(),
                entries.clone()
            );
            for &(key, size) in &entries {
                let payload = find_payload(&page, key).expect("pushed");
                proptest::prop_assert_eq!(payload.len(), (size - ENTRY_HEADER) as usize);
                proptest::prop_assert!(verify_payload(key, payload));
                proptest::prop_assert_eq!(range(&page, key), range(&scribbled, key));
            }
            let absent = rng.next_u64();
            if entries.iter().all(|&(k, _)| k != absent) {
                proptest::prop_assert_eq!(range(&scribbled, absent), None);
            }
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
