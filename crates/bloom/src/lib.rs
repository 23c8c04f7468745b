//! Bloom filters and the bit-sliced page layout used by Nemo's PBFG index.
//!
//! Nemo replaces exact per-object indexing with one Bloom filter per
//! (set-group, set) pair; all filters that share an intra-SG offset form a
//! *parallel bloom filter group* (PBFG) that is queried in one pass to find
//! candidate set-groups (paper §4.3). This crate provides:
//!
//! * [`BloomFilter`] — a fixed-size filter with double hashing,
//! * [`SlicedLayout`] — the filters of one PBFG stored bit-sliced, so
//!   that one bit position of every filter is one row,
//! * [`ProbeTable`] — one key's probe rows, computed once and tested
//!   against every filter of a PBFG with one load per probe,
//! * [`sizing`] — the standard bits-per-key / hash-count math the paper
//!   quotes (14.4 bits/obj at 0.1 % FPR, 9.6 bits/obj at 1 %),
//! * [`PackedLayout`] — how many set-level filters fit per flash page, so a
//!   whole PBFG can be fetched with a single page read (paper Fig. 10).
//!
//! # Examples
//!
//! ```
//! use nemo_bloom::BloomFilter;
//!
//! let mut bf = BloomFilter::for_items(40, 0.001);
//! bf.insert(12345);
//! assert!(bf.contains(12345));           // never a false negative
//! assert_eq!(bf.serialized_len(), 72);   // 576 bits, as in the paper
//! ```

mod filter;
pub mod sizing;

pub use filter::{BloomFilter, ProbeTable, SlicedLayout, MAX_PROBES};

/// How set-level Bloom filters are packed into flash pages.
///
/// A PBFG for intra-SG offset `s` consists of the set-level filters for
/// offset `s` from each SG covered by one index group. Storing all filters
/// of one PBFG in one page-sized region ([`SlicedLayout`]) means
/// retrieving a PBFG costs exactly one page read (paper Fig. 10(b),
/// "Packed BF").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedLayout {
    /// Flash page size in bytes.
    pub page_size: u32,
    /// Serialized size of one set-level filter in bytes.
    pub filter_bytes: u32,
}

impl PackedLayout {
    /// Creates a layout.
    ///
    /// # Panics
    ///
    /// Panics if a single filter does not fit in a page.
    pub fn new(page_size: u32, filter_bytes: u32) -> Self {
        assert!(
            filter_bytes > 0 && filter_bytes <= page_size,
            "filter ({filter_bytes} B) must fit in a page ({page_size} B)"
        );
        Self {
            page_size,
            filter_bytes,
        }
    }

    /// Number of set-level filters that fit in one page — the natural
    /// number of SGs per index group (paper: 72 B filters -> 50 per 4 KB
    /// page, hence the 50:1 SG : index-group ratio in Table 3).
    pub fn filters_per_page(&self) -> u32 {
        self.page_size / self.filter_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_packing_numbers() {
        // 40 objects/set at 0.1% FPR -> 576 bits = 72 B, 50+ per 4 KB page.
        let bf = BloomFilter::for_items(40, 0.001);
        let layout = PackedLayout::new(4096, bf.serialized_len() as u32);
        assert!(
            layout.filters_per_page() >= 50,
            "got {}",
            layout.filters_per_page()
        );
    }

    #[test]
    #[should_panic(expected = "must fit in a page")]
    fn oversized_filter_panics() {
        PackedLayout::new(4096, 8192);
    }
}
