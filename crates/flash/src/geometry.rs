//! Device geometry: pages, zones and die striping.

use std::fmt;

/// Identifier of a zone (erase unit) on a zoned device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ZoneId(pub u32);

impl fmt::Display for ZoneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zone{}", self.0)
    }
}

/// Physical address of one flash page: a zone plus a page offset inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageAddr {
    /// Zone index.
    pub zone: u32,
    /// Page offset within the zone, starting at 0.
    pub page: u32,
}

impl PageAddr {
    /// Creates an address from zone and in-zone page offset.
    pub const fn new(zone: u32, page: u32) -> Self {
        Self { zone, page }
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "z{}p{}", self.zone, self.page)
    }
}

/// Static geometry of a simulated flash device.
///
/// # Examples
///
/// ```
/// use nemo_flash::Geometry;
/// // 4 KB pages, 1024 pages per zone (4 MB zones), 128 zones, 8 dies.
/// let g = Geometry::new(4096, 1024, 128, 8);
/// assert_eq!(g.zone_bytes(), 4 << 20);
/// assert_eq!(g.total_bytes(), 512 << 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    page_size: u32,
    pages_per_zone: u32,
    zone_count: u32,
    dies: u32,
}

impl Geometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(page_size: u32, pages_per_zone: u32, zone_count: u32, dies: u32) -> Self {
        assert!(page_size > 0, "page_size must be positive");
        assert!(pages_per_zone > 0, "pages_per_zone must be positive");
        assert!(zone_count > 0, "zone_count must be positive");
        assert!(dies > 0, "dies must be positive");
        Self {
            page_size,
            pages_per_zone,
            zone_count,
            dies,
        }
    }

    /// Page size in bytes (the paper uses 4 KB throughout).
    pub const fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Pages per zone (erase unit).
    pub const fn pages_per_zone(&self) -> u32 {
        self.pages_per_zone
    }

    /// Number of zones on the device.
    pub const fn zone_count(&self) -> u32 {
        self.zone_count
    }

    /// Number of independent dies (parallel service units).
    pub const fn dies(&self) -> u32 {
        self.dies
    }

    /// Bytes in one zone.
    pub const fn zone_bytes(&self) -> u64 {
        self.page_size as u64 * self.pages_per_zone as u64
    }

    /// Total pages on the device.
    pub const fn total_pages(&self) -> u64 {
        self.pages_per_zone as u64 * self.zone_count as u64
    }

    /// Total bytes on the device.
    pub const fn total_bytes(&self) -> u64 {
        self.zone_bytes() * self.zone_count as u64
    }

    /// The die that services a given page.
    ///
    /// Pages are striped round-robin within a zone and zones start on
    /// staggered dies, matching how real zoned devices spread a zone over
    /// the die array.
    pub const fn die_of(&self, addr: PageAddr) -> u32 {
        (addr.zone.wrapping_add(addr.page)) % self.dies
    }

    /// Flat page index of an address (for table lookups).
    pub const fn flat_index(&self, addr: PageAddr) -> u64 {
        addr.zone as u64 * self.pages_per_zone as u64 + addr.page as u64
    }

    /// Returns `true` if the address is inside the device.
    pub const fn contains(&self, addr: PageAddr) -> bool {
        addr.zone < self.zone_count && addr.page < self.pages_per_zone
    }
}

/// The standard comparison geometry: 4 KB pages, 1 MB zones, 8 dies.
///
/// # Panics
///
/// Panics if `flash_mb == 0`.
pub fn standard_geometry(flash_mb: u32) -> Geometry {
    assert!(flash_mb > 0, "flash size must be positive");
    Geometry::new(4096, 256, flash_mb, 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        let g = Geometry::new(4096, 256, 16, 8);
        assert_eq!(g.zone_bytes(), 1 << 20);
        assert_eq!(g.total_pages(), 4096);
        assert_eq!(g.total_bytes(), 16 << 20);
    }

    #[test]
    fn die_striping_covers_all_dies() {
        let g = Geometry::new(4096, 64, 4, 8);
        let mut seen = [false; 8];
        for p in 0..64 {
            seen[g.die_of(PageAddr::new(0, p)) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zones_start_staggered() {
        let g = Geometry::new(4096, 64, 4, 8);
        assert_ne!(g.die_of(PageAddr::new(0, 0)), g.die_of(PageAddr::new(1, 0)));
    }

    #[test]
    fn flat_index_and_contains() {
        let g = Geometry::new(4096, 100, 10, 2);
        assert_eq!(g.flat_index(PageAddr::new(3, 7)), 307);
        assert!(g.contains(PageAddr::new(9, 99)));
        assert!(!g.contains(PageAddr::new(10, 0)));
        assert!(!g.contains(PageAddr::new(0, 100)));
    }

    #[test]
    #[should_panic(expected = "zone_count must be positive")]
    fn zero_zone_count_panics() {
        Geometry::new(4096, 1, 0, 1);
    }
}
