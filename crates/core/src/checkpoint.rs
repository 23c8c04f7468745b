//! Binary serialization for warm-restart checkpoints.
//!
//! A checkpoint is a self-describing snapshot of the engine's in-memory
//! state: `[8 B magic "NEMOCKP4"][4 B CRC32 over payload][payload]`. The
//! payload is written and read with the little-endian primitives below;
//! every structure serializes itself field-by-field (no reflection, no
//! external dependencies), and the reader treats any truncation,
//! out-of-range length or trailing garbage as corruption. Corruption is
//! reported as an error string — recovery responds by falling back to a
//! zone scan, never by refusing to open the cache.

use nemo_util::crc32::crc32;

/// Checkpoint magic, versioned in the last byte. Version 1 carried a
/// per-group filter over admitted keys and three more fingerprint words.
/// Version 2 stored the building group filter by filter, and pointed at
/// index-pool pages that held their PBFG's filters back to back rather
/// than bit-sliced; its pool cannot be queried, so it must rescan.
/// Version 3 stored a Bloom filter per set with every buffered SG; an SG
/// is now indexed from its pages when it flushes, so it carries none.
pub(crate) const MAGIC: &[u8; 8] = b"NEMOCKP4";

const HEADER: usize = MAGIC.len() + 4;

/// Little-endian payload writer; seals the header CRC in [`Writer::finish`].
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&[0u8; 4]); // CRC placeholder
        Self { buf }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Stamps the payload CRC and returns the finished checkpoint.
    pub fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf[HEADER..]);
        self.buf[MAGIC.len()..HEADER].copy_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// Payload reader; every accessor fails cleanly on truncation.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Validates magic and CRC, then positions the reader at the payload.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, String> {
        if bytes.len() < HEADER {
            return Err(format!("checkpoint too short ({} bytes)", bytes.len()));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err("bad checkpoint magic".into());
        }
        let stored = u32::from_le_bytes(bytes[MAGIC.len()..HEADER].try_into().expect("4 bytes"));
        let actual = crc32(&bytes[HEADER..]);
        if stored != actual {
            return Err(format!(
                "checkpoint CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"
            ));
        }
        Ok(Self {
            buf: bytes,
            pos: HEADER,
        })
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err(format!(
                "checkpoint truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A `u32` length that must be plausible against the remaining bytes,
    /// so corrupt counts fail as corruption instead of huge allocations.
    pub fn len(&mut self, elem_bytes: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(elem_bytes.max(1)) > remaining {
            return Err(format!(
                "checkpoint corrupt: length {n} exceeds remaining {remaining} bytes"
            ));
        }
        Ok(n)
    }

    /// Fails if payload bytes remain unread — a length-field corruption
    /// that happened to parse must not go unnoticed.
    pub fn done(&self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "checkpoint corrupt: {} trailing bytes",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.bytes(b"raw");
        let bytes = w.finish();

        let mut r = Reader::parse(&bytes).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.take(3).unwrap(), b"raw");
        r.done().unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let mut w = Writer::new();
        w.u64(123);
        let mut bytes = w.finish();
        // Any payload bit flip must fail the CRC.
        bytes[HEADER + 3] ^= 0x10;
        assert!(Reader::parse(&bytes).unwrap_err().contains("CRC"));
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Reader::parse(&bad).unwrap_err().contains("magic"));
        // Truncation.
        assert!(Reader::parse(&bytes[..6]).unwrap_err().contains("short"));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = Writer::new();
        w.u32(1);
        w.u32(2);
        let bytes = w.finish();
        let mut r = Reader::parse(&bytes).unwrap();
        r.u32().unwrap();
        assert!(r.done().unwrap_err().contains("trailing"));
        r.u32().unwrap();
        r.done().unwrap();
    }

    #[test]
    fn absurd_length_rejected_without_allocating() {
        let mut w = Writer::new();
        w.u32(u32::MAX); // a "length" with no bytes behind it
        let bytes = w.finish();
        let mut r = Reader::parse(&bytes).unwrap();
        assert!(r.len(8).unwrap_err().contains("exceeds"));
    }
}
