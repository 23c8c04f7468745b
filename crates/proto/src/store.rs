//! Wire-key mapping and the object-metadata side table.
//!
//! The cache engines under this front-end are *placement simulators*:
//! they track object keys (`u64`) and sizes, not payload bytes. The
//! wire layer therefore (a) maps arbitrary byte-string keys onto the
//! engines' `u64` key space, and (b) keeps a small side table of
//! wire-visible metadata — flags, value length, cas unique — so a get
//! hit can be answered with a correctly framed `VALUE` block. The value
//! bytes themselves are synthesized deterministically from the key;
//! the engine, not this table, remains the source of truth for
//! presence: a hit with no metadata (an object the server never saw
//! `set`, or one whose `set` has not rendered its reply yet) is answered
//! as a miss, since its flags and length are unknown, and metadata of
//! evicted objects is garbage-collected when the engine reports the
//! miss.
//!
//! A `set` records its entry when its reply is rendered, in request
//! order: after its engine put ran, and only if the shard served it. So
//! an earlier `get` of the key in the same wave renders with the version
//! it found, and a set's cas is always above the floor of any lookup
//! that ran before its put ([`MetaStore::forget`]).

use nemo_service::shard_of;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Maps wire key bytes to the engines' `u64` key space.
///
/// Keys that are canonical decimal `u64`s (no leading zeros, in range)
/// map to their numeric value — so a load generator that encodes
/// trace keys in decimal round-trips them exactly, which is what makes
/// the wire-vs-in-process parity tests byte-identical. Anything else
/// maps through FNV-1a. The two ranges can collide in principle;
/// callers wanting collision-freedom should stick to one key style per
/// deployment, as the parity harness does.
pub fn map_key(key: &[u8]) -> u64 {
    if !key.is_empty()
        && key.len() <= 20
        && key.iter().all(|b| b.is_ascii_digit())
        && (key.len() == 1 || key[0] != b'0')
    {
        let mut v: u64 = 0;
        let mut ok = true;
        for &b in key {
            match v
                .checked_mul(10)
                .and_then(|v| v.checked_add((b - b'0') as u64))
            {
                Some(next) => v = next,
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            return v;
        }
    }
    // FNV-1a 64.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Wire-visible metadata of one stored object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjMeta {
    /// Client-opaque flags from the `set`.
    pub flags: u32,
    /// Value length in bytes (the `set`'s data block).
    pub vlen: u32,
    /// cas unique, monotone across the server.
    pub cas: u64,
}

/// Sharded metadata side table. Sharded by the same routing hash as the
/// cache fleet, so contention mirrors the fleet's natural partitioning.
#[derive(Debug)]
pub struct MetaStore {
    shards: Vec<Mutex<HashMap<u64, ObjMeta>>>,
    cas_counter: AtomicU64,
}

impl MetaStore {
    /// A table with `shards` lock stripes (usually the fleet's shard
    /// count).
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "meta store needs at least one stripe");
        Self {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            cas_counter: AtomicU64::new(0),
        }
    }

    fn stripe(&self, key: u64) -> &Mutex<HashMap<u64, ObjMeta>> {
        &self.shards[shard_of(key, self.shards.len())]
    }

    /// Records a set, assigning the next cas unique, and returns it.
    pub fn insert(&self, key: u64, flags: u32, vlen: u32) -> u64 {
        let cas = self.cas_counter.fetch_add(1, Ordering::Relaxed) + 1;
        self.stripe(key)
            .lock()
            .expect("meta stripe poisoned")
            .insert(key, ObjMeta { flags, vlen, cas });
        cas
    }

    /// Metadata for a key the engine reported as a hit.
    pub fn get(&self, key: u64) -> Option<ObjMeta> {
        self.stripe(key)
            .lock()
            .expect("meta stripe poisoned")
            .get(&key)
            .copied()
    }

    /// The newest cas unique handed out so far. A connection reads it
    /// once per wave, before running any of it, as the floor for that
    /// wave's [`Self::forget`] calls. Relaxed is enough: a stale read
    /// only lowers the floor, which makes `forget` keep an entry it
    /// could have collected.
    pub fn cas_floor(&self) -> u64 {
        self.cas_counter.load(Ordering::Relaxed)
    }

    /// Garbage-collects metadata after the engine reported a miss (the
    /// object was evicted, so its wire metadata is dead) — unless the
    /// entry is newer than `floor`: a `set` whose put ran after the
    /// lookup wrote it (entries are recorded after their put), and the
    /// miss says nothing about that version.
    pub fn forget(&self, key: u64, floor: u64) {
        let mut stripe = self.stripe(key).lock().expect("meta stripe poisoned");
        if stripe.get(&key).is_some_and(|meta| meta.cas <= floor) {
            stripe.remove(&key);
        }
    }

    /// Live metadata entries across all stripes.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("meta stripe poisoned").len())
            .sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Fills `out` with `len` bytes of the deterministic value pattern for
/// `key` — what the server returns in `VALUE` blocks. Clients never
/// validate payload contents (the engines store placements, not bytes),
/// but a deterministic pattern keeps responses reproducible for tests.
///
/// Byte `i` is `pattern[i % 8] + i / 8` (wrapping) over the key's eight
/// little-endian bytes. One step writes a whole repeat of the pattern:
/// the eight byte-wise sums are one `u64` addition with the carries
/// between bytes cut (add the low seven bits of every byte, then put
/// the top bits back with an xor).
pub fn synth_value(out: &mut Vec<u8>, key: u64, len: usize) {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let word = |step: u64| ((key & LOW7) + (step & LOW7)) ^ ((key ^ step) & !LOW7);
    let start = out.len();
    out.resize(start + len, 0);
    let mut repeats = out[start..].chunks_exact_mut(8);
    // `i / 8` in every byte; wraps with the bytes it is added to.
    let mut step: u64 = 0;
    for repeat in &mut repeats {
        repeat.copy_from_slice(&word(step).to_le_bytes());
        step = step.wrapping_add(0x0101_0101_0101_0101);
    }
    let tail = repeats.into_remainder();
    tail.copy_from_slice(&word(step).to_le_bytes()[..tail.len()]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_keys_map_numerically() {
        assert_eq!(map_key(b"0"), 0);
        assert_eq!(map_key(b"42"), 42);
        assert_eq!(map_key(b"18446744073709551615"), u64::MAX);
    }

    #[test]
    fn non_canonical_decimal_hashes() {
        // Leading zero, overflow, and non-digit keys all take the hash
        // path — and none of them may collide with small numerics here.
        assert_ne!(map_key(b"042"), 42);
        assert_ne!(map_key(b"18446744073709551616"), 0);
        assert_ne!(map_key(b"alpha"), map_key(b"beta"));
        assert_eq!(map_key(b"alpha"), map_key(b"alpha"));
    }

    #[test]
    fn meta_store_roundtrip_and_gc() {
        let store = MetaStore::new(4);
        let cas1 = store.insert(7, 3, 100);
        let cas2 = store.insert(7, 4, 200);
        assert!(cas2 > cas1, "cas uniques are monotone");
        let meta = store.get(7).unwrap();
        assert_eq!((meta.flags, meta.vlen, meta.cas), (4, 200, cas2));
        // A miss from a wave dispatched before the second set must not
        // collect the newer entry; one dispatched after it does.
        store.forget(7, cas1);
        assert_eq!(store.get(7), Some(meta));
        store.forget(7, store.cas_floor());
        assert!(store.get(7).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn synth_value_matches_the_byte_formula() {
        for key in [
            0,
            99,
            0x0102_0304_0506_0708,
            u64::MAX - 3,
            0xfffe_fdfc_fbfa_f9f8,
        ] {
            let pattern = key.to_le_bytes();
            for len in 0..=67 {
                let mut out = vec![0xaa, 0xbb, 0xcc];
                synth_value(&mut out, key, len);
                let expect: Vec<u8> = (0..len)
                    .map(|i| pattern[i % 8].wrapping_add((i / 8) as u8))
                    .collect();
                assert_eq!(&out[..3], [0xaa, 0xbb, 0xcc], "key {key} len {len}");
                assert_eq!(&out[3..], expect, "key {key} len {len}");
            }
        }
        // The step counter wraps with the byte it is added to.
        let mut long = Vec::new();
        synth_value(&mut long, 7, 8 * 300);
        assert_eq!(long[8 * 256], 7);
        assert_eq!(long[8 * 299], 7u8.wrapping_add(43));
    }

    #[test]
    fn synth_value_is_deterministic_and_sized() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        synth_value(&mut a, 99, 37);
        synth_value(&mut b, 99, 37);
        assert_eq!(a, b);
        assert_eq!(a.len(), 37);
        let mut c = Vec::new();
        synth_value(&mut c, 100, 37);
        assert_ne!(a, c, "different keys give different patterns");
    }
}
