//! Property-based tests (proptest) over the core data structures and
//! invariants that every experiment relies on.
//!
//! Case counts are capped per block (`ProptestConfig::with_cases`) so the
//! whole suite stays well inside the tier-1 `cargo test -q` time budget
//! (~2 minutes). The deep generative sweeps live at the bottom behind
//! `#[ignore]`; run them explicitly with:
//!
//! ```text
//! cargo test --test property_based -- --ignored
//! ```

use nemo_repro::baselines::{LogCache, LogCacheConfig};
use nemo_repro::bloom::BloomFilter;
use nemo_repro::core::{MemSg, Nemo, NemoConfig};
use nemo_repro::engine::codec::{self, PageBuf};
use nemo_repro::engine::{CacheEngine, EngineStats, MemoryBreakdown};
use nemo_repro::flash::{Geometry, LatencyModel, Nanos, SimFlash, ZoneId, ZonedFlash};
use nemo_repro::metrics::LatencyHistogram;
use nemo_repro::service::shard_of;
use nemo_repro::trace::ZipfSampler;
use nemo_repro::util::Xoshiro256StarStar;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bloom filters never produce false negatives, for any key set.
    #[test]
    fn bloom_has_no_false_negatives(keys in prop::collection::hash_set(any::<u64>(), 1..200)) {
        let mut bf = BloomFilter::for_items(keys.len() as u64, 0.01);
        for &k in &keys {
            bf.insert(k);
        }
        for &k in &keys {
            prop_assert!(bf.contains(k));
        }
        // And serialization preserves membership.
        let mut buf = vec![0u8; bf.serialized_len()];
        bf.write_bytes(&mut buf);
        let back = BloomFilter::from_bytes(&buf, bf.hash_count());
        for &k in &keys {
            prop_assert!(back.contains(k));
        }
    }

    /// Page codec round-trips arbitrary object batches that fit.
    #[test]
    fn page_codec_roundtrip(
        objs in prop::collection::vec((any::<u64>(), 12u32..400), 1..12)
    ) {
        let mut page = PageBuf::new(4096);
        let mut expected = Vec::new();
        for (k, s) in objs {
            if expected.iter().any(|&(ek, _)| ek == k) {
                continue;
            }
            if page.try_push(k, s) {
                expected.push((k, s));
            }
        }
        let bytes = page.finish();
        let parsed: Vec<(u64, u32)> = codec::parse_entries(&bytes).collect();
        prop_assert_eq!(parsed, expected.clone());
        for (k, _) in expected {
            let payload = codec::find_payload(&bytes, k).expect("entry present");
            prop_assert!(codec::verify_payload(k, payload));
        }
    }

    /// Flash device: whatever is appended reads back identically, and
    /// accounting matches the bytes moved.
    #[test]
    fn flash_append_read_roundtrip(
        pages in prop::collection::vec(prop::collection::vec(any::<u8>(), 512..513), 1..8)
    ) {
        let geom = Geometry::new(512, 16, 4, 2);
        let mut dev = SimFlash::with_latency(geom, LatencyModel::zero());
        let mut addrs = Vec::new();
        for p in &pages {
            let (addr, _) = dev.append(ZoneId(0), p, Nanos::ZERO).expect("append");
            addrs.push(addr);
        }
        for (addr, p) in addrs.iter().zip(&pages) {
            let (back, _) = dev.read_pages(*addr, 1, Nanos::ZERO).expect("read");
            prop_assert_eq!(&back, p);
        }
        prop_assert_eq!(dev.stats().pages_written, pages.len() as u64);
        prop_assert_eq!(dev.stats().bytes_written, (pages.len() * 512) as u64);
    }

    /// MemSg bookkeeping: byte/object counters always equal the sum over
    /// sets, under arbitrary insert/sacrifice interleavings.
    #[test]
    fn memsg_counters_are_consistent(
        ops in prop::collection::vec((any::<u64>(), 24u32..600, any::<bool>()), 1..300)
    ) {
        let mut sg = MemSg::new(8, 4096);
        for (key, size, sacrifice) in ops {
            if sacrifice {
                let set = MemSg::set_index_of(key, 8);
                sg.sacrifice_at(set);
            } else {
                sg.insert(key, size);
            }
            let bytes: u64 = (0..8u32)
                .map(|s| sg.set(s).entries().iter().map(|&(_, sz)| sz as u64).sum::<u64>())
                .sum();
            let objects: u64 = (0..8u32).map(|s| sg.set(s).len() as u64).sum();
            prop_assert_eq!(bytes, sg.byte_count());
            prop_assert_eq!(objects, sg.object_count());
        }
    }

    /// Zipf sampler always returns ranks in range, for any (n, alpha).
    #[test]
    fn zipf_stays_in_range(n in 1u64..100_000, alpha in 0.2f64..2.5, seed in any::<u64>()) {
        let zipf = ZipfSampler::new(n, alpha);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..100 {
            let k = zipf.sample(&mut rng);
            prop_assert!((1..=n).contains(&k));
        }
    }

    /// Histogram percentiles are monotone in the quantile, and bounded by
    /// min/max, for arbitrary sample sets.
    #[test]
    fn histogram_percentiles_monotone(samples in prop::collection::vec(any::<u32>(), 1..500)) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s as u64);
        }
        let mut prev = 0u64;
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let v = h.percentile(q);
            prop_assert!(v >= prev, "percentiles must be monotone");
            prop_assert!(v <= h.max());
            prev = v;
        }
    }
}

proptest! {
    // Fewer cases for the whole-engine property — each case replays a
    // few thousand operations.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Nemo end-to-end: any put is immediately gettable, and engine
    /// accounting never goes inconsistent.
    #[test]
    fn nemo_put_then_get_always_hits(seed in any::<u64>()) {
        let mut cfg = NemoConfig::new(Geometry::new(4096, 32, 16, 4));
        cfg.flush_threshold = 4;
        cfg.expected_objects_per_set = 16;
        cfg.index_group_sgs = 4;
        let mut nemo = Nemo::new(cfg);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for i in 0..3000u64 {
            let key = rng.next_u64();
            let size = 24 + (rng.next_below(400)) as u32;
            nemo.put(key, size, Nanos::ZERO);
            prop_assert!(
                nemo.get(key, Nanos::ZERO).hit,
                "op {i}: object must be readable right after insertion"
            );
        }
        let s = nemo.stats();
        prop_assert!(s.hits <= s.gets);
        prop_assert_eq!(s.nand_bytes_written, s.flash_bytes_written);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `EngineStats::merge` algebra on arbitrary counter values: the
    /// default is the identity, merge commutes, associates, and every
    /// counter is the plain sum.
    #[test]
    fn stats_merge_algebra(vals in prop::collection::vec(any::<u32>(), 21..22)) {
        let build = |v: &[u32]| EngineStats {
            gets: v[0] as u64,
            hits: v[1] as u64,
            puts: v[2] as u64,
            logical_bytes: v[3] as u64,
            flash_bytes_written: v[4] as u64,
            nand_bytes_written: v[5] as u64,
            flash_bytes_read: v[6] as u64,
            ..Default::default()
        };
        let a = build(&vals[0..7]);
        let b = build(&vals[7..14]);
        let c = build(&vals[14..21]);
        prop_assert_eq!(a.merge(&EngineStats::default()), a);
        prop_assert_eq!(a.merge(&b), b.merge(&a));
        prop_assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        let m = a.merge(&b);
        prop_assert_eq!(m.gets, a.gets + b.gets);
        prop_assert_eq!(m.logical_bytes, a.logical_bytes + b.logical_bytes);
        prop_assert_eq!(m.flash_bytes_written, a.flash_bytes_written + b.flash_bytes_written);
    }

    /// `MemoryBreakdown::merge` of splits equals the whole: carving any
    /// breakdown into two parts (per-component byte split, object split)
    /// and merging the parts reconstructs the original exactly.
    #[test]
    fn breakdown_merge_of_splits_is_whole(
        comps in prop::collection::vec((1u64..1000, 0u64..10_000), 1..8),
        objects in 0u64..1_000_000,
        num in 0u64..=1000,
    ) {
        let mut whole = MemoryBreakdown::new(objects);
        let mut left = MemoryBreakdown::new(objects * num / 1000);
        let mut right = MemoryBreakdown::new(objects - objects * num / 1000);
        for (i, &(a, b)) in comps.iter().enumerate() {
            let name = format!("component-{i}");
            let bytes = a + b;
            whole.push(&name, bytes);
            let cut = bytes * num / 1000;
            left.push(&name, cut);
            right.push(&name, bytes - cut);
        }
        prop_assert_eq!(left.merge(&right), whole);
    }
}

proptest! {
    // Fewer cases: each case replays thousands of operations on real
    // engines.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `EngineStats::merge` over a real split workload: routing a request
    /// sequence across independent shard engines (exactly what
    /// `nemo-service` does) and merging their stats reproduces the
    /// request-driven counters of the same sequence replayed on a single
    /// engine. Hit/eviction counters legitimately differ (a fleet has
    /// more aggregate capacity); what must be conserved is everything
    /// the driver issues: gets, puts, and admitted logical bytes.
    #[test]
    fn stats_merge_of_shard_splits_matches_whole_run(
        shards in 1usize..6,
        seed in any::<u64>(),
    ) {
        let cfg = LogCacheConfig::small();
        let mut whole = LogCache::new(cfg.clone());
        let mut parts: Vec<LogCache> = (0..shards).map(cfg.factory()).collect();
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..4000 {
            let key = rng.next_u64() % 4096;
            let size = 24 + rng.next_below(400) as u32;
            if rng.next_below(2) == 0 {
                whole.get(key, Nanos::ZERO);
                parts[shard_of(key, shards)].get(key, Nanos::ZERO);
            } else {
                whole.put(key, size, Nanos::ZERO);
                parts[shard_of(key, shards)].put(key, size, Nanos::ZERO);
            }
        }
        let merged = EngineStats::merge_all(&parts.iter().map(|p| p.stats()).collect::<Vec<_>>());
        let w = whole.stats();
        prop_assert_eq!(merged.gets, w.gets);
        prop_assert_eq!(merged.puts, w.puts);
        prop_assert_eq!(merged.logical_bytes, w.logical_bytes);
    }
}

proptest! {
    // Deep sweeps: the same whole-engine invariants at ~100x the op
    // volume of the quick block above, far past the steady-state point
    // where eviction, write-back and index-group rotation all cycle many
    // times. Kept out of the tier-1 gate to bound its runtime (each case
    // replays 300k ops — minutes in an unoptimized build); run
    // `cargo test --test property_based -- --ignored` (CI runs them as a
    // non-blocking job).
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Long-horizon version of `nemo_put_then_get_always_hits`: the
    /// read-your-write and accounting invariants must survive deep into
    /// steady state, not just the first few flush cycles.
    #[test]
    #[ignore = "deep generative sweep, excluded from the tier-1 gate; run with -- --ignored"]
    fn nemo_invariants_hold_in_deep_steady_state(seed in any::<u64>()) {
        let mut cfg = NemoConfig::new(Geometry::new(4096, 32, 16, 4));
        cfg.flush_threshold = 4;
        cfg.expected_objects_per_set = 16;
        cfg.index_group_sgs = 4;
        let mut nemo = Nemo::new(cfg);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for i in 0..300_000u64 {
            let key = rng.next_u64();
            let size = 24 + (rng.next_below(400)) as u32;
            nemo.put(key, size, Nanos::ZERO);
            prop_assert!(
                nemo.get(key, Nanos::ZERO).hit,
                "op {i}: object must be readable right after insertion"
            );
        }
        let s = nemo.stats();
        prop_assert!(s.hits <= s.gets);
        prop_assert_eq!(s.nand_bytes_written, s.flash_bytes_written);
    }

    /// MemSg counter consistency under much longer interleavings than the
    /// quick block exercises (10x ops, 4x sets).
    #[test]
    #[ignore = "deep generative sweep, excluded from the tier-1 gate; run with -- --ignored"]
    fn memsg_counters_survive_long_interleavings(
        ops in prop::collection::vec((any::<u64>(), 24u32..600, any::<bool>()), 5000..8000)
    ) {
        let mut sg = MemSg::new(32, 4096);
        for (key, size, sacrifice) in ops {
            if sacrifice {
                let set = MemSg::set_index_of(key, 32);
                sg.sacrifice_at(set);
            } else {
                sg.insert(key, size);
            }
        }
        let bytes: u64 = (0..32u32)
            .map(|s| sg.set(s).entries().iter().map(|&(_, sz)| sz as u64).sum::<u64>())
            .sum();
        let objects: u64 = (0..32u32).map(|s| sg.set(s).len() as u64).sum();
        prop_assert_eq!(bytes, sg.byte_count());
        prop_assert_eq!(objects, sg.object_count());
    }
}
