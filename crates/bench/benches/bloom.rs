//! PBFG computational overhead (paper §5.5): the paper measures ~1 µs to
//! probe a PBFG of 1000 set-level filters with shared hash computation.
//! `pbfg_query_1000_filters` is that probe on `ProbeTable::matches_in`,
//! the routine the index walk runs: about 3.0 µs per 1000 filters of 72 B
//! at half fill on a 2.1 GHz virtual core (6.2 µs filter by filter with a
//! `%` per probe, as the walk ran before), against the paper's 1 µs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nemo_bloom::{BloomFilter, ProbeTable};
use std::hint::black_box;

fn bench_bloom(c: &mut Criterion) {
    let mut g = c.benchmark_group("bloom");

    g.bench_function("insert", |b| {
        let mut bf = BloomFilter::for_items(40, 0.001);
        let mut k = 0u64;
        b.iter(|| {
            bf.insert(black_box(k));
            k = k.wrapping_add(1);
        });
    });

    g.bench_function("contains_hit", |b| {
        let mut bf = BloomFilter::for_items(40, 0.001);
        for k in 0..40u64 {
            bf.insert(k);
        }
        b.iter(|| black_box(bf.contains(black_box(7))));
    });

    // The paper's §5.5 microbench: 1000 set-level filters packed back to
    // back as in a PBFG, one shared probe table — the routine the index
    // walk runs over the building group and over each PBFG page.
    g.throughput(Throughput::Elements(1000));
    g.bench_function("pbfg_query_1000_filters", |b| {
        let probe = BloomFilter::for_items(40, 0.001);
        let (fb, k) = (probe.serialized_len(), probe.hash_count());
        let mut packed = vec![0u8; 1000 * fb];
        for (i, slot) in packed.chunks_exact_mut(fb).enumerate() {
            let mut bf = BloomFilter::for_items(40, 0.001);
            for key in 0..40u64 {
                bf.insert(key * 1000 + i as u64);
            }
            bf.write_bytes(slot);
        }
        b.iter(|| {
            let mut probes = ProbeTable::new(black_box(424_242), fb, k);
            let mut hits = 0u32;
            probes.matches_in(black_box(&packed), 1000, |_| hits += 1);
            black_box(hits)
        });
    });

    g.finish();
}

criterion_group!(benches, bench_bloom);
criterion_main!(benches);
