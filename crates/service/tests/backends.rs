//! Cross-backend behaviour of sharded fleets: the same request sequence
//! on modeled in-memory, modeled file-backed, and real-I/O devices must
//! agree on every behavioural counter — hit ratio, WA, device op counts.
//! Only *time* (the measured `busy_time`) may differ.

use nemo_core::NemoConfig;
use nemo_engine::{CacheEngine as _, EngineStats};
use nemo_flash::{Geometry, Nanos};
use nemo_service::{DeviceBackend, ShardedCacheBuilder};
use nemo_util::Xoshiro256StarStar;
use std::path::PathBuf;

fn tmp(sub: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nemo_service_backends").join(sub);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(backend: DeviceBackend) -> EngineStats {
    let mut cfg = NemoConfig::new(Geometry::new(4096, 64, 16, 4));
    cfg.flush_threshold = 16;
    cfg.expected_objects_per_set = 16;
    cfg.index_group_sgs = 4;
    let mut cache =
        ShardedCacheBuilder::new(2).spawn(cfg.factory_on(backend.device_factory("xback")));
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    for _ in 0..6000 {
        let key = rng.next_below(2000);
        if !cache.get(key, Nanos::ZERO).hit {
            cache.put(key, 24 + rng.next_below(280) as u32, Nanos::ZERO);
        }
    }
    cache.finish(Nanos::ZERO).stats
}

#[test]
fn sharded_fleets_agree_across_backends() {
    let modeled = run(DeviceBackend::Modeled);
    let file = run(DeviceBackend::modeled_file(tmp("file")));
    let real = run(DeviceBackend::real(tmp("real")));
    assert!(modeled.hits > 0 && modeled.puts > 0, "workload ran");

    // Both modeled variants share the virtual die timeline: bit-identical.
    assert_eq!(modeled, file, "file-backed modeled must match in-memory");

    // The real backend measures wall-clock time, so busy_time differs;
    // everything behavioural must still be identical.
    let strip = |mut s: EngineStats| {
        s.device.busy_time = Nanos::ZERO;
        s
    };
    assert_eq!(
        strip(modeled),
        strip(real),
        "real backend must change timing only, never behaviour"
    );
}
