//! Differential property test of the three zoned backends: the same
//! deterministic op sequence against in-memory `SimFlash`, file-backed
//! `SimFlash`, and `RealFlash` must yield byte-identical page contents,
//! identical per-op outcomes (including the *kind* of error), identical
//! zone states/write pointers, and identical `DeviceStats` op counts.
//! Only time may differ — the simulators model it, `RealFlash` measures
//! it (pinned to a `TickClock` here so the run is reproducible).

use nemo_flash::{
    AnyFlash, FaultKind, FaultOp, FaultPlan, FaultRule, FaultyFlash, FlashError, Geometry,
    LatencyModel, Nanos, PageAddr, RealFlash, RealFlashOptions, SimFlash, TickClock, ZoneId,
    ZonedFlash,
};
use proptest::prelude::*;

/// One decoded device operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Append { zone: u32, fill: u8, pages: u32 },
    Read { zone: u32, page: u32 },
    Reset { zone: u32 },
    Finish { zone: u32 },
}

const ZONES: u32 = 4;
const PAGES_PER_ZONE: u32 = 4;
const PAGE: usize = 512;

fn decode(raw: (u8, u32, u8, u32)) -> Op {
    let (kind, zone, fill, pages) = raw;
    match kind % 6 {
        // Appends dominate so zones actually fill and overflow/reset
        // paths get exercised.
        0..=2 => Op::Append { zone, fill, pages },
        3 => Op::Read {
            zone,
            page: pages % PAGES_PER_ZONE,
        },
        4 => Op::Reset { zone },
        _ => Op::Finish { zone },
    }
}

/// Outcome signature of one op, comparable across backends: payload and
/// error kind, with all times stripped.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Appended(PageAddr),
    ReadBytes(Vec<u8>),
    Done,
    Failed(&'static str),
}

fn error_kind(e: &FlashError) -> &'static str {
    match e {
        FlashError::BadZone(_) => "bad-zone",
        FlashError::BadAddress(_) => "bad-address",
        FlashError::ZoneOverflow { .. } => "overflow",
        FlashError::ReadBeyondWritePointer { .. } => "beyond-wp",
        FlashError::UnalignedLength { .. } => "unaligned",
        FlashError::ZoneNotWritable(_) => "not-writable",
        _ => "other",
    }
}

fn apply<D: ZonedFlash>(dev: &mut D, op: Op) -> Outcome {
    match op {
        Op::Append { zone, fill, pages } => {
            let data = vec![fill; pages as usize * PAGE];
            match dev.append(ZoneId(zone), &data, Nanos::ZERO) {
                Ok((addr, _)) => Outcome::Appended(addr),
                Err(e) => Outcome::Failed(error_kind(&e)),
            }
        }
        Op::Read { zone, page } => {
            match dev.read_pages(PageAddr::new(zone, page), 1, Nanos::ZERO) {
                Ok((bytes, _)) => Outcome::ReadBytes(bytes),
                Err(e) => Outcome::Failed(error_kind(&e)),
            }
        }
        Op::Reset { zone } => match dev.reset_zone(ZoneId(zone), Nanos::ZERO) {
            Ok(_) => Outcome::Done,
            Err(e) => Outcome::Failed(error_kind(&e)),
        },
        Op::Finish { zone } => match dev.finish_zone(ZoneId(zone)) {
            Ok(()) => Outcome::Done,
            Err(e) => Outcome::Failed(error_kind(&e)),
        },
    }
}

fn tmp(name: String) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("nemo_differential_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The cross-backend contract behind `experiments device_validation`:
    /// backends may change time, never behaviour.
    #[test]
    fn backends_are_behaviourally_identical(
        raw_ops in prop::collection::vec((0u8..=255, 0u32..ZONES + 1, 0u8..=255, 1u32..4), 20..120),
        case_id in 0u64..u64::MAX
    ) {
        let geom = Geometry::new(PAGE as u32, PAGES_PER_ZONE, ZONES, 2);
        let file_path = tmp(format!("sim-{case_id}.img"));
        let real_path = tmp(format!("real-{case_id}.img"));
        let mut mem = SimFlash::with_latency(geom, LatencyModel::zero());
        let mut file = SimFlash::file_backed(geom, LatencyModel::zero(), &file_path)
            .expect("file-backed device");
        let mut real = RealFlash::create_with_clock(
            geom,
            &real_path,
            RealFlashOptions::default(),
            TickClock::new(Nanos::from_micros(1)),
        )
        .expect("real device");

        for (i, &raw) in raw_ops.iter().enumerate() {
            let op = decode(raw);
            let a = apply(&mut mem, op);
            let b = apply(&mut file, op);
            let c = apply(&mut real, op);
            prop_assert_eq!(&a, &b, "mem vs file diverged at op {} ({:?})", i, op);
            prop_assert_eq!(&a, &c, "mem vs real diverged at op {} ({:?})", i, op);
        }

        // Final zone map parity.
        for z in 0..ZONES {
            let zone = ZoneId(z);
            prop_assert_eq!(mem.zone_state(zone), file.zone_state(zone));
            prop_assert_eq!(mem.zone_state(zone), real.zone_state(zone));
            prop_assert_eq!(mem.write_pointer(zone), file.write_pointer(zone));
            prop_assert_eq!(mem.write_pointer(zone), real.write_pointer(zone));
        }

        // Byte-identical contents of every readable page.
        for z in 0..ZONES {
            for p in 0..mem.write_pointer(ZoneId(z)) {
                let addr = PageAddr::new(z, p);
                let (da, _) = mem.read_pages(addr, 1, Nanos::ZERO).expect("mem read");
                let (db, _) = file.read_pages(addr, 1, Nanos::ZERO).expect("file read");
                let (dc, _) = real.read_pages(addr, 1, Nanos::ZERO).expect("real read");
                prop_assert_eq!(&da, &db, "file contents diverged at {}", addr);
                prop_assert_eq!(&da, &dc, "real contents diverged at {}", addr);
            }
        }

        // Identical DeviceStats op counts (times excluded: busy_time is
        // modeled on the simulators and measured on RealFlash).
        let (sa, sb, sc) = (mem.stats(), file.stats(), real.stats());
        let counts = |s: &nemo_flash::DeviceStats| {
            (
                s.pages_written,
                s.bytes_written,
                s.pages_read,
                s.bytes_read,
                s.zone_resets,
                s.append_ops,
                s.read_ops,
            )
        };
        prop_assert_eq!(counts(&sa), counts(&sb), "file op counts diverged");
        prop_assert_eq!(counts(&sa), counts(&sc), "real op counts diverged");

        std::fs::remove_file(&file_path).ok();
        std::fs::remove_file(&real_path).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The submit/poll contract: on every backend, at depth 1 and at an
    /// arbitrary depth, a submitted batch must be op-for-op identical to
    /// reading its pages one `read_pages_into` at a time — same outcomes
    /// (including the error kind on invalid addresses), same bytes
    /// delivered, same `DeviceStats` op counts. Only time and the
    /// submission counters may differ.
    #[test]
    fn submit_poll_matches_per_page_reads(
        appends in prop::collection::vec((0u32..ZONES, 0u8..=255, 1u32..4), 4..16),
        batches in prop::collection::vec(
            prop::collection::vec((0u32..ZONES + 1, 0u32..PAGES_PER_ZONE + 1), 0..7),
            1..12
        ),
        queue_depth in 2usize..=16,
        case_id in 0u64..u64::MAX
    ) {
        let geom = Geometry::new(PAGE as u32, PAGES_PER_ZONE, ZONES, 2);
        // Per backend: the per-page reference first, then one identically
        // populated twin per submission depth.
        let depths = [1, queue_depth];
        let images: Vec<std::path::PathBuf> = (0..2 * (1 + depths.len()))
            .map(|i| tmp(format!("submit-{i}-{case_id}.img")))
            .collect();
        let mem = |_: &std::path::PathBuf| -> Box<dyn ZonedFlash> {
            Box::new(SimFlash::with_latency(geom, LatencyModel::default()))
        };
        let file = |path: &std::path::PathBuf| -> Box<dyn ZonedFlash> {
            Box::new(
                SimFlash::file_backed(geom, LatencyModel::default(), path)
                    .expect("file-backed device"),
            )
        };
        let real = |path: &std::path::PathBuf| -> Box<dyn ZonedFlash> {
            let clock = TickClock::new(Nanos::from_micros(1));
            Box::new(
                RealFlash::create_with_clock(geom, path, RealFlashOptions::default(), clock)
                    .expect("real device"),
            )
        };
        let (file_images, real_images) = images.split_at(1 + depths.len());
        let mut devices: Vec<(&str, Vec<Box<dyn ZonedFlash>>)> = vec![
            ("mem-sim", file_images.iter().map(mem).collect()),
            ("file-sim", file_images.iter().map(file).collect()),
            ("real", real_images.iter().map(real).collect()),
        ];
        for (_, devs) in &mut devices {
            for &(zone, fill, pages) in &appends {
                let data = vec![fill; pages as usize * PAGE];
                let oks: Vec<bool> = devs
                    .iter_mut()
                    .map(|d| d.append(ZoneId(zone), &data, Nanos::ZERO).is_ok())
                    .collect();
                prop_assert!(oks.iter().all(|&ok| ok == oks[0]), "twin appends must agree");
            }
        }

        let mut batch = nemo_flash::ReadBatch::new();
        let mut completions = Vec::new();
        // Per-backend signatures of every batch, for cross-backend parity.
        let mut signatures: Vec<Vec<Outcome>> = Vec::new();
        for (name, devs) in &mut devices {
            let (reference, twins) = devs.split_first_mut().expect("reference device");
            let mut sigs = Vec::new();
            for (bi, raw) in batches.iter().enumerate() {
                let addrs: Vec<PageAddr> =
                    raw.iter().map(|&(z, p)| PageAddr::new(z, p)).collect();
                let mut out = vec![0u8; addrs.len() * PAGE];
                let read = out
                    .chunks_exact_mut(PAGE)
                    .zip(&addrs)
                    .try_for_each(|(chunk, &addr)| {
                        reference.read_pages_into(addr, 1, chunk, Nanos::ZERO).map(drop)
                    });
                let want = match read {
                    Ok(()) => Outcome::ReadBytes(out),
                    Err(e) => Outcome::Failed(error_kind(&e)),
                };
                for (twin, &depth) in twins.iter_mut().zip(&depths) {
                    let mut out = vec![0xAAu8; addrs.len() * PAGE];
                    let submitted =
                        twin.submit_read_batch(&mut batch, &addrs, &mut out, Nanos::ZERO, depth);
                    let got = match submitted {
                        Ok(()) => {
                            completions.clear();
                            while !twin
                                .poll_completions(&mut batch, &mut completions)
                                .expect("poll never fails on these devices")
                            {}
                            prop_assert_eq!(
                                completions.len(),
                                addrs.len(),
                                "{} qd{}: batch {} must complete fully",
                                name,
                                depth,
                                bi
                            );
                            Outcome::ReadBytes(out)
                        }
                        Err(e) => Outcome::Failed(error_kind(&e)),
                    };
                    prop_assert_eq!(
                        &want,
                        &got,
                        "{} qd{}: diverged from per-page reads on batch {}",
                        name,
                        depth,
                        bi
                    );
                }
                sigs.push(want);
            }
            // Every twin did exactly the reference's device work.
            let counts = |s: nemo_flash::DeviceStats| {
                (s.pages_read, s.bytes_read, s.read_ops, s.pages_written, s.append_ops)
            };
            let want = reference.stats();
            prop_assert_eq!(want.async_reads, 0, "{}: blocking reads are not submissions", name);
            for twin in twins.iter() {
                prop_assert_eq!(counts(want), counts(twin.stats()), "{}: op counts diverged", name);
            }
            signatures.push(sigs);
        }

        // Cross-backend parity of the per-batch signatures.
        prop_assert_eq!(&signatures[0], &signatures[1], "mem vs file-sim diverged");
        prop_assert_eq!(&signatures[0], &signatures[2], "mem vs real diverged");

        drop(devices);
        for path in images {
            std::fs::remove_file(&path).ok();
        }
    }
}

/// A read's fate, comparable across the two read calls: completion time
/// and bytes, or the error's kind and whether it is transient.
type ReadFate = Result<(Nanos, Vec<u8>), (&'static str, bool)>;

fn fate_of(e: FlashError) -> (&'static str, bool) {
    (error_kind(&e), e.is_transient())
}

/// A random mix of read faults: zone deaths, transient errors and
/// latency spikes, decided per device op by the plan's seed. Every rule
/// flips the op's one coin, so the probabilities are cumulative: 2 %,
/// 23 % and 25 % of reads.
fn read_fault_plan(seed: u64) -> FaultPlan {
    let rule = |kind, probability| FaultRule {
        probability,
        ..FaultRule::every(FaultOp::Read, kind)
    };
    FaultPlan::new(seed)
        .rule(rule(FaultKind::KillZone, 0.02))
        .rule(rule(FaultKind::TransientError, 0.25))
        .rule(rule(FaultKind::LatencySpike(Nanos::from_micros(300)), 0.5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The lent-read contract: on every backend, `read_page_with` lends
    /// exactly the bytes a one-page `read_pages_into` copies out, calls
    /// its closure once on success and never on failure, and completes
    /// at the same time with the same `DeviceStats`. Under one fault
    /// plan, `FaultyFlash` deals both calls the same fate, op for op.
    #[test]
    fn lent_reads_match_one_page_copies(
        appends in prop::collection::vec((0u32..ZONES, 0u8..=255, 1u32..4), 4..16),
        reads in prop::collection::vec((0u32..ZONES + 1, 0u32..PAGES_PER_ZONE + 1, 0u64..400), 1..40),
        seed in 0u64..u64::MAX
    ) {
        let geom = Geometry::new(PAGE as u32, PAGES_PER_ZONE, ZONES, 2);
        let images: Vec<std::path::PathBuf> = (0..6)
            .map(|i| tmp(format!("lent-{i}-{seed}.img")))
            .collect();
        let sim = || SimFlash::with_latency(geom, LatencyModel::default());
        let file = |i: usize| {
            SimFlash::file_backed(geom, LatencyModel::default(), &images[i])
                .expect("file-backed device")
        };
        let real = |i: usize| {
            let clock = TickClock::new(Nanos::from_micros(1));
            RealFlash::create_with_clock(geom, &images[i], RealFlashOptions::default(), clock)
                .expect("real device")
        };
        let faulty = || FaultyFlash::new(sim(), read_fault_plan(seed));
        let any_faulty = || {
            let inner = AnyFlash::from(sim());
            AnyFlash::from(FaultyFlash::new(inner, read_fault_plan(seed)))
        };
        // Per backend: the copying device, then its lending twin.
        let mut pairs: Vec<(&str, [Box<dyn ZonedFlash>; 2])> = vec![
            ("mem-sim", [Box::new(sim()), Box::new(sim())]),
            ("file-sim", [Box::new(file(0)), Box::new(file(1))]),
            ("real", [Box::new(real(2)), Box::new(real(3))]),
            ("any-sim", [Box::new(AnyFlash::from(sim())), Box::new(AnyFlash::from(sim()))]),
            ("any-file", [Box::new(AnyFlash::from(file(4))), Box::new(AnyFlash::from(file(5)))]),
            ("faulty-sim", [Box::new(faulty()), Box::new(faulty())]),
            ("any-faulty", [Box::new(any_faulty()), Box::new(any_faulty())]),
        ];
        for (name, [copying, lending]) in &mut pairs {
            for &(zone, fill, pages) in &appends {
                let data = vec![fill; pages as usize * PAGE];
                let a = copying.append(ZoneId(zone), &data, Nanos::ZERO).map_err(fate_of);
                let b = lending.append(ZoneId(zone), &data, Nanos::ZERO).map_err(fate_of);
                prop_assert_eq!(a, b, "{}: twin appends must agree", name);
            }
            for (i, &(zone, page, at_us)) in reads.iter().enumerate() {
                let (addr, now) = (PageAddr::new(zone, page), Nanos::from_micros(at_us));
                let mut out = vec![0xAA; PAGE];
                let copied: ReadFate = copying
                    .read_pages_into(addr, 1, &mut out, now)
                    .map(|t| (t, out))
                    .map_err(fate_of);
                let (mut lent, mut calls) = (Vec::new(), 0);
                let lent: ReadFate = lending
                    .read_page_with(addr, now, &mut |bytes| {
                        calls += 1;
                        lent = bytes.to_vec();
                    })
                    .map(|t| (t, lent))
                    .map_err(fate_of);
                prop_assert_eq!(calls, usize::from(lent.is_ok()), "{}: read {} lent {} times", name, i, calls);
                prop_assert_eq!(&copied, &lent, "{}: read {} of {} diverged", name, i, addr);
            }
            prop_assert_eq!(copying.stats(), lending.stats(), "{}: device stats diverged", name);
        }

        drop(pairs);
        for path in images {
            std::fs::remove_file(&path).ok();
        }
    }
}

/// Reopen-and-read smoke test spanning both persistent backends: write
/// through one process "lifetime", reopen, and keep using the device.
#[test]
fn persistent_backends_survive_reopen_and_continue() {
    let geom = Geometry::new(512, 4, 3, 2);
    let sim_path = tmp("reopen-sim.img".into());
    let real_path = tmp("reopen-real.img".into());
    let payload: Vec<u8> = (0..512u32).map(|i| (i * 37 % 251) as u8).collect();

    {
        let mut sim = SimFlash::file_backed(geom, LatencyModel::zero(), &sim_path).unwrap();
        let mut real = RealFlash::create(geom, &real_path, RealFlashOptions::default()).unwrap();
        for dev in [&mut sim as &mut dyn ZonedFlash, &mut real] {
            dev.append(ZoneId(0), &payload, Nanos::ZERO).unwrap();
            dev.append(ZoneId(1), &vec![9u8; 512 * 4], Nanos::ZERO)
                .unwrap();
            dev.finish_zone(ZoneId(0)).unwrap();
        }
    }

    let mut sim = SimFlash::open_file_backed(geom, LatencyModel::zero(), &sim_path).unwrap();
    let mut real = RealFlash::open(geom, &real_path, RealFlashOptions::default()).unwrap();
    for dev in [&mut sim as &mut dyn ZonedFlash, &mut real] {
        assert_eq!(dev.geometry(), geom);
        let (back, _) = dev.read_pages(PageAddr::new(0, 0), 1, Nanos::ZERO).unwrap();
        assert_eq!(back, payload, "payload must survive reopen");
        assert_eq!(dev.write_pointer(ZoneId(1)), 4, "write pointer restored");
        // The finished zone still rejects appends; zone 2 still works.
        assert!(dev.append(ZoneId(0), &vec![1u8; 512], Nanos::ZERO).is_err());
        dev.append(ZoneId(2), &vec![3u8; 512], Nanos::ZERO).unwrap();
        dev.reset_zone(ZoneId(1), Nanos::ZERO).unwrap();
        dev.append(ZoneId(1), &vec![4u8; 512], Nanos::ZERO).unwrap();
    }
    std::fs::remove_file(&sim_path).ok();
    std::fs::remove_file(&real_path).ok();
}
