//! Theory-vs-practice integration tests: the simulated engines must agree
//! with the paper's analytic models (§3.2, Eq. 9, Appendix A).

use nemo_repro::analytic::{nemo_wa, HierarchicalWaModel, PbfgCostModel};
use nemo_repro::baselines::{FairyWren, FairyWrenConfig};
use nemo_repro::core::{Nemo, NemoConfig};
use nemo_repro::engine::CacheEngine;
use nemo_repro::flash::{standard_geometry, Nanos};
use nemo_repro::trace::{RequestKind, TraceConfig, TraceGenerator};

const FLASH_MB: u32 = 32;

fn trace() -> TraceGenerator {
    TraceGenerator::new(TraceConfig::twitter_merged(
        FLASH_MB as f64 * 6.0 / 337_848.0,
    ))
}

fn drive(engine: &mut dyn CacheEngine, ops: u64) {
    let mut gen = trace();
    for _ in 0..ops {
        let r = gen.next_request();
        match r.kind {
            RequestKind::Get => {
                if !engine.get(r.key, Nanos::ZERO).hit {
                    engine.put(r.key, r.size, Nanos::ZERO);
                }
            }
            RequestKind::Put => {
                engine.put(r.key, r.size, Nanos::ZERO);
            }
        }
    }
}

#[test]
fn fairywren_l2swa_scales_with_log_size_as_modelled() {
    // Eq. 6: L2SWA(P) ∝ 1/N_log, i.e. a bigger log raises the mean
    // objects per passive set write. At simulation scale the log is only
    // a handful of zones, so reclaiming one zone drains a large fraction
    // of all chains at once and the slope is compressed relative to the
    // model — the *direction* and WA consequence must still hold.
    let geometry = standard_geometry(FLASH_MB);
    let mut fw5 = FairyWren::new(FairyWrenConfig::log_op(geometry, 5, 5));
    let mut fw20 = FairyWren::new(FairyWrenConfig::log_op(geometry, 20, 5));
    drive(&mut fw5, 900_000);
    drive(&mut fw20, 900_000);
    let m5 = fw5.passive_cdf().mean();
    let m20 = fw20.passive_cdf().mean();
    assert!(
        m20 > m5 * 1.1,
        "4x log must raise the passive batch: {m5:.2} -> {m20:.2}"
    );
    let wa5 = fw5.stats().alwa();
    let wa20 = fw20.stats().alwa();
    assert!(
        wa20 < wa5,
        "a bigger log must lower FW's WA (Fig. 12b): {wa5:.2} -> {wa20:.2}"
    );
}

#[test]
fn fairywren_p_increases_with_op_like_observation_4() {
    let geometry = standard_geometry(FLASH_MB);
    let mut p_values = Vec::new();
    for op in [5u32, 20, 50] {
        let mut fw = FairyWren::new(FairyWrenConfig::log_op(geometry, 5, op));
        drive(&mut fw, 900_000);
        p_values.push(fw.passive_fraction());
    }
    assert!(
        p_values[0] < p_values[1] && p_values[1] <= p_values[2],
        "p must rise with OP (Observation 4): {p_values:?}"
    );
}

#[test]
fn fairywren_active_batches_are_smaller_than_passive() {
    // Observation 3: actively migrated objects spent ~half the residency,
    // so active set writes carry fewer new objects than passive ones.
    let geometry = standard_geometry(FLASH_MB);
    let mut fw = FairyWren::new(FairyWrenConfig::log_op(geometry, 5, 5));
    drive(&mut fw, 1_200_000);
    let (passive, active) = fw.rmw_counts();
    assert!(
        passive > 50 && active > 50,
        "need both kinds: {passive}/{active}"
    );
    assert!(
        fw.active_cdf().mean() < fw.passive_cdf().mean(),
        "active mean {} must be below passive mean {}",
        fw.active_cdf().mean(),
        fw.passive_cdf().mean()
    );
}

#[test]
fn nemo_wa_matches_equation_9_adjusted_for_writeback() {
    let mut cfg = NemoConfig::new(standard_geometry(FLASH_MB));
    cfg.flush_threshold = 4;
    cfg.expected_objects_per_set = 16;
    let mut nemo = Nemo::new(cfg);
    drive(&mut nemo, 1_200_000);
    let fill = nemo.mean_fill_rate();
    let measured = nemo.stats().alwa();
    // Eq. 9 with the §5.2 adjustment: written-back bytes fill the SG but
    // are not logical, so measured WA >= 1/fill is not guaranteed, but it
    // must stay within a tight band around it (index writes add ~2%).
    let model = nemo_wa(fill);
    assert!(
        (measured - model).abs() / model < 0.35,
        "measured {measured:.3} vs 1/fill {model:.3}"
    );
}

#[test]
fn l2swa_model_self_consistency_at_paper_scale() {
    // Pure-model check at the paper's real scale: 360 GB, Log5-OP5.
    let pages = 360.0 * 1024.0 * 1024.0 / 4.0; // 4 KB pages
    let m = HierarchicalWaModel::from_fractions(pages, 0.05, 0.05);
    assert!((m.l2swa_passive() - 9.03).abs() < 0.1);
    // Paper §3.2: with p = 0.25, L2SWA ≈ 15.75; + log fill ≈ 1 -> FW WA
    // ~16.75 modelled vs 15.2 measured on hardware.
    let total = m.total_wa(0.95, 0.25);
    assert!((14.0..18.5).contains(&total), "total {total}");
}

#[test]
fn pbfg_model_matches_measured_index_reads() {
    // The Appendix-A model predicts N/n index page reads per lookup when
    // nothing is cached and every group is probed. A get of a key that
    // was never inserted is that lookup: no copy ends its walk early.
    let mut cfg = NemoConfig::new(standard_geometry(FLASH_MB));
    cfg.flush_threshold = 4;
    cfg.expected_objects_per_set = 16;
    cfg.index_group_sgs = 8;
    cfg.cached_pbfg_ratio = 0.0;
    let mut nemo = Nemo::new(cfg.clone());
    drive(&mut nemo, 600_000);
    // The model packs a page full; the engine's PBFG holds a group of 8,
    // so the model's page is what 8 filters take.
    let model = PbfgCostModel {
        n_sgs: nemo.pool_len() as u64,
        page_size: cfg.sgs_per_index_group() * cfg.filter_bytes(),
        objects_per_filter: cfg.expected_objects_per_set,
    };
    assert_eq!(
        model.filters_per_page(cfg.bloom_fpr),
        cfg.sgs_per_index_group() as u64
    );
    let before = nemo.report().index;
    let lookups = 2_000u64;
    for k in 0..lookups {
        let out = nemo.get(k.wrapping_mul(0xDEAD_BEEF_1234_5677) | 1 << 63, Nanos::ZERO);
        assert!(!out.hit, "key {k} was never inserted");
    }
    let after = nemo.report().index;
    let measured = (after.cache_misses - before.cache_misses) as f64 / lookups as f64;
    let predicted = model.index_reads(cfg.bloom_fpr);
    // Tolerance: one page either way. The newest group is still building
    // and answers from memory (one read fewer than N/n); the oldest may
    // be partly evicted, so the live SGs straddle one group more (one
    // read more). The 0.1 covers walks that four false-positive set
    // reads end early.
    assert!(predicted >= 2.0, "too few groups to tell: {predicted}");
    assert!(
        (measured - predicted).abs() <= 1.1,
        "measured {measured:.3} index reads per lookup, model {predicted}"
    );
    // Zero cache: every sealed-group probe went to flash.
    assert_eq!(
        after.cache_hits - before.cache_hits,
        lookups,
        "only the building group answers from memory"
    );
}
