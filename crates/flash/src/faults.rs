//! Deterministic device-level fault injection.
//!
//! [`FaultyFlash`] wraps any [`ZonedFlash`] backend and perturbs its
//! operations according to a seeded [`FaultPlan`]: transient I/O errors,
//! permanently failed zones, torn zone-record writes, and latency
//! spikes. The wrapper is what the robustness machinery upstream is
//! tested against — engine retry/quarantine policies, shard-worker
//! supervision, and the `experiments faultload` scenario all drive their
//! devices through it.
//!
//! Determinism contract: a plan's decisions depend only on its seed, its
//! rules, and the *sequence of operations* the wrapped device observes.
//! Replaying the same workload against the same plan produces the same
//! faults at the same operations, bit for bit — probabilistic rules
//! derive their coin flips from `splitmix64(seed, op_index)`, not from a
//! shared stream, so they are insensitive to how other rules fire.

use crate::error::FlashError;
use crate::geometry::{Geometry, PageAddr, ZoneId};
use crate::stats::DeviceStats;
use crate::time::Nanos;
use crate::zoned::{ReadBatch, ReadCompletion, ZoneState, ZonedFlash};

/// Operation category a [`FaultRule`] matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Page reads (each `read_pages_into` call and each page of a
    /// submitted batch is one matching operation).
    Read,
    /// Appends and zone finishes.
    Write,
    /// Zone resets.
    Reset,
    /// Any of the above.
    Any,
}

impl FaultOp {
    fn matches(self, op: FaultOp) -> bool {
        self == FaultOp::Any || self == op
    }
}

/// What happens when a [`FaultRule`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with a transient [`FlashError::Io`] — a
    /// retry of the same operation will succeed (unless another rule
    /// fires again).
    TransientError,
    /// The touched zone dies: this operation and every later operation
    /// touching the zone fail with a permanent [`FlashError::Io`].
    KillZone,
    /// The append succeeds, then the zone's persisted metadata record is
    /// torn ([`ZonedFlash::tear_zone_record`]) — the next reopen marks
    /// the zone suspect. No-op on backends without persistent records.
    TornRecord,
    /// The operation succeeds but completes `extra` later than the
    /// device reports.
    LatencySpike(Nanos),
}

/// One scripted fault: fire `kind` on operations matching the filters.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Operation category the rule applies to.
    pub op: FaultOp,
    /// Restrict to one zone (`None` matches every zone).
    pub zone: Option<ZoneId>,
    /// First device-op index (see [`FaultyFlash::ops_observed`]) the
    /// rule is active at.
    pub from_op: u64,
    /// Device-op index the rule stops matching at (exclusive).
    pub until_op: u64,
    /// Maximum number of times the rule fires (`u64::MAX` = unlimited
    /// within its window).
    pub budget: u64,
    /// Chance that a matching operation fires the rule, in `[0, 1]`.
    /// Decided by a seeded per-op hash, so it is deterministic.
    pub probability: f64,
    /// Effect of a firing.
    pub kind: FaultKind,
}

impl FaultRule {
    /// A rule matching every operation of `op` forever, firing always.
    pub fn every(op: FaultOp, kind: FaultKind) -> Self {
        FaultRule {
            op,
            zone: None,
            from_op: 0,
            until_op: u64::MAX,
            budget: u64::MAX,
            probability: 1.0,
            kind,
        }
    }
}

/// SplitMix64 finalizer — the per-op coin flip for probabilistic rules.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic, seeded schedule of injected faults.
///
/// Rules are evaluated in insertion order; the first rule that matches
/// an operation (category, zone, op-index window, remaining budget,
/// coin flip) fires. Convenience constructors cover the scripted
/// schedules the `faultload` experiment uses; arbitrary rules go in via
/// [`FaultPlan::rule`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    fired: Vec<u64>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            fired: Vec::new(),
        }
    }

    /// Adds an arbitrary rule.
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self.fired.push(0);
        self
    }

    /// Fails the next `n` matching operations (from the current point in
    /// the op stream) with transient errors.
    pub fn fail_next(self, op: FaultOp, n: u64) -> Self {
        self.rule(FaultRule {
            budget: n,
            ..FaultRule::every(op, FaultKind::TransientError)
        })
    }

    /// A burst of transient read errors: every read in the device-op
    /// window `[from_op, until_op)` fails.
    pub fn transient_read_burst(self, from_op: u64, until_op: u64) -> Self {
        self.rule(FaultRule {
            from_op,
            until_op,
            ..FaultRule::every(FaultOp::Read, FaultKind::TransientError)
        })
    }

    /// Kills `zone` permanently at the first operation touching it at or
    /// after device-op `at_op`.
    pub fn kill_zone(self, zone: ZoneId, at_op: u64) -> Self {
        self.rule(FaultRule {
            zone: Some(zone),
            from_op: at_op,
            budget: 1,
            ..FaultRule::every(FaultOp::Any, FaultKind::KillZone)
        })
    }

    /// Adds `extra` to the completion of every operation in the window —
    /// a latency storm.
    pub fn latency_storm(self, from_op: u64, until_op: u64, extra: Nanos) -> Self {
        self.rule(FaultRule {
            from_op,
            until_op,
            ..FaultRule::every(FaultOp::Any, FaultKind::LatencySpike(extra))
        })
    }

    /// Tears the persisted zone record of the next append's target zone
    /// (or of `zone` specifically) after the append succeeds.
    pub fn torn_record_on_append(self, zone: Option<ZoneId>) -> Self {
        self.rule(FaultRule {
            zone,
            budget: 1,
            ..FaultRule::every(FaultOp::Write, FaultKind::TornRecord)
        })
    }

    /// Decides the fate of operation number `idx` (category `op`,
    /// touching `zone`). Mutates rule budgets.
    fn decide(&mut self, idx: u64, op: FaultOp, zone: ZoneId) -> Option<FaultKind> {
        for (i, rule) in self.rules.iter().enumerate() {
            if !rule.op.matches(op)
                || rule.zone.is_some_and(|z| z != zone)
                || idx < rule.from_op
                || idx >= rule.until_op
                || self.fired[i] >= rule.budget
            {
                continue;
            }
            if rule.probability < 1.0 {
                let coin = splitmix64(self.seed ^ idx.wrapping_mul(0xA24B_AED4_963E_E407));
                if (coin as f64 / u64::MAX as f64) >= rule.probability {
                    continue;
                }
            }
            self.fired[i] += 1;
            return Some(rule.kind);
        }
        None
    }
}

/// A [`ZonedFlash`] wrapper that injects the faults a [`FaultPlan`]
/// scripts, surfacing them exactly as a flaky device would: blocking
/// operations return [`FlashError::Io`] with the appropriate
/// transient/permanent class, submitted batches fail at
/// [`ZonedFlash::poll_completions`] time, latency spikes stretch
/// completion times, and torn records corrupt persisted metadata behind
/// the device's back.
///
/// Injected failures are counted into the wrapper's [`DeviceStats`]
/// (`read_errors`/`write_errors`) on top of whatever the inner device
/// reports.
#[derive(Debug)]
pub struct FaultyFlash<D> {
    inner: D,
    plan: FaultPlan,
    ops: u64,
    dead: Vec<ZoneId>,
    injected_read_errors: u64,
    injected_write_errors: u64,
    /// Fault decided at submit time, surfaced at poll time — an async
    /// failed completion.
    pending_poll_err: Option<FlashError>,
    /// Latency spike applied to the in-flight batch's completions.
    pending_extra: Nanos,
}

impl<D: ZonedFlash> FaultyFlash<D> {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: D, plan: FaultPlan) -> Self {
        FaultyFlash {
            inner,
            plan,
            ops: 0,
            dead: Vec::new(),
            injected_read_errors: 0,
            injected_write_errors: 0,
            pending_poll_err: None,
            pending_extra: Nanos::ZERO,
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwraps the device, discarding the plan.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Device operations observed so far — the index space rule windows
    /// are expressed in. Each append, finish, reset, `read_pages_into`
    /// call, and each *page* of a submitted batch counts as one operation.
    pub fn ops_observed(&self) -> u64 {
        self.ops
    }

    /// Zones the plan has permanently killed so far.
    pub fn dead_zones(&self) -> &[ZoneId] {
        &self.dead
    }

    /// One step of the op stream: advances the counter and resolves
    /// `op` on `zone` against the dead set and the plan.
    fn decide(&mut self, op: FaultOp, zone: ZoneId) -> Option<FaultKind> {
        let idx = self.ops;
        self.ops += 1;
        if self.dead.contains(&zone) {
            // A dead zone stays dead regardless of the rule list.
            return Some(FaultKind::KillZone);
        }
        let kind = self.plan.decide(idx, op, zone)?;
        if kind == FaultKind::KillZone && !self.dead.contains(&zone) {
            self.dead.push(zone);
        }
        Some(kind)
    }

    /// Decides one blocking read's fate: the injected error, or the
    /// latency to add to a read that goes through. A torn record does
    /// not perturb reads.
    fn read_fate(&mut self, zone: ZoneId) -> Result<Nanos, FlashError> {
        match self.decide(FaultOp::Read, zone) {
            Some(FaultKind::TransientError) => {
                self.injected_read_errors += 1;
                Err(Self::transient_err("read"))
            }
            Some(FaultKind::KillZone) => {
                self.injected_read_errors += 1;
                Err(Self::dead_zone_err(zone))
            }
            Some(FaultKind::LatencySpike(extra)) => Ok(extra),
            Some(FaultKind::TornRecord) | None => Ok(Nanos::ZERO),
        }
    }

    fn dead_zone_err(zone: ZoneId) -> FlashError {
        FlashError::io_permanent(format!("injected fault: zone {} failed", zone.0))
    }

    fn transient_err(op: &str) -> FlashError {
        FlashError::io_transient(format!("injected transient {op} error"))
    }
}

impl<D: ZonedFlash> ZonedFlash for FaultyFlash<D> {
    fn geometry(&self) -> Geometry {
        self.inner.geometry()
    }

    fn zone_state(&self, zone: ZoneId) -> ZoneState {
        self.inner.zone_state(zone)
    }

    fn write_pointer(&self, zone: ZoneId) -> u32 {
        self.inner.write_pointer(zone)
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn reset_count(&self, zone: ZoneId) -> u64 {
        self.inner.reset_count(zone)
    }

    fn suspect_zones(&self) -> &[ZoneId] {
        self.inner.suspect_zones()
    }

    fn tear_zone_record(&mut self, zone: ZoneId) -> Result<(), FlashError> {
        self.inner.tear_zone_record(zone)
    }

    fn append(
        &mut self,
        zone: ZoneId,
        data: &[u8],
        now: Nanos,
    ) -> Result<(PageAddr, Nanos), FlashError> {
        match self.decide(FaultOp::Write, zone) {
            Some(FaultKind::TransientError) => {
                self.injected_write_errors += 1;
                Err(Self::transient_err("append"))
            }
            Some(FaultKind::KillZone) => {
                self.injected_write_errors += 1;
                Err(Self::dead_zone_err(zone))
            }
            Some(FaultKind::TornRecord) => {
                let res = self.inner.append(zone, data, now)?;
                // Backends without persistent records cannot tear; the
                // append still succeeded, so this is not a failure.
                let _ = self.inner.tear_zone_record(zone);
                Ok(res)
            }
            Some(FaultKind::LatencySpike(extra)) => {
                let (addr, done) = self.inner.append(zone, data, now)?;
                Ok((addr, done + extra))
            }
            None => self.inner.append(zone, data, now),
        }
    }

    fn read_pages_into(
        &mut self,
        addr: PageAddr,
        pages: u32,
        out: &mut [u8],
        now: Nanos,
    ) -> Result<Nanos, FlashError> {
        let extra = self.read_fate(ZoneId(addr.zone))?;
        Ok(self.inner.read_pages_into(addr, pages, out, now)? + extra)
    }

    /// One [`FaultOp::Read`] fate, decided as for a one-page
    /// [`Self::read_pages_into`].
    fn read_page_with(
        &mut self,
        addr: PageAddr,
        now: Nanos,
        page: &mut dyn FnMut(&[u8]),
    ) -> Result<Nanos, FlashError> {
        let extra = self.read_fate(ZoneId(addr.zone))?;
        Ok(self.inner.read_page_with(addr, now, page)? + extra)
    }

    fn submit_read_batch(
        &mut self,
        batch: &mut ReadBatch,
        addrs: &[PageAddr],
        out: &mut [u8],
        now: Nanos,
        queue_depth: usize,
    ) -> Result<(), FlashError> {
        // Resolve every page's fate up front so the op counter advances
        // identically whether or not the batch ends up failing.
        let mut fail: Option<FlashError> = None;
        let mut extra = Nanos::ZERO;
        for &addr in addrs {
            match self.decide(FaultOp::Read, ZoneId(addr.zone)) {
                Some(FaultKind::TransientError) => {
                    self.injected_read_errors += 1;
                    fail.get_or_insert_with(|| Self::transient_err("async read"));
                }
                Some(FaultKind::KillZone) => {
                    self.injected_read_errors += 1;
                    fail.get_or_insert_with(|| Self::dead_zone_err(ZoneId(addr.zone)));
                }
                Some(FaultKind::LatencySpike(e)) => extra = extra.max(e),
                Some(FaultKind::TornRecord) | None => {}
            }
        }
        self.inner
            .submit_read_batch(batch, addrs, out, now, queue_depth)?;
        // An injected fault surfaces as a failed *completion*: the
        // submission succeeds and poll_completions returns the error,
        // exercising the path a kernel-ring backend would use.
        self.pending_poll_err = fail;
        self.pending_extra = extra;
        Ok(())
    }

    fn poll_completions(
        &mut self,
        batch: &mut ReadBatch,
        completions: &mut Vec<ReadCompletion>,
    ) -> Result<bool, FlashError> {
        if let Some(err) = self.pending_poll_err.take() {
            self.pending_extra = Nanos::ZERO;
            // Drain the inner batch so its bookkeeping is not left
            // mid-flight; the completions are discarded — the caller
            // must treat the whole batch as failed and resubmit.
            let mut sink = Vec::new();
            while !self.inner.poll_completions(batch, &mut sink)? {}
            return Err(err);
        }
        let start = completions.len();
        let done = self.inner.poll_completions(batch, completions)?;
        if self.pending_extra > Nanos::ZERO {
            for c in &mut completions[start..] {
                c.done += self.pending_extra;
            }
            if done {
                self.pending_extra = Nanos::ZERO;
            }
        }
        Ok(done)
    }

    fn finish_zone(&mut self, zone: ZoneId) -> Result<(), FlashError> {
        match self.decide(FaultOp::Write, zone) {
            Some(FaultKind::TransientError) => {
                self.injected_write_errors += 1;
                Err(Self::transient_err("finish"))
            }
            Some(FaultKind::KillZone) => {
                self.injected_write_errors += 1;
                Err(Self::dead_zone_err(zone))
            }
            Some(FaultKind::TornRecord) => {
                self.inner.finish_zone(zone)?;
                let _ = self.inner.tear_zone_record(zone);
                Ok(())
            }
            Some(FaultKind::LatencySpike(_)) | None => self.inner.finish_zone(zone),
        }
    }

    fn reset_zone(&mut self, zone: ZoneId, now: Nanos) -> Result<Nanos, FlashError> {
        match self.decide(FaultOp::Reset, zone) {
            Some(FaultKind::TransientError) => {
                self.injected_write_errors += 1;
                Err(Self::transient_err("reset"))
            }
            Some(FaultKind::KillZone) => {
                self.injected_write_errors += 1;
                Err(Self::dead_zone_err(zone))
            }
            Some(FaultKind::LatencySpike(extra)) => Ok(self.inner.reset_zone(zone, now)? + extra),
            Some(FaultKind::TornRecord) | None => self.inner.reset_zone(zone, now),
        }
    }

    fn stats(&self) -> DeviceStats {
        let mut stats = self.inner.stats();
        stats.read_errors += self.injected_read_errors;
        stats.write_errors += self.injected_write_errors;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dies::LatencyModel;
    use crate::zoned::SimFlash;

    fn dev(plan: FaultPlan) -> FaultyFlash<SimFlash> {
        FaultyFlash::new(
            SimFlash::with_latency(Geometry::new(512, 4, 4, 2), LatencyModel::default()),
            plan,
        )
    }

    fn fill_zone(dev: &mut FaultyFlash<SimFlash>, zone: u32) -> PageAddr {
        let data = vec![7u8; 512];
        let (addr, _) = dev.append(ZoneId(zone), &data, Nanos::ZERO).unwrap();
        addr
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut d = dev(FaultPlan::new(1));
        let addr = fill_zone(&mut d, 0);
        let (back, _) = d.read_pages(addr, 1, Nanos::ZERO).unwrap();
        assert_eq!(back, vec![7u8; 512]);
        assert_eq!(d.stats().read_errors, 0);
        assert_eq!(d.stats().write_errors, 0);
    }

    #[test]
    fn fail_next_reads_is_transient_then_clears() {
        let mut d = dev(FaultPlan::new(2).fail_next(FaultOp::Read, 2));
        let addr = fill_zone(&mut d, 0);
        let mut buf = vec![0u8; 512];
        for _ in 0..2 {
            let err = d
                .read_pages_into(addr, 1, &mut buf, Nanos::ZERO)
                .unwrap_err();
            assert!(err.is_transient(), "{err}");
        }
        // Budget exhausted: the same read now succeeds.
        d.read_pages_into(addr, 1, &mut buf, Nanos::ZERO).unwrap();
        assert_eq!(buf, vec![7u8; 512]);
        assert_eq!(d.stats().read_errors, 2);
    }

    #[test]
    fn killed_zone_fails_permanently_and_forever() {
        let mut d = dev(FaultPlan::new(3).kill_zone(ZoneId(1), 0));
        fill_zone(&mut d, 0); // other zones unaffected
        let err = d
            .append(ZoneId(1), &vec![1u8; 512], Nanos::ZERO)
            .unwrap_err();
        assert!(!err.is_transient(), "{err}");
        // Still dead on the next touch, long after the rule's budget.
        let err = d
            .append(ZoneId(1), &vec![1u8; 512], Nanos::ZERO)
            .unwrap_err();
        assert!(!err.is_transient());
        assert_eq!(d.dead_zones(), &[ZoneId(1)]);
        assert_eq!(d.stats().write_errors, 2);
    }

    #[test]
    fn latency_spike_delays_but_succeeds() {
        let spike = Nanos(1_000_000);
        let mut quiet = dev(FaultPlan::new(4));
        let mut storm = dev(FaultPlan::new(4).latency_storm(0, u64::MAX, spike));
        let a0 = fill_zone(&mut quiet, 0);
        let a1 = fill_zone(&mut storm, 0);
        let mut buf = vec![0u8; 512];
        let t_quiet = quiet.read_pages_into(a0, 1, &mut buf, Nanos::ZERO).unwrap();
        let t_storm = storm.read_pages_into(a1, 1, &mut buf, Nanos::ZERO).unwrap();
        // The append's spike only stretched the append's own reported
        // completion; the read sees exactly one spike.
        assert_eq!(t_storm, t_quiet + spike);
        assert_eq!(storm.stats().read_errors, 0);
    }

    #[test]
    fn async_faults_surface_at_poll_not_submit() {
        let mut d = dev(FaultPlan::new(5).transient_read_burst(2, 3));
        let a = fill_zone(&mut d, 0);
        let b = fill_zone(&mut d, 1);
        let mut batch = ReadBatch::new();
        let mut out = vec![0u8; 1024];
        // Ops 0/1 were the appends; the batch's two pages are ops 2 and 3,
        // the first inside the burst window.
        d.submit_read_batch(&mut batch, &[a, b], &mut out, Nanos::ZERO, 2)
            .unwrap();
        let mut comps = Vec::new();
        let err = d.poll_completions(&mut batch, &mut comps).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert!(comps.is_empty(), "failed batch delivers no completions");
        // Resubmitting outside the window succeeds end to end.
        d.submit_read_batch(&mut batch, &[a, b], &mut out, Nanos::ZERO, 2)
            .unwrap();
        let mut comps = Vec::new();
        assert!(d.poll_completions(&mut batch, &mut comps).unwrap());
        assert_eq!(comps.len(), 2);
        assert_eq!(d.stats().read_errors, 1);
    }

    #[test]
    fn torn_record_surfaces_as_suspect_on_reopen() {
        let path = std::env::temp_dir().join("nemo_faulty_torn_record.img");
        let geom = Geometry::new(512, 4, 4, 2);
        {
            let inner = SimFlash::file_backed(geom, LatencyModel::default(), &path).unwrap();
            let mut d = FaultyFlash::new(
                inner,
                FaultPlan::new(6).torn_record_on_append(Some(ZoneId(2))),
            );
            d.append(ZoneId(0), &vec![1u8; 512], Nanos::ZERO).unwrap();
            d.append(ZoneId(2), &vec![2u8; 512], Nanos::ZERO).unwrap();
        }
        let reopened = SimFlash::open_file_backed(geom, LatencyModel::default(), &path).unwrap();
        assert_eq!(reopened.suspect_zones(), &[ZoneId(2)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn probabilistic_rules_are_seed_deterministic() {
        let plan = || {
            FaultPlan::new(0xDEAD_BEEF).rule(FaultRule {
                probability: 0.5,
                ..FaultRule::every(FaultOp::Read, FaultKind::TransientError)
            })
        };
        let run = |mut d: FaultyFlash<SimFlash>| -> Vec<bool> {
            let addr = fill_zone(&mut d, 0);
            let mut buf = vec![0u8; 512];
            (0..64)
                .map(|_| d.read_pages_into(addr, 1, &mut buf, Nanos::ZERO).is_err())
                .collect()
        };
        let a = run(dev(plan()));
        let b = run(dev(plan()));
        assert_eq!(a, b, "same seed, same workload, same faults");
        let fails = a.iter().filter(|&&f| f).count();
        assert!(fails > 8 && fails < 56, "p=0.5 fired {fails}/64 times");
    }
}
