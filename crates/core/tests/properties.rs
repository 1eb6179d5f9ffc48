//! Property-based tests for the power-containers core.

use hwsim::{CoreId, MachineSpec};
use ossim::ContextId;
use power_containers::{
    BankConfig, CalibrationSample, CalibrationSet, ConditioningPolicy, ContainerManager,
    ContainerRecord, ManagerCheckpoint, MetricVector, ModelBank, ModelKind, PowerModel,
    SampleBoard, TraceRing,
};
use proptest::prelude::*;
use simkern::{SimDuration, SimTime};

/// A small offline calibration set under a fixed linear power law, for
/// the model-bank properties.
fn bank_offline_set() -> CalibrationSet {
    let mut set = CalibrationSet::new(26.1);
    for level in [0.25, 0.5, 0.75, 1.0f64] {
        for f in 0..6 {
            let mut a = [0.0; 8];
            a[0] = level;
            a[f] = level;
            a[5] = 1.0;
            let truth = [8.0, 3.0, 1.5, 3.5, 2.0, 5.6, 0.0, 0.0];
            let watts: f64 = a.iter().zip(truth).map(|(x, c)| x * c).sum();
            set.push(CalibrationSample {
                metrics: MetricVector::from_slice(&a),
                active_watts: watts,
            });
        }
    }
    set
}

/// The reference window the bank properties observe and predict on.
fn bank_busy() -> MetricVector {
    MetricVector { core: 1.0, ins: 2.0, chipshare: 1.0, ..Default::default() }
}

/// True active power of [`bank_busy`] under the calibration-time law.
const BANK_BUSY_W: f64 = 8.0 + 2.0 * 3.0 + 5.6;

proptest! {
    /// Eq. 3 chip shares are in [0, 1] and sum to at most ~1 per chip for
    /// any utilization pattern.
    #[test]
    fn chipshare_bounded_and_conserving(
        utils in prop::collection::vec(0.0f64..=1.0, 4),
        idle in prop::collection::vec(any::<bool>(), 4),
    ) {
        let spec = MachineSpec::sandybridge();
        let mut board = SampleBoard::new(4);
        for (c, &u) in utils.iter().enumerate() {
            board.publish(CoreId(c), u, SimTime::ZERO);
        }
        let mut total = 0.0;
        for (c, &u) in utils.iter().enumerate() {
            let share = board.chipshare(&spec, CoreId(c), u, |s| idle[s.0]);
            prop_assert!((0.0..=1.0).contains(&share));
            total += share;
        }
        // With the idle-sibling correction the shares can over-count only
        // when records are stale; with fresh records they stay ≤ ~1 plus
        // the idle-masking effect.
        let awake: f64 = utils
            .iter()
            .zip(&idle)
            .filter(|(_, &i)| !i)
            .map(|(u, _)| *u)
            .sum();
        if awake > 0.0 {
            prop_assert!(total <= 4.0, "share total {total}");
        }
    }

    /// Model predictions are non-negative and linear in the metrics.
    #[test]
    fn model_nonnegative_and_linear(
        coeffs in prop::collection::vec(0.0f64..20.0, 8),
        metrics in prop::collection::vec(0.0f64..2.0, 8),
        scale in 0.0f64..4.0,
    ) {
        let mut c = [0.0; 8];
        c.copy_from_slice(&coeffs);
        let model = PowerModel::new(ModelKind::WithChipShare, 26.1, c);
        let m = MetricVector::from_slice(&metrics);
        let p1 = model.active_power(&m);
        let p2 = model.active_power(&(m * scale));
        prop_assert!(p1 >= 0.0);
        prop_assert!((p2 - p1 * scale).abs() < 1e-9 * (1.0 + p2));
    }

    /// Container energy bookkeeping conserves attributed energy across
    /// arbitrary bind/attribute/unbind interleavings.
    #[test]
    fn container_energy_conserved(
        ops in prop::collection::vec((0u64..8, 0.0f64..50.0, 0.001f64..0.01), 1..100)
    ) {
        let mut mgr = ContainerManager::new(true);
        let mut expected = 0.0;
        for (ctx, watts, dt) in &ops {
            let ctx = ContextId(*ctx);
            mgr.bind(ctx, SimTime::ZERO);
            mgr.attribute(
                Some(ctx),
                *watts,
                1.0,
                *dt,
                &hwsim::CounterBlock::default(),
                SimTime::ZERO,
            );
            expected += watts * dt;
        }
        // Release everything.
        for (ctx, _, _) in &ops {
            mgr.unbind(ContextId(*ctx), SimTime::from_millis(1));
        }
        let live: f64 = mgr.iter_live().map(|(_, c)| c.energy_j()).sum();
        let recorded: f64 = mgr.records().iter().map(|r| r.energy_j).sum();
        prop_assert!(
            (live + recorded - expected).abs() < 1e-9 * (1.0 + expected),
            "live {live} + recorded {recorded} != attributed {expected}"
        );
        prop_assert!((mgr.total_request_energy_j() - expected).abs() < 1e-9 * (1.0 + expected));
    }

    /// TraceRing integrals are additive over adjacent intervals.
    #[test]
    fn trace_integral_additive(
        samples in prop::collection::vec((0u64..20_000_000, 0.0f64..100.0), 1..100),
        cut in 1u64..20,
    ) {
        let mut ring: TraceRing<f64> = TraceRing::new(SimDuration::from_millis(1), 64);
        for (ns, w) in &samples {
            ring.add(SimTime::from_nanos(*ns), *w, SimDuration::from_micros(100));
        }
        let t0 = SimTime::ZERO;
        let tm = SimTime::from_millis(cut);
        let t1 = SimTime::from_millis(40);
        let (full, secs_full) = ring.integral_between(t0, t1);
        let (a, sa) = ring.integral_between(t0, tm);
        let (b, sb) = ring.integral_between(tm, t1);
        prop_assert!((full - (a + b)).abs() < 1e-9 * (1.0 + full.abs()));
        prop_assert!((secs_full - (sa + sb)).abs() < 1e-12 + 1e-9 * secs_full);
    }

    /// The conditioning policy never throttles within-budget requests and
    /// never produces a duty level whose projected power exceeds budget
    /// (modulo the 1/8 hardware floor).
    #[test]
    fn conditioning_respects_budget(
        target in 1.0f64..200.0,
        unthrottled in 0.0f64..100.0,
        busy in 1usize..16,
    ) {
        let policy = ConditioningPolicy::new(target);
        let duty = policy.duty_for(unthrottled, busy, None);
        let budget = policy.per_request_budget_w(busy);
        if unthrottled <= budget {
            prop_assert_eq!(duty, hwsim::DutyCycle::FULL);
        } else {
            let projected = unthrottled * duty.fraction();
            prop_assert!(
                projected <= budget + 1e-9 || duty == hwsim::DutyCycle::MIN,
                "projected {projected} over budget {budget} at duty {duty}"
            );
        }
    }
}

proptest! {
    /// Checkpointing a manager and restoring it into a fresh (post-crash)
    /// incarnation conserves refcounted container state exactly: every
    /// journaled live container is force-released into a record exactly
    /// once (none leaked, none double-freed), already-released records
    /// carry over verbatim, and the cumulative energy totals survive.
    #[test]
    fn checkpoint_restore_conserves_refcounts(
        ops in prop::collection::vec(
            (0u64..6, 1u32..3, 0.0f64..20.0, 0.001f64..0.01, any::<bool>()),
            1..60,
        )
    ) {
        let mut mgr = ContainerManager::new(true);
        for (ctx, binds, watts, dt, unbind_one) in &ops {
            let ctx = ContextId(*ctx);
            for _ in 0..*binds {
                mgr.bind(ctx, SimTime::ZERO);
            }
            mgr.attribute(
                Some(ctx),
                *watts,
                1.0,
                *dt,
                &hwsim::CounterBlock::default(),
                SimTime::ZERO,
            );
            if *unbind_one {
                mgr.unbind(ctx, SimTime::from_millis(1));
            }
        }
        let t = SimTime::from_millis(2);
        let cp = mgr.checkpoint(t);
        // The journal is deterministic: same state, same digest.
        prop_assert_eq!(cp.digest(), mgr.checkpoint(t).digest());
        let live_before = mgr.live_count();
        let released_before = mgr.released_count();
        let records_before = mgr.records().len();
        let total_before = mgr.total_request_energy_j();

        let mut fresh = ContainerManager::new(true);
        let restored = fresh.restore(&cp, mgr.take_records(), t);
        // Every journaled live container was force-released exactly once.
        prop_assert_eq!(restored as usize, live_before);
        prop_assert_eq!(fresh.live_count(), 0);
        prop_assert_eq!(fresh.released_count(), released_before + live_before as u64);
        prop_assert_eq!(fresh.records().len(), records_before + live_before);
        // Cumulative attribution survives the restart bit-for-bit.
        prop_assert!(
            (fresh.total_request_energy_j() - total_before).abs()
                < 1e-9 * (1.0 + total_before),
            "restored totals {} != checkpointed totals {}",
            fresh.total_request_energy_j(),
            total_before
        );
    }

    /// Refcounts never leak across repeated crash/restart cycles: after
    /// each restore the record ledger and the release counter agree
    /// (every container created was dropped or restored, none
    /// double-freed), and the cumulative energy attributed across the
    /// whole history survives every cycle (the checkpoint is taken at
    /// the crash instant, so the loss window is empty).
    #[test]
    fn crash_cycles_never_leak_containers(
        cycles in prop::collection::vec(
            prop::collection::vec(
                (0u64..8, 0.0f64..10.0, 0.001f64..0.01, any::<bool>()),
                1..20,
            ),
            1..5,
        )
    ) {
        let mut mgr = ContainerManager::new(true);
        let mut expected = 0.0;
        let mut now_ms = 1u64;
        for ops in &cycles {
            for (ctx, watts, dt, unbind) in ops {
                let ctx = ContextId(*ctx);
                mgr.bind(ctx, SimTime::from_millis(now_ms));
                mgr.attribute(
                    Some(ctx),
                    *watts,
                    1.0,
                    *dt,
                    &hwsim::CounterBlock::default(),
                    SimTime::from_millis(now_ms),
                );
                expected += watts * dt;
                if *unbind {
                    mgr.unbind(ctx, SimTime::from_millis(now_ms));
                }
                now_ms += 1;
            }
            let cp = mgr.checkpoint(SimTime::from_millis(now_ms));
            let mut fresh = ContainerManager::new(true);
            let restored = fresh.restore(&cp, mgr.take_records(), SimTime::from_millis(now_ms));
            prop_assert_eq!(restored as usize, cp.live.len());
            prop_assert_eq!(fresh.live_count(), 0, "all journaled containers resolved");
            prop_assert_eq!(
                fresh.records().len() as u64,
                fresh.released_count(),
                "record ledger and release counter must agree after restore"
            );
            mgr = fresh;
        }
        prop_assert!(
            (mgr.total_request_energy_j() - expected).abs() < 1e-9 * (1.0 + expected),
            "cumulative energy {} must survive every crash/restart cycle (want {})",
            mgr.total_request_energy_j(),
            expected
        );
    }
}

/// One step of a container-manager history for the journal oracle.
#[derive(Debug, Clone)]
enum JournalOp {
    Bind(u64),
    Label(u64, u32),
    /// (ctx or background, watts, duty, seconds)
    Attribute(Option<u64>, f64, f64, f64),
    Io(Option<u64>, f64),
    Unbind(u64),
    /// Periodic journal entry.
    Checkpoint,
    /// Crash and restore from the last journal entry, then re-journal.
    Crash,
    /// Clean drain to standby (journal at the freeze instant), then
    /// provision again from that entry.
    DrainAndProvision,
}

/// Draws one [`JournalOp`]; the selector's ranges weight the mix
/// towards attribution, with a checkpoint about every tenth step.
fn journal_op() -> impl Strategy<Value = JournalOp> {
    (0u32..22, 0u64..8, 0.0f64..30.0, 0.1f64..1.0, 0.0005f64..0.01).prop_map(
        |(k, c, w, d, dt)| {
            // Every fifth attribution lands in the background container.
            let target = if k % 5 == 0 { None } else { Some(c) };
            match k {
                0..=3 => JournalOp::Bind(c),
                4 => JournalOp::Label(c, w as u32 % 4),
                5..=10 => JournalOp::Attribute(target, w, d, dt),
                11..=12 => JournalOp::Io(target, w / 60.0),
                13..=16 => JournalOp::Unbind(c),
                17..=18 => JournalOp::Checkpoint,
                19 => JournalOp::Crash,
                _ => JournalOp::DrainAndProvision,
            }
        },
    )
}

/// Every field of a record as raw bits, so equality is bit-equality.
fn record_bits(r: &ContainerRecord) -> [u64; 11] {
    [
        r.ctx.0,
        r.label.map_or(u64::MAX, u64::from),
        r.created_at.as_nanos(),
        r.finished_at.as_nanos(),
        r.energy_j.to_bits(),
        r.io_energy_j.to_bits(),
        r.throttled_j.to_bits(),
        r.busy_seconds.to_bits(),
        r.mean_power_w.to_bits(),
        r.unthrottled_power_w.to_bits(),
        r.mean_duty.to_bits(),
    ]
}

/// Restores `cp` into a fresh manager from `old`'s moved record log and
/// checks it against `oracle`, the clone of the record log the test took
/// when `cp` was written: the first `records_len` records must be
/// bit-equal to the oracle, and the rest must be exactly the journaled
/// live containers, force-released at `now` in journal order.
fn restore_against_oracle(
    old: &mut ContainerManager,
    cp: &ManagerCheckpoint,
    oracle: &[ContainerRecord],
    now: SimTime,
) -> Result<ContainerManager, TestCaseError> {
    let mut fresh = ContainerManager::new(true);
    let restored = fresh.restore(cp, old.take_records(), now);
    prop_assert!(old.records().is_empty(), "the dead incarnation's log must be moved");
    prop_assert_eq!(cp.records_len, oracle.len());
    prop_assert_eq!(restored as usize, cp.live.len());
    let records = fresh.records();
    prop_assert_eq!(records.len(), cp.records_len + cp.live.len());
    for (got, want) in records.iter().zip(oracle) {
        prop_assert_eq!(record_bits(got), record_bits(want));
    }
    for (r, s) in records[cp.records_len..].iter().zip(&cp.live) {
        prop_assert_eq!(r.ctx, s.ctx);
        prop_assert_eq!(r.label, s.label);
        prop_assert_eq!(r.created_at, s.created_at);
        prop_assert_eq!(r.finished_at, now);
        prop_assert_eq!(r.energy_j.to_bits(), s.energy_j.to_bits());
        prop_assert_eq!(r.io_energy_j.to_bits(), s.io_energy_j.to_bits());
        prop_assert_eq!(r.throttled_j.to_bits(), s.throttled_j.to_bits());
        prop_assert_eq!(r.busy_seconds.to_bits(), s.busy_seconds.to_bits());
    }
    prop_assert_eq!(fresh.live_count(), 0);
    prop_assert_eq!(fresh.released_count(), cp.released + cp.live.len() as u64);
    prop_assert_eq!(
        fresh.total_request_energy_j().to_bits(),
        cp.total_request_energy_j.to_bits()
    );
    prop_assert_eq!(
        fresh.total_request_io_energy_j().to_bits(),
        cp.total_request_io_energy_j.to_bits()
    );
    prop_assert_eq!(fresh.background().energy_j().to_bits(), cp.background_energy_j.to_bits());
    prop_assert_eq!(
        fresh.background().io_energy_j().to_bits(),
        cp.background_io_energy_j.to_bits()
    );
    Ok(fresh)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The watermark journal restores exactly what a full copy would
    /// have: over random bind/label/attribute/unbind histories with
    /// periodic checkpoints, crashes at arbitrary points after the last
    /// checkpoint (including back-to-back crashes that re-journal right
    /// after restore) and drain → standby → provision cycles, the
    /// records restored from the moved, truncated log are bit-equal to a
    /// clone of the log taken when the checkpoint was written.
    #[test]
    fn watermark_restore_matches_a_cloned_journal(
        ops in prop::collection::vec(journal_op(), 1..120),
    ) {
        let mut mgr = ContainerManager::new(true);
        let mut cp = mgr.checkpoint(SimTime::ZERO);
        let mut oracle: Vec<ContainerRecord> = mgr.records().to_vec();
        let events = hwsim::CounterBlock::default();
        let mut now_ms = 0u64;
        for op in ops.iter().chain([JournalOp::Crash, JournalOp::Crash].iter()) {
            now_ms += 1;
            let now = SimTime::from_millis(now_ms);
            match *op {
                JournalOp::Bind(c) => mgr.bind(ContextId(c), now),
                JournalOp::Label(c, l) => mgr.set_label(ContextId(c), l, now),
                JournalOp::Attribute(c, w, d, dt) => {
                    mgr.attribute(c.map(ContextId), w, d, dt, &events, now)
                }
                JournalOp::Io(c, j) => mgr.attribute_io(c.map(ContextId), j, now),
                JournalOp::Unbind(c) => mgr.unbind(ContextId(c), now),
                JournalOp::Checkpoint => {
                    cp = mgr.checkpoint(now);
                    oracle = mgr.records().to_vec();
                }
                JournalOp::Crash => {
                    mgr = restore_against_oracle(&mut mgr, &cp, &oracle, now)?;
                    cp = mgr.checkpoint(now);
                    oracle = mgr.records().to_vec();
                }
                JournalOp::DrainAndProvision => {
                    cp = mgr.checkpoint(now);
                    oracle = mgr.records().to_vec();
                    prop_assert_eq!(cp.records_len, mgr.records().len());
                    now_ms += 50;
                    let ready = SimTime::from_millis(now_ms);
                    mgr = restore_against_oracle(&mut mgr, &cp, &oracle, ready)?;
                    cp = mgr.checkpoint(ready);
                    oracle = mgr.records().to_vec();
                }
            }
        }
    }
}

proptest! {
    /// A quarantined slot's fit is never served, no matter what its
    /// window accumulates afterwards: once persistent rejection
    /// quarantines the slot, arbitrary further samples leave the served
    /// model pinned to the bank-wide fallback, and only an accepted
    /// retrain (impossible here — the acceptance screen rejects every
    /// fit) could lift the quarantine.
    #[test]
    fn quarantined_slot_never_serves(
        garbage in prop::collection::vec(0.0f64..500.0, 20..120),
    ) {
        let set = bank_offline_set();
        let initial = set.fit(ModelKind::WithChipShare).unwrap();
        let mut cfg = BankConfig::default();
        cfg.refit_policy.max_condition = 1.0; // every refit rejects
        cfg.drift.quarantine_after = 1;
        let mut bank = ModelBank::new(&set, ModelKind::WithChipShare, initial, cfg);
        let key = bank.classify(0, 1.0, &bank_busy());
        // Wild residual oscillation trips the CUSUM until the rejected
        // drift retrain quarantines the slot.
        let mut quarantined = false;
        for i in 0..400u64 {
            let w = if i % 2 == 0 { 0.0 } else { 300.0 };
            if bank.observe(key, bank_busy(), w, SimTime::from_millis(1 + i)).quarantined {
                quarantined = true;
                break;
            }
        }
        prop_assert!(quarantined, "persistent rejection must quarantine");
        let masked = PowerModel::mask_metrics(ModelKind::WithChipShare, bank_busy());
        let fallback = bank.current_model().active_power(&masked);
        for (i, w) in garbage.iter().enumerate() {
            bank.observe(key, bank_busy(), *w, SimTime::from_millis(1000 + i as u64));
            prop_assert!(bank.is_quarantined(key), "nothing may lift the quarantine");
            let served = bank.current_model().active_power(&masked);
            prop_assert!(
                (served - fallback).abs() < 1e-9,
                "quarantined window leaked into serving: {served} vs {fallback}"
            );
        }
    }

    /// The bank reconverges after a fault burst clears: an arbitrary
    /// stretch of corrupt meter readings (any length, any values) may
    /// trip drift retrains, rejections, staleness resets, even
    /// quarantine — but once clean readings resume, the served model
    /// returns to within 5% of the true law.
    #[test]
    fn bank_reconverges_after_fault_burst(
        burst in prop::collection::vec(0.0f64..200.0, 10..100),
    ) {
        let set = bank_offline_set();
        let initial = set.fit(ModelKind::WithChipShare).unwrap();
        let mut bank =
            ModelBank::new(&set, ModelKind::WithChipShare, initial, BankConfig::default());
        let key = bank.classify(0, 1.0, &bank_busy());
        let mut t = 1u64;
        let mut feed = |bank: &mut ModelBank, w: f64| {
            let now = SimTime::from_millis(t);
            t += 1;
            bank.observe(key, bank_busy(), w, now);
        };
        for _ in 0..50 {
            feed(&mut bank, BANK_BUSY_W);
        }
        for w in &burst {
            feed(&mut bank, *w);
        }
        // Clean readings resume for two window lengths.
        for _ in 0..600 {
            feed(&mut bank, BANK_BUSY_W);
        }
        prop_assert!(!bank.is_quarantined(key), "accepted retrain must restore");
        let masked = PowerModel::mask_metrics(ModelKind::WithChipShare, bank_busy());
        let served = bank.current_model().active_power(&masked);
        prop_assert!(
            (served - BANK_BUSY_W).abs() / BANK_BUSY_W < 0.05,
            "served {served} must reconverge to {BANK_BUSY_W}"
        );
    }
}

proptest! {
    /// Graceful drain vs crash: the elastic autoscaler's scale-in path
    /// journals its final [`ManagerCheckpoint`] at the freeze instant,
    /// so the drain's loss window — `attributed − checkpointed` — is
    /// *exactly* zero for any attribution history; a crash restoring a
    /// stale periodic checkpoint loses exactly the energy attributed
    /// after it, and nothing else.
    #[test]
    fn drain_checkpoint_loses_exactly_zero_energy(
        // (cpu_j, io_j, to_background) attribution steps, one per ms.
        steps in prop::collection::vec(
            (0.0f64..5.0, 0.0f64..1.0, any::<bool>()),
            2..60,
        ),
        // The stale periodic checkpoint sits this many steps before the
        // end — the crash's loss window.
        stale_by in 1usize..40,
    ) {
        let mut mgr = ContainerManager::new(true);
        let events = hwsim::CounterBlock::default();
        let mut stale = ManagerCheckpoint::empty();
        let stale_at = steps.len().saturating_sub(stale_by);
        let mut lost_after_stale = 0.0;
        for (i, &(cpu_j, io_j, bg)) in steps.iter().enumerate() {
            if i == stale_at {
                stale = mgr.checkpoint(SimTime::from_millis(i as u64));
            }
            let now = SimTime::from_millis(1 + i as u64);
            let ctx = if bg { None } else { Some(ContextId(1 + i as u64)) };
            if let Some(c) = ctx {
                mgr.bind(c, now);
            }
            // One 1 ms sample at `cpu_j * 1e3` watts attributes cpu_j.
            mgr.attribute(ctx, cpu_j * 1e3, 1.0, 1e-3, &events, now);
            mgr.attribute_io(ctx, io_j, now);
            if i >= stale_at {
                lost_after_stale += cpu_j * 1e-3 * 1e3 + io_j;
            }
        }
        let live_total = mgr.total_energy_with_background_j()
            + mgr.total_request_io_energy_j()
            + mgr.background().io_energy_j();

        // Graceful drain: checkpoint taken at the freeze instant. Every
        // journaled total is a copy of the live cumulative counter, so
        // each component of the loss window is exactly 0.0 — not merely
        // small. (The aggregate `attributed_energy_j()` sums the same
        // components in a different association order than a live read,
        // so the engine's drain path clamps that sub-nanojoule residue;
        // component-wise the checkpoint is bit-exact.)
        let drain = mgr.checkpoint(SimTime::from_millis(steps.len() as u64));
        prop_assert_eq!(
            drain.total_request_energy_j.to_bits(),
            mgr.total_request_energy_j().to_bits(),
            "clean drain must journal the exact request-energy total"
        );
        prop_assert_eq!(
            drain.total_request_io_energy_j.to_bits(),
            mgr.total_request_io_energy_j().to_bits(),
            "clean drain must journal the exact request-I/O total"
        );
        prop_assert_eq!(
            drain.background_energy_j.to_bits(),
            mgr.background().energy_j().to_bits(),
            "clean drain must journal the exact background energy"
        );
        prop_assert_eq!(
            drain.background_io_energy_j.to_bits(),
            mgr.background().io_energy_j().to_bits(),
            "clean drain must journal the exact background I/O energy"
        );

        // Crash: the stale checkpoint misses exactly the attribution
        // performed after it was taken — a positive loss window
        // whenever any energy landed after the checkpoint.
        let crash_loss = live_total - stale.attributed_energy_j();
        prop_assert!(
            (crash_loss - lost_after_stale).abs() < 1e-9 * (1.0 + lost_after_stale),
            "crash loss window {} must equal post-checkpoint attribution {}",
            crash_loss,
            lost_after_stale
        );
        if lost_after_stale > 0.0 {
            prop_assert!(crash_loss > 0.0, "a crash with post-checkpoint work loses energy");
        }

        // Restoring the drain checkpoint hands the totals to the next
        // incarnation exactly.
        let mut fresh = ContainerManager::new(true);
        fresh.restore(&drain, mgr.take_records(), SimTime::from_millis(1 + steps.len() as u64));
        let restored = fresh.total_energy_with_background_j()
            + fresh.total_request_io_energy_j()
            + fresh.background().io_energy_j();
        prop_assert_eq!(
            restored, live_total,
            "restored incarnation must carry the drained node's exact totals"
        );
    }
}
