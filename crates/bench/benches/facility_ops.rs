//! Facility hot-path costs — the §3.5 overhead numbers.
//!
//! * `maintenance_op` — one container-maintenance operation (counter
//!   read, metrics, model evaluation, statistics update). Paper: 0.95 µs.
//! * `recalibration` — one least-squares model refit. Paper: 16 µs.
//! * `duty_set` — one duty-cycle adjustment. Paper: < 0.2 µs.
//! * `container_attribute` — one per-interval container update.
//! * `manager_checkpoint_records_1e3` / `_1e5` — one crash-journal entry
//!   (the cluster engine writes one per live node every 50 ms) for a
//!   manager with 32 live containers and 10³ or 10⁵ retained records.
//!   The journal holds only a watermark into the record log, so the two
//!   timings should be about equal.

use criterion::{criterion_group, criterion_main, Criterion};
use hwsim::{CoreId, CounterBlock, DutyCycle};
use ossim::{ContextId, KernelApi, KernelHooks, TaskId};
use pc_bench::{facility_fixture, synthetic_calibration};
use power_containers::{ContainerManager, MetricVector, ModelKind, Recalibrator};
use simkern::{SimDuration, SimTime};
use std::hint::black_box;

fn maintenance_op(c: &mut Criterion) {
    let (mut facility, mut machine) = facility_fixture();
    let running = vec![Some(TaskId(0)), None, None, None];
    let contexts = vec![Some(ContextId(1))];
    {
        let mut api = KernelApi::new(SimTime::ZERO, &mut machine, &running, &contexts);
        facility.on_boot(&mut api);
    }
    let mut t = SimTime::ZERO;
    c.bench_function("maintenance_op", |b| {
        b.iter(|| {
            t += SimDuration::from_millis(1);
            machine.advance_to(t);
            let mut api = KernelApi::new(t, &mut machine, &running, &contexts);
            facility.on_pmu_interrupt(&mut api, CoreId(0), TaskId(0));
        })
    });
}

fn recalibration(c: &mut Criterion) {
    let set = synthetic_calibration();
    let mut r = Recalibrator::new(&set, ModelKind::WithChipShare);
    let m = MetricVector { core: 1.0, ins: 2.0, chipshare: 1.0, ..MetricVector::default() };
    for _ in 0..64 {
        r.add_online_sample(m, 18.0);
    }
    c.bench_function("recalibration", |b| {
        b.iter(|| black_box(r.refit().expect("refit")))
    });
}

fn duty_set(c: &mut Criterion) {
    let (_, mut machine) = facility_fixture();
    let levels = [DutyCycle::FULL, DutyCycle::new(4).expect("valid")];
    let mut i = 0usize;
    c.bench_function("duty_set", |b| {
        b.iter(|| {
            i += 1;
            machine.set_duty_cycle(CoreId(0), levels[i & 1]);
            black_box(&machine);
        })
    });
}

fn container_attribute(c: &mut Criterion) {
    let mut manager = ContainerManager::new(false);
    let ctx = ContextId(1);
    manager.bind(ctx, SimTime::ZERO);
    let events = CounterBlock {
        elapsed_cycles: 3.1e6,
        nonhalt_cycles: 3.1e6,
        instructions: 6e6,
        ..CounterBlock::default()
    };
    c.bench_function("container_attribute", |b| {
        b.iter(|| {
            manager.attribute(Some(ctx), 12.0, 1.0, 1e-3, black_box(&events), SimTime::ZERO);
        })
    });
}

fn manager_checkpoint(c: &mut Criterion) {
    for (id, retained) in
        [("manager_checkpoint_records_1e3", 1_000u64), ("manager_checkpoint_records_1e5", 100_000)]
    {
        let mut manager = ContainerManager::new(true);
        for ctx in 0..retained + 32 {
            let ctx = ContextId(ctx);
            manager.bind(ctx, SimTime::ZERO);
            manager.attribute(Some(ctx), 12.0, 1.0, 1e-3, &CounterBlock::default(), SimTime::ZERO);
            if ctx.0 < retained {
                manager.unbind(ctx, SimTime::from_millis(1));
            }
        }
        assert_eq!(manager.records().len() as u64, retained);
        assert_eq!(manager.live_count(), 32);
        let now = SimTime::from_millis(2);
        c.bench_function(id, |b| b.iter(|| black_box(manager.checkpoint(now))));
    }
}

criterion_group!(
    benches,
    maintenance_op,
    recalibration,
    duty_set,
    container_attribute,
    manager_checkpoint
);
criterion_main!(benches);
