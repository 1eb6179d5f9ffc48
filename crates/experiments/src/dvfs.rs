//! Extension experiment: per-request duty-cycle conditioning vs
//! whole-machine DVFS capping.
//!
//! §3.4 argues that indiscriminate full-machine throttling penalizes
//! every request, while container-based conditioning throttles only the
//! power viruses. This experiment quantifies that claim with a proper
//! DVFS feedback governor as the full-machine alternative: both
//! mechanisms hold the same power target; only the per-request one
//! leaves normal requests (nearly) unharmed.

use crate::fig11::SATURATING_LOAD;
use crate::output::{banner, pct, write_record, Table};
use crate::{Lab, RunCtx};
use analysis::stats::Summary;
use hwsim::{ChipId, FreqScale};
use power_containers::ConditioningPolicy;
use serde::Serialize;
use simkern::{SimDuration, SimTime};
use workloads::{
    prepare_app, spawn_driver, CtxAlloc, DriverEnv, RunConfig, WorkloadKind, POWER_VIRUS_LABEL,
};

/// Which capping mechanism a run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CapMechanism {
    /// No capping (baseline).
    None,
    /// Per-request duty-cycle conditioning (the paper's facility).
    PerRequestConditioning,
    /// Whole-machine chip DVFS feedback governor.
    MachineDvfs,
}

/// One run's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct CapRun {
    /// The mechanism used.
    pub mechanism: CapMechanism,
    /// Fraction of post-virus 100 ms buckets above the target.
    pub frac_above_target: f64,
    /// Peak active power after viruses arrive, Watts.
    pub peak_after_w: f64,
    /// Mean response time of normal (Vosao) requests, ms.
    pub normal_response_ms: f64,
    /// Mean response time of power viruses, ms.
    pub virus_response_ms: f64,
    /// Requests completed.
    pub completed: usize,
}

/// The experiment record.
#[derive(Debug, Clone, Serialize)]
pub struct DvfsCapping {
    /// The shared power target, Watts.
    pub target_w: f64,
    /// Baseline, conditioning, and DVFS runs.
    pub runs: Vec<CapRun>,
}

/// The highest DVFS operating point whose power factor keeps `peak_w`
/// under `target_w` — the static full-machine throttle the paper sizes
/// ("a full-machine duty-cycle level of 7/8 would be required").
fn static_point_for(peak_w: f64, target_w: f64) -> FreqScale {
    let mut f = FreqScale::NOMINAL;
    while peak_w * f.power_factor() > target_w && f.fraction() > 0.5 {
        f = f.slower();
    }
    f
}

fn run_once(
    ctx: &RunCtx,
    lab: &mut Lab,
    mechanism: CapMechanism,
    target: f64,
    secs: u64,
    baseline_peak_w: f64,
) -> CapRun {
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let duration = SimDuration::from_secs(secs);
    let virus_start = SimTime::from_secs(secs / 4);
    let mut cfg = RunConfig::new(spec);
    cfg.sched = ctx.sched.clone();
    cfg.load = SATURATING_LOAD;
    cfg.closed_loop = Some(2 * cfg.spec.total_cores());
    cfg.duration = duration;
    if mechanism == CapMechanism::PerRequestConditioning {
        cfg.conditioning = Some(ConditioningPolicy::new(target));
    }
    let mut prepared = prepare_app(std::rc::Rc::from(WorkloadKind::GaeVosao.app()), &cfg, &cal);
    spawn_driver(
        &mut prepared.kernel,
        DriverEnv {
            inboxes: prepared.inboxes.clone(),
            mean_gap: SimDuration::from_millis(350),
            pick_label: Box::new(|_| POWER_VIRUS_LABEL),
            stats: std::rc::Rc::clone(&prepared.stats),
            facility: Some(std::rc::Rc::clone(&prepared.facility)),
            ctxs: CtxAlloc::new(1_000_000_000),
            max_requests: None,
            start_after: virus_start.duration_since(SimTime::ZERO),
        },
    );
    if mechanism == CapMechanism::MachineDvfs {
        let point = static_point_for(baseline_peak_w, target);
        let chips = prepared.kernel.machine().spec().chips;
        for chip in 0..chips {
            prepared.kernel.machine_mut().set_chip_freq(ChipId(chip), point);
        }
    }
    let mut above = 0usize;
    let mut buckets = 0usize;
    let mut peak_w: f64 = 0.0;
    let mut last_energy = 0.0;
    let mut t = SimTime::ZERO;
    while t < SimTime::ZERO + duration {
        t += SimDuration::from_millis(100);
        prepared.kernel.run_until(t);
        let e = prepared.kernel.machine().true_active_energy_j();
        let watts = (e - last_energy) / 0.1;
        last_energy = e;
        if t > virus_start {
            buckets += 1;
            peak_w = peak_w.max(watts);
            if watts > target * 1.02 {
                above += 1;
            }
        }
    }
    let outcome = prepared.finish();
    ctx.note(&outcome);
    let stats = outcome.stats.borrow();
    let mut normal = Summary::new();
    let mut virus = Summary::new();
    for c in stats.completions() {
        if c.finished < virus_start {
            continue; // compare behaviour under capping pressure only
        }
        if c.label == POWER_VIRUS_LABEL {
            virus.record(c.response_secs());
        } else {
            normal.record(c.response_secs());
        }
    }
    CapRun {
        mechanism,
        frac_above_target: above as f64 / buckets.max(1) as f64,
        peak_after_w: peak_w,
        normal_response_ms: normal.mean() * 1e3,
        virus_response_ms: virus.mean() * 1e3,
        completed: stats.completions().len(),
    }
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> DvfsCapping {
    banner(
        "dvfs",
        "power capping: per-request conditioning vs whole-machine DVFS",
    );
    let mut lab = Lab::new();
    let secs = ctx.scale.run_secs().max(8);
    // Same target-setting procedure as Fig. 11.
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let mut probe_cfg = RunConfig::new(spec.clone());
    probe_cfg.sched = ctx.sched.clone();
    probe_cfg.load = SATURATING_LOAD;
    probe_cfg.closed_loop = Some(2 * probe_cfg.spec.total_cores());
    probe_cfg.duration = SimDuration::from_secs(3);
    let probe = workloads::run_app(WorkloadKind::GaeVosao, &probe_cfg, &cal);
    ctx.note(&probe);
    // The paper's 40 W target sits just above the power of a machine whose
    // cores are all busy with *normal* requests: per-request budgets then
    // clear every Vosao request and catch only the viruses.
    let mean_normal_w = {
        let f = probe.facility.borrow();
        let s: analysis::stats::Summary = f
            .containers()
            .records()
            .iter()
            .filter(|r| r.busy_seconds > 0.0)
            .map(|r| r.mean_power_w)
            .collect();
        s.mean()
    };
    let target = spec.total_cores() as f64 * mean_normal_w * 1.06;

    let baseline = run_once(ctx, &mut lab, CapMechanism::None, target, secs, 0.0);
    let peak = baseline.peak_after_w;
    let runs = vec![
        baseline,
        run_once(ctx, &mut lab, CapMechanism::PerRequestConditioning, target, secs, peak),
        run_once(ctx, &mut lab, CapMechanism::MachineDvfs, target, secs, peak),
    ];
    let baseline_normal = runs[0].normal_response_ms;
    let mut table = Table::new([
        "mechanism",
        "buckets over target",
        "normal resp (ms)",
        "normal slowdown",
        "virus resp (ms)",
    ]);
    for r in &runs {
        table.row([
            format!("{:?}", r.mechanism),
            pct(r.frac_above_target),
            format!("{:.1}", r.normal_response_ms),
            pct(r.normal_response_ms / baseline_normal - 1.0),
            format!("{:.1}", r.virus_response_ms),
        ]);
    }
    println!("target: {target:.1} W");
    println!("{table}");
    let record = DvfsCapping { target_w: target, runs };
    write_record("dvfs", &record);
    record
}
