//! Fig. 10 — power prediction at new request compositions.
//!
//! Per-request energy profiles learned on a running system are assembled
//! to predict power under *new* workload conditions: RSA-crypto serving
//! only its largest key, and WeBWorK serving only the 10 most popular
//! problem sets. Comparators: a request-rate-proportional predictor and
//! a CPU-utilization-proportional predictor. The paper reports ≤11%
//! error for containers vs ≤19% (CPU-proportional) and ≤56%
//! (rate-proportional).

use crate::mix::MixOverride;
use crate::output::{banner, pct, write_record, Table};
use crate::{Lab, RunCtx};
use serde::Serialize;
use simkern::SimDuration;
use std::collections::HashMap;
use workloads::{
    apps::{RsaCrypto, WeBWorK},
    run_app, run_server_app, LoadLevel, RunConfig, WorkloadKind,
};

/// One load level's predictions vs measurement.
#[derive(Debug, Clone, Serialize)]
pub struct PredictionPoint {
    /// Fraction of the new mix's peak load.
    pub load_fraction: f64,
    /// Measured active power, Watts.
    pub measured_w: f64,
    /// Power-containers prediction, Watts.
    pub containers_w: f64,
    /// CPU-utilization-proportional prediction, Watts.
    pub cpu_proportional_w: f64,
    /// Request-rate-proportional prediction, Watts.
    pub rate_proportional_w: f64,
}

/// One scenario (app + new mix).
#[derive(Debug, Clone, Serialize)]
pub struct PredictionScenario {
    /// Scenario name.
    pub scenario: String,
    /// Prediction points at increasing load.
    pub points: Vec<PredictionPoint>,
    /// Worst-case error per predictor (containers, cpu, rate).
    pub worst_errors: [f64; 3],
}

/// The Fig. 10 record.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10 {
    /// RSA-crypto and WeBWorK scenarios.
    pub scenarios: Vec<PredictionScenario>,
}

struct LabelProfile {
    mean_energy_j: f64,
    mean_cpu_secs: f64,
}

fn scenario(
    lab: &mut Lab,
    name: &str,
    kind: WorkloadKind,
    new_labels: Vec<u32>,
    new_mean_cycles: f64,
    ctx: &RunCtx,
) -> PredictionScenario {
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let secs = ctx.scale.run_secs();

    // 1. Profile the original composition at peak load.
    let mut cfg = RunConfig::new(spec.clone());
    cfg.sched = ctx.sched.clone();
    cfg.load = LoadLevel::Peak;
    cfg.duration = SimDuration::from_secs(secs);
    let orig = run_app(kind, &cfg, &cal);
    ctx.note(&orig);
    let orig_secs = orig.end.as_secs_f64();
    let p_orig = orig.measured_active_power_w();
    let r_orig = orig.stats.borrow().completions().len() as f64 / orig_secs;
    let u_orig_cores = orig.mean_utilization() * spec.total_cores() as f64;
    let mut by_label: HashMap<u32, (f64, f64, usize)> = HashMap::new();
    let mut global = (0.0, 0.0, 0usize);
    {
        let f = orig.facility.borrow();
        for r in f.containers().records() {
            let Some(label) = r.label else { continue };
            let e = by_label.entry(label).or_default();
            e.0 += r.energy_j + r.io_energy_j;
            e.1 += r.busy_seconds;
            e.2 += 1;
            global.0 += r.energy_j + r.io_energy_j;
            global.1 += r.busy_seconds;
            global.2 += 1;
        }
    }
    let profile_of = |label: u32| -> LabelProfile {
        let (e, s, n) = by_label.get(&label).copied().unwrap_or(global);
        LabelProfile {
            mean_energy_j: e / n.max(1) as f64,
            mean_cpu_secs: s / n.max(1) as f64,
        }
    };
    let new_profile: Vec<LabelProfile> = new_labels.iter().map(|&l| profile_of(l)).collect();
    let e_new = new_profile.iter().map(|p| p.mean_energy_j).sum::<f64>()
        / new_profile.len() as f64;
    let s_new = new_profile.iter().map(|p| p.mean_cpu_secs).sum::<f64>()
        / new_profile.len() as f64;

    // 2. Measure the new composition at several load levels and compare
    //    against the three predictors.
    let mut points = Vec::new();
    let mut worst = [0.0f64; 3];
    for fraction in [0.5, 0.65, 0.8] {
        let app = std::rc::Rc::new(MixOverride::new(
            kind.app(),
            new_labels.clone(),
            new_mean_cycles,
        ));
        let mut cfg = RunConfig::new(spec.clone());
        cfg.sched = ctx.sched.clone();
        cfg.load = LoadLevel::Fraction(fraction);
        cfg.duration = SimDuration::from_secs(secs);
        cfg.seed = crate::SEED + 17;
        let new_run = run_server_app(app, &cfg, &cal);
        ctx.note(&new_run);
        let new_secs = new_run.end.as_secs_f64();
        let measured = new_run.measured_active_power_w();
        let r_new = new_run.stats.borrow().completions().len() as f64 / new_secs;
        let containers_w = r_new * e_new;
        let rate_proportional_w = p_orig * r_new / r_orig;
        let u_new_pred = r_new * s_new;
        let cpu_proportional_w = p_orig * u_new_pred / u_orig_cores;
        let errs = [
            analysis::stats::relative_error(containers_w, measured),
            analysis::stats::relative_error(cpu_proportional_w, measured),
            analysis::stats::relative_error(rate_proportional_w, measured),
        ];
        for (w, e) in worst.iter_mut().zip(errs) {
            *w = w.max(e);
        }
        points.push(PredictionPoint {
            load_fraction: fraction,
            measured_w: measured,
            containers_w,
            cpu_proportional_w,
            rate_proportional_w,
        });
    }
    PredictionScenario { scenario: name.to_string(), points, worst_errors: worst }
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Fig10 {
    banner("fig10", "power prediction at new request compositions");
    let mut lab = Lab::new();
    let scenarios = vec![
        scenario(
            &mut lab,
            "RSA-crypto, largest key only",
            WorkloadKind::RsaCrypto,
            vec![2],
            RsaCrypto::cycles_for(2),
            ctx,
        ),
        scenario(
            &mut lab,
            "WeBWorK, 10 most popular problem sets",
            WorkloadKind::WeBWorK,
            (0..10).collect(),
            {
                let mean_d: f64 =
                    (0..10).map(WeBWorK::difficulty).sum::<f64>() / 10.0;
                // Stage mix mirrors the app's difficulty scaling.
                mean_d * (7.0e6 + 5.0e6 + 4.0e6 + 5.0e6 + 3.0e6) + 3.3e6
            },
            ctx,
        ),
    ];
    for s in &scenarios {
        println!("scenario: {}", s.scenario);
        let mut table = Table::new([
            "load",
            "measured (W)",
            "containers (W)",
            "cpu-prop (W)",
            "rate-prop (W)",
        ]);
        for p in &s.points {
            table.row([
                format!("{:.0}%", p.load_fraction * 100.0),
                format!("{:.1}", p.measured_w),
                format!("{:.1}", p.containers_w),
                format!("{:.1}", p.cpu_proportional_w),
                format!("{:.1}", p.rate_proportional_w),
            ]);
        }
        println!("{table}");
        println!(
            "worst error: containers {}, cpu-proportional {}, rate-proportional {}",
            pct(s.worst_errors[0]),
            pct(s.worst_errors[1]),
            pct(s.worst_errors[2])
        );
        println!();
    }
    let record = Fig10 { scenarios };
    write_record("fig10", &record);
    record
}
