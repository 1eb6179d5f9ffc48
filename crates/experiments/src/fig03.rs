//! Fig. 3 — aligned measurement/model power traces.
//!
//! After the Fig. 2 alignment, shifting each on-chip meter reading back
//! by the estimated delay should lay it on top of the model-estimate
//! series. This experiment prints both series over a ~600 ms window.

use crate::output::{banner, write_record, Table};
use crate::{Lab, RunCtx};
use serde::Serialize;
use simkern::SimDuration;
use workloads::{run_app, LoadLevel, RunConfig, WorkloadKind};

/// One aligned sample pair.
#[derive(Debug, Clone, Serialize)]
pub struct TracePoint {
    /// Position within the trace, ms.
    pub t_ms: f64,
    /// Meter reading re-aligned to this instant (package power, W).
    pub measured_w: f64,
    /// Model estimate for the same window (package power, W).
    pub modeled_w: f64,
}

/// The Fig. 3 record.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3 {
    /// Estimated meter delay used for the shift, ms.
    pub delay_ms: f64,
    /// The aligned series.
    pub points: Vec<TracePoint>,
    /// Mean absolute difference between the two series, W.
    pub mean_abs_diff_w: f64,
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Fig3 {
    banner("fig3", "aligned measurement/model power traces (on-chip meter)");
    let mut lab = Lab::new();
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let mut cfg = RunConfig::new(spec);
    cfg.sched = ctx.sched.clone();
    cfg.meter = Some("on-chip");
    cfg.align_step = Some(SimDuration::from_millis(1));
    cfg.max_meter_delay = Some(SimDuration::from_millis(20));
    cfg.duration = SimDuration::from_secs(ctx.scale.run_secs().max(4));
    cfg.load = LoadLevel::Half;
    let outcome = run_app(WorkloadKind::GaeHybrid, &cfg, &cal);
    ctx.note(&outcome);
    let f = outcome.facility.borrow();
    let delay = f.aligned_delay().expect("alignment available");
    let period = f.meter_period();
    let pkg_idle = cal.meter_idle("on-chip");

    let mut points = Vec::new();
    let mut diff_sum = 0.0;
    for r in f.recent_readings().iter().rev().take(60).rev() {
        // Shift the reading back by the estimated delay to find the
        // window it (supposedly) describes.
        let end = r.arrived_at - delay;
        let start = end - period;
        if let Some(model_active) = f.modeled_power_between(start, end) {
            let modeled = model_active + pkg_idle;
            diff_sum += (r.watts - modeled).abs();
            points.push(TracePoint {
                t_ms: end.as_millis_f64(),
                measured_w: r.watts,
                modeled_w: modeled,
            });
        }
    }
    assert!(!points.is_empty(), "no aligned points collected");
    let mean_abs_diff_w = diff_sum / points.len() as f64;
    let base = points[0].t_ms;
    let mut table = Table::new(["t (ms)", "measured (W)", "modeled (W)"]);
    for p in points.iter().step_by(points.len().div_ceil(25).max(1)) {
        table.row([
            format!("{:.0}", p.t_ms - base),
            format!("{:.1}", p.measured_w),
            format!("{:.1}", p.modeled_w),
        ]);
    }
    println!("{table}");
    println!("mean |measured - modeled| = {mean_abs_diff_w:.2} W over {} samples", points.len());
    let record = Fig3 {
        delay_ms: delay.as_millis_f64(),
        points,
        mean_abs_diff_w,
    };
    write_record("fig3", &record);
    record
}
