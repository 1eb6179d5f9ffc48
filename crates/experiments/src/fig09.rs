//! Fig. 9 — Google App Engine background processing.
//!
//! GAE performs substantial work with no traceable request context; the
//! facility accounts it in the special background container. The paper
//! finds almost a third of total active power attributable to background
//! processing.

use crate::output::{banner, pct, write_record, Table};
use crate::{Lab, RunCtx};
use serde::Serialize;
use simkern::SimDuration;
use workloads::{run_app, LoadLevel, RunConfig, WorkloadKind};

/// One load level's breakdown.
#[derive(Debug, Clone, Serialize)]
pub struct BackgroundCell {
    /// Load level name.
    pub load: String,
    /// Sum of request-attributed modeled power, Watts.
    pub requests_w: f64,
    /// Background-container modeled power, Watts.
    pub background_w: f64,
    /// Measured active power, Watts.
    pub measured_w: f64,
    /// Background share of modeled active power.
    pub background_share: f64,
}

/// The Fig. 9 record.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9 {
    /// Peak and half-load breakdowns.
    pub cells: Vec<BackgroundCell>,
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Fig9 {
    banner("fig9", "GAE background processing share of active power");
    let mut lab = Lab::new();
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let mut cells = Vec::new();
    let mut table = Table::new([
        "load",
        "requests (W)",
        "background (W)",
        "modeled total (W)",
        "measured (W)",
        "bg share",
    ]);
    for load in [LoadLevel::Peak, LoadLevel::Half] {
        let mut cfg = RunConfig::new(spec.clone());
        cfg.sched = ctx.sched.clone();
        cfg.load = load;
        cfg.duration = SimDuration::from_secs(ctx.scale.run_secs());
        let outcome = run_app(WorkloadKind::GaeVosao, &cfg, &cal);
        ctx.note(&outcome);
        let secs = outcome.end.as_secs_f64();
        let f = outcome.facility.borrow();
        let c = f.containers();
        let requests_w =
            (c.total_request_energy_j() + c.total_request_io_energy_j()) / secs;
        let background_w =
            (c.background().energy_j() + c.background().io_energy_j()) / secs;
        let measured_w = outcome.measured_active_power_w();
        let share = background_w / (requests_w + background_w);
        table.row([
            load.name().to_string(),
            format!("{requests_w:.1}"),
            format!("{background_w:.1}"),
            format!("{:.1}", requests_w + background_w),
            format!("{measured_w:.1}"),
            pct(share),
        ]);
        cells.push(BackgroundCell {
            load: load.name().to_string(),
            requests_w,
            background_w,
            measured_w,
            background_share: share,
        });
    }
    println!("{table}");
    let record = Fig9 { cells };
    write_record("fig9", &record);
    record
}
