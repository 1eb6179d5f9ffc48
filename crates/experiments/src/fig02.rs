//! Fig. 2 — measurement/model alignment cross-correlation.
//!
//! Runs a power-fluctuating workload (GAE-Hybrid: Vosao requests mixed
//! with long power viruses) on the SandyBridge machine, lets the facility
//! collect delayed meter readings, and scans hypothetical measurement
//! delays. The paper finds a ~1 ms delay for the on-chip meter and
//! ~1.2 s for the Wattsup meter — here the simulated delivery delays are
//! exactly 1 ms and 1.2 s, so the correlation peak should land there.

use crate::output::{banner, write_record, Table};
use crate::{Lab, RunCtx};
use serde::Serialize;
use simkern::SimDuration;
use workloads::{run_app, LoadLevel, RunConfig, WorkloadKind};

/// One meter's delay scan.
#[derive(Debug, Clone, Serialize)]
pub struct MeterScan {
    /// Meter name.
    pub meter: String,
    /// The true (configured) delivery delay, ms.
    pub true_delay_ms: f64,
    /// The estimated delay at the correlation peak, ms.
    pub estimated_delay_ms: f64,
    /// Correlation score at the peak.
    pub peak_score: f64,
    /// The `(delay_ms, correlation)` curve.
    pub curve: Vec<(f64, f64)>,
}

/// The Fig. 2 record.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2 {
    /// On-chip and Wattsup scans.
    pub scans: Vec<MeterScan>,
}

fn scan_meter(
    ctx: &RunCtx,
    lab: &mut Lab,
    meter: &'static str,
    step: SimDuration,
    max_delay: SimDuration,
    secs: u64,
) -> MeterScan {
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let mut cfg = RunConfig::new(spec.clone());
    cfg.sched = ctx.sched.clone();
    cfg.meter = Some(meter);
    cfg.align_step = Some(step);
    cfg.max_meter_delay = Some(max_delay);
    cfg.duration = SimDuration::from_secs(secs);
    cfg.load = LoadLevel::Half;
    let outcome = run_app(WorkloadKind::GaeHybrid, &cfg, &cal);
    ctx.note(&outcome);
    let f = outcome.facility.borrow();
    let alignment = f
        .last_alignment()
        .unwrap_or_else(|| panic!("no alignment produced for meter {meter}"));
    let true_delay = spec
        .meters
        .iter()
        .find(|m| m.name == meter)
        .expect("meter exists")
        .delay;
    MeterScan {
        meter: meter.to_string(),
        true_delay_ms: true_delay.as_millis_f64(),
        estimated_delay_ms: alignment.delay.as_millis_f64(),
        peak_score: alignment.score,
        curve: alignment
            .curve
            .iter()
            .map(|(d, s)| (d.as_millis_f64(), *s))
            .collect(),
    }
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Fig2 {
    banner("fig2", "measurement/model alignment cross-correlation");
    let mut lab = Lab::new();
    let scans = vec![
        scan_meter(
            ctx,
            &mut lab,
            "on-chip",
            SimDuration::from_millis(1),
            SimDuration::from_millis(20),
            ctx.scale.run_secs().max(4),
        ),
        scan_meter(
            ctx,
            &mut lab,
            "wattsup",
            SimDuration::from_millis(50),
            SimDuration::from_millis(2000),
            (ctx.scale.run_secs() * 2).max(16),
        ),
    ];
    let mut table = Table::new(["meter", "true delay", "estimated delay", "peak corr."]);
    for s in &scans {
        table.row([
            s.meter.clone(),
            format!("{:.0} ms", s.true_delay_ms),
            format!("{:.0} ms", s.estimated_delay_ms),
            format!("{:.3}", s.peak_score),
        ]);
    }
    println!("{table}");
    let record = Fig2 { scans };
    write_record("fig2", &record);
    record
}
