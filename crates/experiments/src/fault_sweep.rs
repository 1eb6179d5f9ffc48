//! Robustness ablation: attribution accuracy under injected hardware
//! faults.
//!
//! Sweeps the meter-dropout rate (with counter glitches and tag faults
//! riding along at fixed rates in the `stress` row) and compares the
//! Fig. 8 validation error against the clean run. The acceptance bar
//! for the graceful-degradation machinery: at a ≤5% dropout rate the
//! attribution error stays within 2× of the clean-run error, with zero
//! panics anywhere in the sweep.

use crate::output::{banner, pct, write_record, Table};
use crate::runner::slug;
use crate::{Lab, RunCtx};
use hwsim::FaultConfig;
use serde::Serialize;
use simkern::SimDuration;
use workloads::{run_app, LoadLevel, RunConfig, WorkloadKind};

/// One sweep point.
#[derive(Debug, Clone, Serialize)]
pub struct FaultSweepRow {
    /// Display name of the fault mix.
    pub scenario: String,
    /// Meter windows dropped per window offered.
    pub meter_dropout: f64,
    /// Fig. 8 validation error at this point.
    pub validation_error: f64,
    /// Faults the machine injected.
    pub faults_injected: u64,
    /// Degradation decisions the facility took.
    pub degradations: u64,
    /// Requests completed.
    pub completions: usize,
}

/// The sweep record.
#[derive(Debug, Clone, Serialize)]
pub struct FaultSweep {
    /// Clean-run validation error (the baseline).
    pub clean_error: f64,
    /// All sweep points, clean first.
    pub rows: Vec<FaultSweepRow>,
    /// Whether the ≤5%-dropout rows stayed within 2× the clean error.
    pub within_bound: bool,
}

fn sweep_point(
    spec: &hwsim::MachineSpec,
    cal: &workloads::MachineCalibration,
    ctx: &RunCtx,
    scenario: &str,
    faults: FaultConfig,
) -> FaultSweepRow {
    let mut cfg = RunConfig::new(spec.clone());
    cfg.sched = ctx.sched.clone();
    cfg.approach = power_containers::Approach::Recalibrated;
    cfg.load = LoadLevel::Half;
    cfg.duration = SimDuration::from_secs(ctx.scale.run_secs());
    let dropout = faults.meter_dropout;
    cfg.faults = faults;
    cfg.telemetry = ctx.telemetry();
    let outcome = run_app(WorkloadKind::RsaCrypto, &cfg, cal);
    ctx.note(&outcome);
    // Dropout rate keeps same-named scenarios (the meter-dropout rows)
    // from clobbering each other's trace files.
    let stem = format!(
        "{}-{}",
        slug(scenario),
        slug(&format!("{:04.1}pct", dropout * 100.0))
    );
    ctx.write_trace("fault_sweep", &stem, &cfg.telemetry);
    let completions = outcome.stats.borrow().completions().len();
    FaultSweepRow {
        scenario: scenario.to_string(),
        meter_dropout: dropout,
        validation_error: outcome.validation_error(),
        faults_injected: outcome.fault_counts().iter().sum(),
        degradations: outcome.degrade_stats().total(),
        completions,
    }
}

/// Runs the sweep and prints the table. Sweep points are independent
/// seeded simulations, so they fan out across [`RunCtx::jobs`]
/// workers; rows keep the canonical order (clean first).
pub fn run(ctx: &RunCtx) -> FaultSweep {
    banner("fault-sweep", "attribution accuracy under injected hardware faults");
    let mut lab = Lab::new();
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let dropout = |rate: f64| FaultConfig {
        seed: 0xFA17,
        meter_dropout: rate,
        ..FaultConfig::none()
    };
    let mut points: Vec<(&str, FaultConfig)> = vec![("clean", FaultConfig::none())];
    for rate in [0.01, 0.02, 0.05] {
        points.push(("meter dropout", dropout(rate)));
    }
    points.push((
        "dropout + glitches + tag faults",
        FaultConfig {
            seed: 0xFA17,
            meter_dropout: 0.05,
            meter_extra_lag: 0.05,
            counter_glitch_hz: 1.0,
            counter_wrap_hz: 0.5,
            tag_loss: 0.01,
            tag_corrupt: 0.01,
            ..FaultConfig::none()
        },
    ));
    let tasks: Vec<_> = points
        .into_iter()
        .map(|(scenario, faults)| {
            let spec = spec.clone();
            let cal = cal.clone();
            move || sweep_point(&spec, &cal, ctx, scenario, faults)
        })
        .collect();
    let rows: Vec<FaultSweepRow> = ctx.run_cells("fault-sweep point", tasks);
    let clean_error = rows[0].validation_error;
    let bound = (clean_error * 2.0).max(0.05);
    let within_bound = rows
        .iter()
        .filter(|r| r.meter_dropout <= 0.05)
        .all(|r| r.validation_error <= bound);
    let mut table =
        Table::new(["scenario", "dropout", "error", "faults", "degradations", "completed"]);
    for r in &rows {
        table.row([
            r.scenario.clone(),
            pct(r.meter_dropout),
            pct(r.validation_error),
            r.faults_injected.to_string(),
            r.degradations.to_string(),
            r.completions.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "degradation bound (2x clean error, 5% floor): {} -- {}",
        pct(bound),
        if within_bound { "HELD" } else { "EXCEEDED" }
    );
    let record = FaultSweep { clean_error, rows, within_bound };
    write_record("fault_sweep", &record);
    record
}
