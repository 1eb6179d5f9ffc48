//! Fig. 5 — measured active power of every workload on every machine at
//! peak and half load.

use crate::output::{banner, write_record, Table};
use crate::runner::slug;
use crate::{Lab, RunCtx};
use serde::Serialize;
use simkern::SimDuration;
use workloads::{run_app, LoadLevel, RunConfig, WorkloadKind};

/// One bar of Fig. 5.
#[derive(Debug, Clone, Serialize)]
pub struct PowerCell {
    /// Machine name.
    pub machine: String,
    /// Workload name.
    pub workload: String,
    /// Load level name.
    pub load: String,
    /// Measured active power, Watts.
    pub active_w: f64,
    /// Mean core utilization.
    pub utilization: f64,
}

/// The Fig. 5 record.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5 {
    /// All cells.
    pub cells: Vec<PowerCell>,
}

/// Runs the experiment. Cells (machine × workload × load) are
/// independent seeded simulations, so they fan out across
/// [`RunCtx::jobs`] workers; assembly and printing follow the
/// canonical sweep order regardless of completion order.
pub fn run(ctx: &RunCtx) -> Fig5 {
    banner("fig5", "measured active power per workload, machine, load");
    let mut lab = Lab::new();
    let machines = ["woodcrest", "westmere", "sandybridge"];
    let mut tasks = Vec::new();
    for machine in machines {
        let spec = lab.spec(machine);
        let cal = lab.calibration(machine);
        for kind in WorkloadKind::ALL {
            for load in [LoadLevel::Peak, LoadLevel::Half] {
                let spec = spec.clone();
                let cal = cal.clone();
                tasks.push(move || {
                    let mut cfg = RunConfig::new(spec);
                    cfg.sched = ctx.sched.clone();
                    cfg.load = load;
                    cfg.duration = SimDuration::from_secs(ctx.scale.run_secs() / 2 + 2);
                    cfg.telemetry = ctx.telemetry();
                    let outcome = run_app(kind, &cfg, &cal);
                    ctx.note(&outcome);
                    let stem = format!("{machine}-{}-{}", slug(kind.name()), slug(load.name()));
                    ctx.write_trace("fig05", &stem, &cfg.telemetry);
                    PowerCell {
                        machine: machine.to_string(),
                        workload: kind.name().to_string(),
                        load: load.name().to_string(),
                        active_w: outcome.measured_active_power_w(),
                        utilization: outcome.mean_utilization(),
                    }
                });
            }
        }
    }
    let cells: Vec<PowerCell> = ctx.run_cells("fig5 cell", tasks);
    for machine in machines {
        let mut table = Table::new(["workload", "load", "active power (W)", "utilization"]);
        for cell in cells.iter().filter(|c| c.machine == machine) {
            table.row([
                cell.workload.clone(),
                cell.load.clone(),
                format!("{:.1}", cell.active_w),
                format!("{:.2}", cell.utilization),
            ]);
        }
        println!("machine: {machine}");
        println!("{table}");
    }
    let record = Fig5 { cells };
    write_record("fig5", &record);
    record
}
