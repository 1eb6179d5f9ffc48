//! Fig. 13 — cross-machine active energy usage ratios.
//!
//! Per-workload mean request energy on SandyBridge over Woodcrest,
//! profiled through power containers at peak load. The paper spans 0.22
//! (RSA-crypto — strong affinity for the new machine) to 0.91 (Stress —
//! nearly indifferent).

use crate::output::{banner, write_record, Table};
use crate::{Lab, RunCtx};
use cluster::energy_affinity;
use serde::Serialize;
use simkern::SimDuration;
use workloads::WorkloadKind;

/// One workload's ratio.
#[derive(Debug, Clone, Serialize)]
pub struct RatioRow {
    /// Workload name.
    pub workload: String,
    /// Mean request energy on SandyBridge, Joules.
    pub sandybridge_j: f64,
    /// Mean request energy on Woodcrest, Joules.
    pub woodcrest_j: f64,
    /// The cross-machine energy ratio.
    pub ratio: f64,
}

/// The Fig. 13 record.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13 {
    /// All rows, in the paper's workload order.
    pub rows: Vec<RatioRow>,
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Fig13 {
    banner("fig13", "cross-machine energy usage ratio (SandyBridge / Woodcrest)");
    let mut lab = Lab::new();
    let sb = lab.spec("sandybridge");
    let wc = lab.spec("woodcrest");
    let sb_cal = lab.calibration("sandybridge");
    let wc_cal = lab.calibration("woodcrest");
    let kinds = [
        WorkloadKind::RsaCrypto,
        WorkloadKind::Solr,
        WorkloadKind::WeBWorK,
        WorkloadKind::Stress,
        WorkloadKind::GaeVosao,
    ];
    let rows_raw = energy_affinity(
        &kinds,
        (&sb, &sb_cal),
        (&wc, &wc_cal),
        crate::SEED,
        SimDuration::from_secs(ctx.scale.run_secs()),
        |o| ctx.note(o),
    );
    let mut table = Table::new(["workload", "SandyBridge (J)", "Woodcrest (J)", "ratio"]);
    let rows: Vec<RatioRow> = rows_raw
        .iter()
        .map(|r| {
            table.row([
                r.kind.name().to_string(),
                format!("{:.3}", r.new_machine_j),
                format!("{:.3}", r.old_machine_j),
                format!("{:.2}", r.ratio()),
            ]);
            RatioRow {
                workload: r.kind.name().to_string(),
                sandybridge_j: r.new_machine_j,
                woodcrest_j: r.old_machine_j,
                ratio: r.ratio(),
            }
        })
        .collect();
    println!("{table}");
    let record = Fig13 { rows };
    write_record("fig13", &record);
    record
}
