//! Fig. 6 — mean request power distributions (Solr and GAE-Hybrid, half
//! load, SandyBridge).
//!
//! The GAE-Hybrid histogram should show two masses: Vosao requests at
//! moderate power and power viruses at substantially higher power.

use crate::output::{banner, write_record};
use crate::{Lab, RunCtx};
use analysis::hist::Histogram;
use serde::Serialize;
use simkern::SimDuration;
use workloads::{run_app, LoadLevel, RunConfig, WorkloadKind, POWER_VIRUS_LABEL};

/// One workload's request-power distribution.
#[derive(Debug, Clone, Serialize)]
pub struct PowerDistribution {
    /// Workload name.
    pub workload: String,
    /// Histogram bin counts over `[0, 25)` W.
    pub bins: Vec<u64>,
    /// Mean request power of non-virus requests, Watts.
    pub normal_mean_w: f64,
    /// Mean request power of power viruses (0 when none), Watts.
    pub virus_mean_w: f64,
    /// Number of requests profiled.
    pub requests: usize,
}

/// The Fig. 6 record.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6 {
    /// Solr and GAE-Hybrid distributions.
    pub distributions: Vec<PowerDistribution>,
}

pub(crate) fn request_records(
    ctx: &RunCtx,
    lab: &mut Lab,
    kind: WorkloadKind,
) -> Vec<power_containers::ContainerRecord> {
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let mut cfg = RunConfig::new(spec);
    cfg.sched = ctx.sched.clone();
    cfg.load = LoadLevel::Half;
    cfg.duration = SimDuration::from_secs(ctx.scale.run_secs());
    let outcome = run_app(kind, &cfg, &cal);
    ctx.note(&outcome);
    let f = outcome.facility.borrow();
    f.containers()
        .records()
        .iter()
        .filter(|r| r.busy_seconds > 0.0 && r.label.is_some())
        .cloned()
        .collect()
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Fig6 {
    banner("fig6", "mean request power distributions (half load, SandyBridge)");
    let mut lab = Lab::new();
    let mut distributions = Vec::new();
    for kind in [WorkloadKind::Solr, WorkloadKind::GaeHybrid] {
        let records = request_records(ctx, &mut lab, kind);
        let mut hist = Histogram::new(0.0, 25.0, 25);
        let mut normal = analysis::stats::Summary::new();
        let mut virus = analysis::stats::Summary::new();
        for r in &records {
            hist.record(r.mean_power_w);
            if r.label == Some(POWER_VIRUS_LABEL) {
                virus.record(r.mean_power_w);
            } else {
                normal.record(r.mean_power_w);
            }
        }
        println!("workload: {kind} ({} requests)", records.len());
        println!("{}", hist.ascii_plot(50));
        println!(
            "normal requests: mean {:.1} W; power viruses: mean {:.1} W (n={})",
            normal.mean(),
            virus.mean(),
            virus.count()
        );
        distributions.push(PowerDistribution {
            workload: kind.name().to_string(),
            bins: hist.bin_counts().to_vec(),
            normal_mean_w: normal.mean(),
            virus_mean_w: virus.mean(),
            requests: records.len(),
        });
    }
    let record = Fig6 { distributions };
    write_record("fig6", &record);
    record
}
