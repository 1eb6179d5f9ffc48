//! Fig. 7 — request energy usage distributions (Solr and GAE-Hybrid,
//! half load, SandyBridge).
//!
//! Solr's spread comes mostly from execution-time variance (long-tailed
//! query cost); GAE-Hybrid's comes from the power gap between Vosao
//! requests and power viruses.

use crate::fig06::request_records;
use crate::output::{banner, write_record};
use crate::{Lab, RunCtx};
use analysis::hist::Histogram;
use serde::Serialize;
use workloads::{WorkloadKind, POWER_VIRUS_LABEL};

/// One workload's request-energy distribution.
#[derive(Debug, Clone, Serialize)]
pub struct EnergyDistribution {
    /// Workload name.
    pub workload: String,
    /// Histogram bin counts over `[0, 2)` J.
    pub bins: Vec<u64>,
    /// Mean energy of normal requests, Joules.
    pub normal_mean_j: f64,
    /// Mean energy of power viruses (0 when none), Joules.
    pub virus_mean_j: f64,
    /// 95th-percentile over 5th-percentile energy (tail spread).
    pub tail_spread: f64,
    /// Number of requests profiled.
    pub requests: usize,
}

/// The Fig. 7 record.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7 {
    /// Solr and GAE-Hybrid distributions.
    pub distributions: Vec<EnergyDistribution>,
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Fig7 {
    banner("fig7", "request energy usage distributions (half load, SandyBridge)");
    let mut lab = Lab::new();
    let mut distributions = Vec::new();
    for kind in [WorkloadKind::Solr, WorkloadKind::GaeHybrid] {
        let records = request_records(ctx, &mut lab, kind);
        let energies: Vec<f64> =
            records.iter().map(|r| r.energy_j + r.io_energy_j).collect();
        let mut hist = Histogram::new(0.0, 2.0, 40);
        let mut normal = analysis::stats::Summary::new();
        let mut virus = analysis::stats::Summary::new();
        for (r, &e) in records.iter().zip(&energies) {
            hist.record(e);
            if r.label == Some(POWER_VIRUS_LABEL) {
                virus.record(e);
            } else {
                normal.record(e);
            }
        }
        let p95 = analysis::stats::quantile(&energies, 0.95).unwrap_or(0.0);
        let p05 = analysis::stats::quantile(&energies, 0.05).unwrap_or(0.0);
        let tail_spread = if p05 > 0.0 { p95 / p05 } else { f64::INFINITY };
        println!("workload: {kind} ({} requests)", records.len());
        println!("{}", hist.ascii_plot(50));
        println!(
            "normal mean {:.3} J; virus mean {:.3} J; p95/p05 spread {:.1}x",
            normal.mean(),
            virus.mean(),
            tail_spread
        );
        distributions.push(EnergyDistribution {
            workload: kind.name().to_string(),
            bins: hist.bin_counts().to_vec(),
            normal_mean_j: normal.mean(),
            virus_mean_j: virus.mean(),
            tail_spread,
            requests: records.len(),
        });
    }
    let record = Fig7 { distributions };
    write_record("fig7", &record);
    record
}
