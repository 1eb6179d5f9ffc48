//! Fig. 14 — cluster energy under the three distribution policies.
//!
//! A SandyBridge + Woodcrest cluster serving a 50/50 GAE-Vosao +
//! RSA-crypto mix at the volume the simple balancer can just sustain.
//! The paper: workload-heterogeneity-aware distribution saves ~30% vs
//! simple balance and ~25% vs machine-heterogeneity-aware.

use crate::output::{banner, pct, write_record, Table};
use crate::{Lab, RunCtx};
use cluster::{
    energy_affinity, run_cluster, ClusterConfig, ClusterOutcome, DistributionPolicy,
    MachineHeterogeneityAware, SimpleBalance, WorkloadHeterogeneityAware,
};
use serde::Serialize;
use simkern::SimDuration;
use workloads::WorkloadKind;

/// One policy's cluster outcome.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyEnergy {
    /// Policy name.
    pub policy: String,
    /// Per-node `(machine, energy rate W, completions, utilization)`.
    pub nodes: Vec<(String, f64, usize, f64)>,
    /// Combined active energy rate, Watts.
    pub total_w: f64,
    /// Requests completed.
    pub completed: usize,
}

/// The Fig. 14 record.
#[derive(Debug, Clone, Serialize)]
pub struct Fig14 {
    /// All three policies.
    pub policies: Vec<PolicyEnergy>,
    /// Savings of workload-aware vs simple balance.
    pub saving_vs_simple: f64,
    /// Savings of workload-aware vs machine-aware.
    pub saving_vs_machine: f64,
}

/// Runs the cluster under all three policies (shared with Table 1).
pub fn cluster_outcomes(ctx: &RunCtx) -> Vec<ClusterOutcome> {
    let mut lab = Lab::new();
    let sb = lab.spec("sandybridge");
    let wc = lab.spec("woodcrest");
    let sb_cal = lab.calibration("sandybridge");
    let wc_cal = lab.calibration("woodcrest");

    // Profile the two apps' cross-machine affinity for the workload-aware
    // policy (Fig. 13's procedure, shorter runs).
    let apps = [WorkloadKind::GaeVosao, WorkloadKind::RsaCrypto];
    let profile = energy_affinity(
        &apps,
        (&sb, &sb_cal),
        (&wc, &wc_cal),
        crate::SEED + 5,
        SimDuration::from_secs(ctx.scale.run_secs() / 2 + 2),
        |o| ctx.note(o),
    );
    let ratios: Vec<(WorkloadKind, f64)> =
        profile.iter().map(|r| (r.kind, r.ratio())).collect();

    let mut cfg = ClusterConfig::paper_setup();
    ctx.apply(&mut cfg);
    cfg.duration = SimDuration::from_secs(ctx.scale.run_secs());
    cfg.seed = crate::SEED;
    let cals = vec![sb_cal, wc_cal];

    let mut policies: Vec<Box<dyn DistributionPolicy>> = vec![
        Box::new(SimpleBalance::new()),
        Box::new(MachineHeterogeneityAware::new()),
        Box::new(WorkloadHeterogeneityAware::new(ratios)),
    ];
    policies
        .iter_mut()
        .map(|p| run_cluster(p.as_mut(), &cfg, &cals))
        .inspect(|o| ctx.note(o))
        .collect()
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Fig14 {
    banner("fig14", "cluster energy rate under three distribution policies");
    let outcomes = cluster_outcomes(ctx);
    let mut policies = Vec::new();
    let mut table = Table::new([
        "policy",
        "SandyBridge (W)",
        "Woodcrest (W)",
        "total (W)",
        "completed",
    ]);
    for o in &outcomes {
        let nodes: Vec<(String, f64, usize, f64)> = o
            .per_node
            .iter()
            .map(|n| {
                (
                    n.machine.to_string(),
                    n.energy_rate_w,
                    n.completions,
                    n.utilization,
                )
            })
            .collect();
        table.row([
            o.policy.to_string(),
            format!("{:.1}", nodes[0].1),
            format!("{:.1}", nodes[1].1),
            format!("{:.1}", o.total_energy_rate_w()),
            o.completed.to_string(),
        ]);
        policies.push(PolicyEnergy {
            policy: o.policy.to_string(),
            nodes,
            total_w: o.total_energy_rate_w(),
            completed: o.completed,
        });
    }
    println!("{table}");
    let simple = policies[0].total_w;
    let machine = policies[1].total_w;
    let workload = policies[2].total_w;
    let saving_vs_simple = 1.0 - workload / simple;
    let saving_vs_machine = 1.0 - workload / machine;
    println!(
        "workload-aware saves {} vs simple balance, {} vs machine-aware",
        pct(saving_vs_simple),
        pct(saving_vs_machine)
    );
    let record = Fig14 { policies, saving_vs_simple, saving_vs_machine };
    write_record("fig14", &record);
    record
}
