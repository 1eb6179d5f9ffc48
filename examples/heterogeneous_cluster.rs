//! Heterogeneity-aware request distribution (paper §4.4, Fig. 14):
//! per-request energy profiles from power containers steer requests to
//! the machine where they are relatively most energy-efficient.
//!
//! ```sh
//! cargo run --release --example heterogeneous_cluster
//! ```

use cluster::{
    energy_affinity, run_cluster, ClusterConfig, DistributionPolicy,
    MachineHeterogeneityAware, SimpleBalance, WorkloadHeterogeneityAware,
};
use simkern::SimDuration;
use workloads::{calibrate_machine, WorkloadKind};

fn main() {
    let cfg = {
        let mut c = ClusterConfig::paper_setup();
        c.duration = SimDuration::from_secs(5);
        c
    };
    println!("calibrating both machines ...");
    let cals: Vec<_> = cfg.nodes.iter().map(|s| calibrate_machine(s, 42)).collect();

    println!("profiling cross-machine energy affinity (Fig. 13) ...");
    let profile = energy_affinity(
        &[WorkloadKind::GaeVosao, WorkloadKind::RsaCrypto],
        (&cfg.nodes[0], &cals[0]),
        (&cfg.nodes[1], &cals[1]),
        7,
        SimDuration::from_secs(4),
        |_| {},
    );
    for row in &profile {
        println!(
            "  {:<12} {:.2} (SandyBridge {:.3} J vs Woodcrest {:.3} J per request)",
            row.kind.name(),
            row.ratio(),
            row.new_machine_j,
            row.old_machine_j
        );
    }
    let ratios: Vec<_> = profile.iter().map(|r| (r.kind, r.ratio())).collect();

    let mut policies: Vec<Box<dyn DistributionPolicy>> = vec![
        Box::new(SimpleBalance::new()),
        Box::new(MachineHeterogeneityAware::new()),
        Box::new(WorkloadHeterogeneityAware::new(ratios)),
    ];
    println!("\nrunning the 50/50 GAE-Vosao + RSA-crypto mix under three policies:");
    let mut totals = Vec::new();
    for p in &mut policies {
        let outcome = run_cluster(p.as_mut(), &cfg, &cals);
        println!(
            "  {:<30} total {:>6.1} W  (SB {:>5.1} W @ {:.0}% util, WC {:>5.1} W @ {:.0}% util)",
            outcome.policy,
            outcome.total_energy_rate_w(),
            outcome.per_node[0].energy_rate_w,
            outcome.per_node[0].utilization * 100.0,
            outcome.per_node[1].energy_rate_w,
            outcome.per_node[1].utilization * 100.0,
        );
        totals.push(outcome.total_energy_rate_w());
    }
    println!(
        "\nworkload-aware distribution saves {:.0}% vs simple balance and {:.0}% vs \
         machine-aware — the Fig. 14 result.",
        (1.0 - totals[2] / totals[0]) * 100.0,
        (1.0 - totals[2] / totals[1]) * 100.0
    );
}
