//! Megafleet: intra-cell sharded simulation capacity study.
//!
//! Sweeps a (nodes × requests) grid of single-tier heterogeneous fleets
//! ([`Topology::scaled_fleet`]) up to 1000 nodes and 10⁶ requests per
//! cell, driving each cell through the tick-batched dispatcher with
//! `--shards N` worker threads advancing disjoint node chunks between
//! tick barriers. The point is capacity, not policy: every cell must
//! conserve requests exactly (dispatched = completed + dropped +
//! in-flight, per cluster and per node) and attribute (nearly) all
//! measured active energy, no matter how large the fleet or how many
//! shards advance it.
//!
//! Cells are independent seeded simulations and fan out across
//! [`RunCtx::jobs`] workers; intra-cell shard count comes from
//! [`RunCtx::shards`]. The record carries no wall-clock values —
//! per-cell wall time and throughput go to stderr — so `results/*.json`
//! stay byte-identical at any `--jobs` *and* any `--shards` count.

use crate::output::{banner, write_record, Table};
use crate::{Lab, RunCtx, Scale};
use cluster::{offered_cluster_rate, run_cluster, ClusterConfig, SimpleBalance, Topology};
use serde::Serialize;
use simkern::SimDuration;
use workloads::MachineCalibration;

/// One cell of the (nodes × requests) grid.
#[derive(Debug, Clone, Serialize)]
pub struct MegafleetRow {
    /// Fleet size (single-tier heterogeneous mix).
    pub nodes: usize,
    /// Total cores across the fleet.
    pub cores: usize,
    /// Requests the cell was sized to offer.
    pub target_requests: u64,
    /// Simulated seconds.
    pub sim_secs: f64,
    /// Requests the load generator offered.
    pub dispatched: u64,
    /// Requests that completed.
    pub completed: usize,
    /// Requests dropped (all target nodes penalized).
    pub dropped: u64,
    /// Requests still in flight at the end.
    pub in_flight: u64,
    /// Routing decisions the dispatcher made.
    pub decisions: u64,
    /// Combined active energy rate across the fleet, Watts.
    pub total_w: f64,
    /// Mean attributed energy per completed request, Joules.
    pub energy_per_req_j: f64,
    /// Mean end-to-end response time across apps, seconds.
    pub mean_resp_s: f64,
}

/// The sweep record.
#[derive(Debug, Clone, Serialize)]
pub struct Megafleet {
    /// All cells, in canonical (nodes, requests) order.
    pub rows: Vec<MegafleetRow>,
    /// The largest fleet swept.
    pub largest_nodes: usize,
    /// Requests the largest cell offered.
    pub largest_dispatched: u64,
    /// Every cell conserved requests exactly and energy within
    /// tolerance (the run would have panicked otherwise, so a recorded
    /// `true` is the assertion trail, not a soft flag).
    pub conserved: bool,
}

/// The (nodes, requests) grid for each scale. The full-scale headline
/// cell is the issue's target: 1000 nodes serving 10⁶ requests; the
/// quick grid ends at the CI smoke point (100 nodes, 10⁵ requests).
pub fn fleet_cells(scale: Scale) -> &'static [(usize, u64)] {
    match scale {
        Scale::Full => &[(100, 100_000), (320, 320_000), (1000, 1_000_000)],
        Scale::Quick => &[(32, 5_000), (100, 100_000)],
    }
}

/// Fleet-level energy attribution tolerance. Cells are clean (no
/// faults, no cap), but the linear power model still carries per-node
/// fitting error; summed over a whole fleet it stays well inside this.
const ENERGY_TOL: f64 = 0.20;

/// Builds one cell's cluster config (shared with the test suites and
/// the CI smoke job, so those cells are exactly sweep cells). Duration
/// is sized from the fleet's offered rate so the open-loop generator
/// issues `requests` regardless of fleet size. Flags are at their
/// defaults (round-robin, one shard, no obs plane); [`run`] applies the
/// context on top.
pub fn cell_config(nodes: usize, requests: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::sharded(&Topology::scaled_fleet(nodes));
    cfg.seed = crate::SEED;
    let rate = offered_cluster_rate(&cfg);
    let secs = (requests as f64 / rate).max(0.25);
    cfg.duration = SimDuration::from_millis((secs * 1e3).ceil() as u64);
    cfg
}

/// Per-node calibrations for `cfg`, one per distinct machine generation.
pub fn cell_calibrations(lab: &mut Lab, cfg: &ClusterConfig) -> Vec<MachineCalibration> {
    cfg.nodes.iter().map(|spec| lab.calibration(spec.name)).collect()
}

/// Panics unless `outcome` conserves requests exactly (cluster-wide and
/// per node) and attributes measured active energy within
/// [`ENERGY_TOL`] fleet-wide. Shared with the test suites.
pub fn assert_cell_conserved(label: &str, outcome: &cluster::ClusterOutcome) {
    assert_eq!(
        outcome.dispatched,
        outcome.completed as u64 + outcome.dropped + outcome.in_flight + outcome.lost_in_crash,
        "{label}: cluster request conservation"
    );
    let mut active = 0.0;
    let mut attributed = 0.0;
    for (i, node) in outcome.per_node.iter().enumerate() {
        assert_eq!(
            node.dispatched,
            node.completions as u64 + node.in_flight + node.lost_requests,
            "{label}: node {i} ({}) request conservation",
            node.machine
        );
        active += node.active_energy_j;
        attributed += node.attributed_energy_j;
    }
    assert!(
        active > 0.0 && (attributed - active).abs() / active <= ENERGY_TOL,
        "{label}: fleet energy attribution {attributed:.1} J vs measured {active:.1} J \
         exceeds {:.0}% tolerance",
        ENERGY_TOL * 100.0
    );
}

fn run_cell(
    ctx: &RunCtx,
    nodes: usize,
    requests: u64,
    traced: bool,
    cals: &[MachineCalibration],
) -> MegafleetRow {
    let mut cfg = cell_config(nodes, requests);
    ctx.apply(&mut cfg);
    cfg.shards = ctx.shards;
    // Tracing is restricted to the grid's smallest cell: a recording
    // sink holds every event in memory and a 10⁶-request cell emits
    // gigabytes, while the smallest cell already pins the schema.
    if traced {
        cfg.telemetry = ctx.telemetry();
    }
    let t0 = std::time::Instant::now();
    let outcome = run_cluster(&mut SimpleBalance::new(), &cfg, cals);
    let wall = t0.elapsed();
    ctx.note(&outcome);
    if traced {
        ctx.write_trace(
            "megafleet",
            &format!("{nodes:04}nodes-{requests}req"),
            &cfg.telemetry,
        );
    }
    assert_cell_conserved(&format!("megafleet {nodes}x{requests}"), &outcome);
    eprintln!(
        "[megafleet {nodes} nodes x {requests} req: {wall:.1?} wall, {:.0} req/s, shards {}]",
        outcome.dispatched as f64 / wall.as_secs_f64().max(1e-9),
        cfg.shards,
    );
    let attributed: f64 = outcome.per_node.iter().map(|n| n.attributed_energy_j).sum();
    let resp: Vec<f64> = outcome
        .response_by_app
        .iter()
        .filter(|(_, s)| s.count() > 0)
        .map(|(_, s)| s.mean())
        .collect();
    MegafleetRow {
        nodes,
        cores: cfg.nodes.iter().map(hwsim::MachineSpec::total_cores).sum(),
        target_requests: requests,
        sim_secs: cfg.duration.as_secs_f64(),
        dispatched: outcome.dispatched,
        completed: outcome.completed,
        dropped: outcome.dropped,
        in_flight: outcome.in_flight,
        decisions: outcome.decisions,
        total_w: outcome.total_energy_rate_w(),
        energy_per_req_j: attributed / (outcome.completed.max(1) as f64),
        mean_resp_s: resp.iter().sum::<f64>() / resp.len().max(1) as f64,
    }
}

/// Runs the sweep and prints the grid.
pub fn run(ctx: &RunCtx) -> Megafleet {
    banner("megafleet", "sharded single-cell capacity sweep (nodes x requests)");
    let mut lab = Lab::new();
    let cells = fleet_cells(ctx.scale);
    let tasks: Vec<_> = cells
        .iter()
        .enumerate()
        .map(|(i, &(nodes, requests))| {
            let cals = cell_calibrations(&mut lab, &cell_config(nodes, requests));
            move || run_cell(ctx, nodes, requests, i == 0, &cals)
        })
        .collect();
    let rows: Vec<MegafleetRow> = ctx.run_cells("megafleet cell", tasks);

    let mut table = Table::new([
        "nodes",
        "cores",
        "requests",
        "sim (s)",
        "completed",
        "in flight",
        "total (W)",
        "J/req",
        "resp (ms)",
    ]);
    for r in &rows {
        table.row([
            r.nodes.to_string(),
            r.cores.to_string(),
            r.dispatched.to_string(),
            format!("{:.1}", r.sim_secs),
            r.completed.to_string(),
            r.in_flight.to_string(),
            format!("{:.0}", r.total_w),
            format!("{:.2}", r.energy_per_req_j),
            format!("{:.1}", r.mean_resp_s * 1e3),
        ]);
    }
    println!("{table}");

    let last = rows.last().expect("nonempty grid");
    println!(
        "largest cell: {} nodes served {} requests, conservation exact on every node",
        last.nodes, last.dispatched
    );
    let record = Megafleet {
        largest_nodes: last.nodes,
        largest_dispatched: last.dispatched,
        conserved: true,
        rows,
    };
    write_record("megafleet", &record);
    record
}
