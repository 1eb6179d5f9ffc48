//! Diurnal study: flash-crowd survival and the power-aware elastic
//! autoscaler against a fixed fleet, across one compressed day.
//!
//! Sweeps a ladder of non-stationary traffic regimes — steady sessions
//! (control), a diurnal sinusoid, diurnal + flash crowds under a tight
//! cluster cap, flash crowds + crash chaos under the cap, and a rolling
//! generation upgrade — over a single-tier heterogeneous fleet
//! ([`Topology::scaled_fleet`]). Every rung runs **two arms** on the
//! same offered traffic: a *fixed* fleet (the whole topology active all
//! day) and an *autoscaled* fleet (the elasticity controller resizing
//! between the floor and the full topology). The comparison metric is
//! the objective the controller optimizes: **joules per completed
//! request**, counting active energy, the idle burden of every powered
//! stretch, and the warm-up energy charged to provisioning transitions.
//!
//! Every cell asserts the shared invariants:
//!
//! 1. **Request conservation** — exact, typed, cluster-wide and per
//!    node, across every resize transition.
//! 2. **Energy conservation modulo journaled loss windows** — and clean
//!    scale-in drains journal a loss of *exactly zero*.
//! 3. **Cap compliance** — capped rungs hold the cap on mean active
//!    power while the brownout ladder absorbs flash peaks.
//! 4. **Elasticity pays** — on the diurnal rung the autoscaled arm
//!    beats the fixed fleet by at least 20 % J/request.
//!
//! Cells are independent seeded simulations and fan out across
//! [`RunCtx::jobs`] workers; intra-cell shard count comes from
//! [`RunCtx::shards`]. Records and traces carry only simulated
//! timestamps, so results are byte-identical at any `--jobs` and any
//! `--shards` count.

use crate::output::{banner, write_record, Table};
use crate::{Lab, RunCtx, Scale};
use cluster::{
    offered_cluster_rate, run_cluster, AdmissionConfig, AutoscaleConfig, ClusterConfig,
    RecoveryConfig, RollingUpgrade, ScaleKind, ShedReason, SimpleBalance, Topology,
};
use hwsim::FaultConfig;
use serde::Serialize;
use simkern::SimDuration;
use workloads::{Diurnal, FlashCrowds, MachineCalibration, TrafficShape};

/// Relative tolerance for the energy-conservation invariant (same
/// bounds the chaos sweep uses for clean and crash-bearing cells).
const ENERGY_TOL_CLEAN: f64 = 0.25;
const ENERGY_TOL_FAULT: f64 = 0.45;

/// Cap slack on mean active power: conditioning throttles duty cycles
/// per request, so restart/provision transients ride slightly over.
const CAP_SLACK: f64 = 1.10;

/// Required J/request advantage of the autoscaled arm on the diurnal
/// rung (the issue's headline claim).
pub const DIURNAL_WIN_FLOOR: f64 = 0.20;

/// Offered volume as a fraction of the *full* fleet's simple-balance
/// maximum. Sized so the diurnal peak (1.7×) still fits the whole
/// topology while the trough (0.3×) leaves most of it idle — the
/// regime where elasticity pays.
const VOLUME: f64 = 0.55;

/// One rung of the diurnal ladder.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DiurnalScenario {
    /// Scenario name (also the trace stem).
    pub name: &'static str,
    /// Diurnal sinusoid on the offered rate.
    pub diurnal: bool,
    /// Flash-crowd spikes on top of the envelope.
    pub flash: bool,
    /// Crash chaos (seeded node-crash windows + recovery).
    pub chaos: bool,
    /// Tight cluster power cap (engages the brownout ladder).
    pub capped: bool,
    /// Rolling generation-upgrade schedule on the autoscaled arm.
    pub upgrade: bool,
}

/// The canonical ladder, in escalating order. Both scales run the same
/// rungs; `Quick` only shortens the day.
pub const SCENARIOS: &[DiurnalScenario] = &[
    DiurnalScenario { name: "steady", diurnal: false, flash: false, chaos: false, capped: false, upgrade: false },
    DiurnalScenario { name: "diurnal", diurnal: true, flash: false, chaos: false, capped: false, upgrade: false },
    DiurnalScenario { name: "diurnal-flash", diurnal: true, flash: true, chaos: false, capped: true, upgrade: false },
    DiurnalScenario { name: "flash-chaos", diurnal: false, flash: true, chaos: true, capped: true, upgrade: false },
    DiurnalScenario { name: "rolling-upgrade", diurnal: false, flash: false, chaos: false, capped: false, upgrade: true },
];

/// Fleet size per scale (single-tier heterogeneous mix).
pub fn fleet_nodes(scale: Scale) -> usize {
    match scale {
        Scale::Full => 64,
        Scale::Quick => 12,
    }
}

/// (floor, birth) fleet sizes for the autoscaled arm.
fn autoscale_bounds(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (8, 32),
        Scale::Quick => (3, 6),
    }
}

/// Target request count per cell (the full ladder offers millions of
/// requests across its ten cells).
fn target_requests(scale: Scale) -> f64 {
    match scale {
        Scale::Full => 400_000.0,
        Scale::Quick => 9_000.0,
    }
}

/// Rolling-upgrade swaps on the upgrade rung.
pub fn upgrade_count(scale: Scale) -> usize {
    match scale {
        Scale::Full => 4,
        Scale::Quick => 2,
    }
}

/// Cap for the capped rungs, Watts: sized to sit between the fleet's
/// mean draw at [`VOLUME`] and its flash-peak draw, so the brownout
/// ladder must engage on spikes and release between them.
fn cap_w(cores: usize) -> f64 {
    5.5 * cores as f64
}

/// The traffic shape one rung offers over a `day` (both arms get the
/// identical shape, so the comparison sees the same arrivals).
pub fn shape_for(scenario: &DiurnalScenario, day: SimDuration) -> TrafficShape {
    let mut shape = TrafficShape::steady();
    if scenario.diurnal {
        shape.diurnal = Some(Diurnal { period: day, amplitude: 0.7, phase: 0.0 });
    }
    if scenario.flash {
        // ~5 expected spikes per day, each occupying ~5 % of it, at a
        // 2.3× peak multiplier — brief overload bursts (the offered
        // peak exceeds what the fleet can serve) separated by normal
        // traffic, not a sustained pile-up. Windows scale with the day
        // so both scales see the same *shape*; the schedule is seeded,
        // so each config's spike train is fixed.
        let day_s = day.as_secs_f64();
        let frac = |f: f64| SimDuration::from_millis((f * day_s * 1e3).ceil() as u64);
        shape.flash = Some(FlashCrowds {
            spikes_per_sec: 5.0 / day_s,
            ramp: frac(0.015),
            hold: frac(0.03),
            decay: frac(0.025),
            peak_excess: 1.3,
        });
    }
    shape
}

/// Builds one cell's cluster config (shared with the test suites and
/// the CI smoke job, so those cells are exactly sweep cells). The day
/// length is sized from the full fleet's offered rate so the ladder
/// issues `target_requests` per cell regardless of fleet size. Flags are
/// at their defaults (round-robin, one shard, no obs plane); [`run_cell`]
/// applies the context on top.
pub fn cell_config(scale: Scale, scenario: &DiurnalScenario, autoscaled: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::sharded(&Topology::scaled_fleet(fleet_nodes(scale)));
    cfg.seed = crate::SEED;
    cfg.volume = VOLUME;
    let rate = offered_cluster_rate(&cfg);
    let secs = (target_requests(scale) / rate).max(4.0);
    cfg.duration = SimDuration::from_millis((secs * 1e3).ceil() as u64);
    cfg.traffic = Some(shape_for(scenario, cfg.duration));
    cfg.recovery = Some(RecoveryConfig::standard());
    if scenario.capped {
        let cores: usize = cfg.nodes.iter().map(hwsim::MachineSpec::total_cores).sum();
        cfg.power_cap_w = Some(cap_w(cores));
        cfg.admission = Some(AdmissionConfig::standard());
    }
    if scenario.chaos {
        cfg.faults = FaultConfig {
            seed: crate::SEED ^ 0xD1A2,
            node_crash_hz: 0.5,
            node_crash_len: SimDuration::from_millis(120),
            node_warmup_len: SimDuration::from_millis(80),
            ..FaultConfig::none()
        };
    }
    if autoscaled {
        let (floor, birth) = autoscale_bounds(scale);
        let mut ac = AutoscaleConfig::standard(floor, birth);
        if scenario.upgrade {
            ac.upgrade = Some(RollingUpgrade {
                start: SimDuration::from_secs_f64(0.3 * cfg.duration.as_secs_f64()),
                every: SimDuration::from_secs_f64(0.15 * cfg.duration.as_secs_f64()),
                count: upgrade_count(scale),
            });
        }
        cfg.autoscale = Some(ac);
    }
    cfg
}

/// Per-node calibrations for `cfg`, one per distinct machine generation.
pub fn cell_calibrations(lab: &mut Lab, cfg: &ClusterConfig) -> Vec<MachineCalibration> {
    cfg.nodes.iter().map(|spec| lab.calibration(spec.name)).collect()
}

/// One arm of one rung.
#[derive(Debug, Clone, Serialize)]
pub struct DiurnalRow {
    /// Scenario name.
    pub scenario: String,
    /// `"autoscaled"` or `"fixed"`.
    pub arm: &'static str,
    /// Topology size (the autoscaled arm's ceiling).
    pub nodes: usize,
    /// Cluster-wide power cap, Watts (`None` = uncapped).
    pub cap_w: Option<f64>,
    /// Simulated seconds (one compressed day).
    pub sim_secs: f64,
    /// Requests the traffic layer offered.
    pub dispatched: u64,
    /// Requests that completed.
    pub completed: usize,
    /// Typed shed counts, in [`ShedReason::ALL`] order.
    pub shed: [u64; ShedReason::ALL.len()],
    /// Requests killed by crashes or forced drains after their budget.
    pub lost_in_crash: u64,
    /// Requests still in flight at the end.
    pub in_flight: u64,
    /// Completed scale-outs / scale-ins / upgrade pairs.
    pub scale_outs: u64,
    /// Completed scale-ins.
    pub scale_ins: u64,
    /// Rolling-upgrade pairs started.
    pub upgrades: u64,
    /// Brownout-ladder climbs.
    pub brownout_engagements: u64,
    /// Node crash/restart cycles.
    pub crashes: u64,
    /// Fleet active (dynamic) energy, Joules.
    pub active_energy_j: f64,
    /// Fleet attributed energy, Joules.
    pub attributed_energy_j: f64,
    /// Energy journaled as lost in crash windows, Joules.
    pub lost_energy_j: f64,
    /// Idle burden over every powered stretch, Joules.
    pub idle_energy_j: f64,
    /// Warm-up energy charged to provisioning transitions, Joules.
    pub provisioning_energy_j: f64,
    /// Node-seconds of powered fleet (uptime summed over nodes).
    pub node_secs: f64,
    /// The objective: (active + idle + provisioning) J per completed
    /// request.
    pub j_per_req: f64,
    /// Mean fleet active power, Watts.
    pub total_w: f64,
    /// Invariant 1 held (exact typed request conservation).
    pub requests_conserved: bool,
    /// Invariant 2 held (energy modulo journaled loss windows; clean
    /// drains exactly zero).
    pub energy_conserved: bool,
    /// Invariant 3 held (vacuously true when uncapped).
    pub cap_ok: bool,
}

/// One rung's fixed-vs-autoscaled comparison.
#[derive(Debug, Clone, Serialize)]
pub struct DiurnalPair {
    /// Scenario name.
    pub scenario: String,
    /// Fixed-arm J/request.
    pub fixed_j_per_req: f64,
    /// Autoscaled-arm J/request.
    pub autoscaled_j_per_req: f64,
    /// Fractional win of the autoscaled arm (1 − auto/fixed).
    pub win: f64,
}

/// The sweep record.
#[derive(Debug, Clone, Serialize)]
pub struct DiurnalSweep {
    /// All arms, fixed then autoscaled per rung, in ladder order.
    pub rows: Vec<DiurnalRow>,
    /// Per-rung comparisons.
    pub pairs: Vec<DiurnalPair>,
    /// The autoscaled arm's J/request win on the diurnal rung.
    pub diurnal_win: f64,
    /// Every cell satisfied exact request conservation.
    pub requests_conserved: bool,
    /// Every cell satisfied energy conservation modulo loss windows.
    pub energy_conserved: bool,
    /// Every capped cell held its cap.
    pub caps_held: bool,
    /// Every capped autoscaled cell engaged the brownout ladder.
    pub brownouts_fired: bool,
    /// The upgrade rung completed every scheduled swap.
    pub upgrades_completed: bool,
}

/// Runs one arm of one rung and checks its invariants. Shared with the
/// CI smoke test.
pub fn run_cell(
    ctx: &RunCtx,
    scenario: &DiurnalScenario,
    autoscaled: bool,
    cals: &[MachineCalibration],
) -> DiurnalRow {
    let scale = ctx.scale;
    let mut cfg = cell_config(scale, scenario, autoscaled);
    ctx.apply(&mut cfg);
    cfg.shards = ctx.shards;
    // Tracing is restricted to the quick ladder: a recording sink holds
    // every event in memory, and a full-scale cell offers ~4×10⁵
    // requests.
    if scale == Scale::Quick {
        cfg.telemetry = ctx.telemetry();
    }
    let arm = if autoscaled { "autoscaled" } else { "fixed" };
    let t0 = std::time::Instant::now();
    let o = run_cluster(&mut SimpleBalance::new(), &cfg, cals);
    let wall = t0.elapsed();
    ctx.note(&o);
    if scale == Scale::Quick {
        ctx.write_trace(
            "diurnal_sweep",
            &crate::runner::slug(&format!("{}-{arm}", scenario.name)),
            &cfg.telemetry,
        );
    }
    let label = format!("diurnal cell `{}/{arm}`", scenario.name);
    eprintln!(
        "[{label}: {wall:.1?} wall, {} offered, {} resizes]",
        o.dispatched,
        o.scale_outs + o.scale_ins
    );

    // Invariant 1 — exact typed request conservation, cluster and node,
    // across every resize.
    let cluster_ok = o.dispatched == o.completed as u64 + o.dropped + o.in_flight
        && o.dropped == o.total_shed() + o.lost_in_crash;
    let nodes_ok = o
        .per_node
        .iter()
        .all(|n| n.dispatched == n.completions as u64 + n.in_flight + n.lost_requests);
    let log_ok = o.scale_log.len() as u64 == o.scale_outs + o.scale_ins;
    let requests_conserved = cluster_ok && nodes_ok && log_ok;
    assert!(
        requests_conserved,
        "{label}: request conservation violated (dispatched {} vs completed {} + \
         shed {} + lost {} + in flight {})",
        o.dispatched,
        o.completed,
        o.total_shed(),
        o.lost_in_crash,
        o.in_flight
    );

    // Invariant 2 — energy conservation modulo journaled loss windows,
    // and *exactly* zero loss on every drain (clean or forced: killed
    // stragglers lose requests, never attributed energy).
    for e in &o.scale_log {
        if matches!(e.kind, ScaleKind::In | ScaleKind::UpgradeIn) {
            assert_eq!(
                e.lost_energy_j, 0.0,
                "{label}: drain of node {} journaled a loss window",
                e.node
            );
            assert!(e.forced || e.lost_requests == 0, "{label}: clean drain killed requests");
        }
    }
    let active: f64 = o.per_node.iter().map(|n| n.active_energy_j).sum();
    let attributed: f64 = o.per_node.iter().map(|n| n.attributed_energy_j).sum();
    let lost: f64 = o.per_node.iter().map(|n| n.lost_energy_j).sum();
    let tol = if scenario.chaos { ENERGY_TOL_FAULT } else { ENERGY_TOL_CLEAN };
    let energy_conserved = (active - (attributed + lost)).abs() / active.max(1e-9) < tol;
    assert!(
        energy_conserved,
        "{label}: energy conservation violated (active {active:.1} J vs attributed \
         {attributed:.1} + lost {lost:.1} J, tol {tol})"
    );

    // Invariant 3 — cap compliance on mean active power (conditioning
    // throttles duty cycles; instantaneous tick samples may spike).
    let total_w = o.total_energy_rate_w();
    let cap_ok = cfg.power_cap_w.map(|cap| total_w <= cap * CAP_SLACK).unwrap_or(true);
    assert!(
        cap_ok,
        "{label}: cap violated ({total_w:.1} W over {:?} W)",
        cfg.power_cap_w
    );

    // Fixed arms must be byte-compatible with the pre-elasticity
    // engine: zero resize counters, full uptime on every node.
    if !autoscaled {
        assert_eq!(o.scale_outs + o.scale_ins + o.upgrades + o.autoscale_evals, 0);
        for n in &o.per_node {
            assert_eq!(n.uptime_s.to_bits(), cfg.duration.as_secs_f64().to_bits());
        }
    }

    let idle: f64 = o.per_node.iter().map(|n| n.idle_energy_j).sum();
    let node_secs: f64 = o.per_node.iter().map(|n| n.uptime_s).sum();
    DiurnalRow {
        scenario: scenario.name.to_string(),
        arm,
        nodes: cfg.nodes.len(),
        cap_w: cfg.power_cap_w,
        sim_secs: cfg.duration.as_secs_f64(),
        dispatched: o.dispatched,
        completed: o.completed,
        shed: o.shed,
        lost_in_crash: o.lost_in_crash,
        in_flight: o.in_flight,
        scale_outs: o.scale_outs,
        scale_ins: o.scale_ins,
        upgrades: o.upgrades,
        brownout_engagements: o.brownout_engagements,
        crashes: o.crashes,
        active_energy_j: active,
        attributed_energy_j: attributed,
        lost_energy_j: lost,
        idle_energy_j: idle,
        provisioning_energy_j: o.provisioning_energy_j,
        node_secs,
        j_per_req: (active + idle + o.provisioning_energy_j) / o.completed.max(1) as f64,
        total_w,
        requests_conserved,
        energy_conserved,
        cap_ok,
    }
}

/// Runs the ladder (both arms per rung) and prints the comparison.
pub fn run(ctx: &RunCtx) -> DiurnalSweep {
    banner(
        "diurnal-sweep",
        "diurnal traffic, flash-crowd survival, elastic autoscaler vs fixed fleet",
    );
    let mut lab = Lab::new();
    let tasks: Vec<_> = SCENARIOS
        .iter()
        .flat_map(|sc| {
            let cals = cell_calibrations(&mut lab, &cell_config(ctx.scale, sc, false));
            [false, true].map(|autoscaled| {
                let cals = cals.clone();
                move || run_cell(ctx, sc, autoscaled, &cals)
            })
        })
        .collect();
    let rows: Vec<DiurnalRow> = ctx.run_cells("diurnal-sweep cell", tasks);

    let mut table = Table::new([
        "scenario",
        "arm",
        "completed",
        "shed",
        "out/in",
        "upgrades",
        "brownouts",
        "node-s",
        "J/req",
        "mean W",
    ]);
    for r in &rows {
        table.row([
            r.scenario.clone(),
            r.arm.to_string(),
            r.completed.to_string(),
            r.shed.iter().sum::<u64>().to_string(),
            format!("{}/{}", r.scale_outs, r.scale_ins),
            r.upgrades.to_string(),
            r.brownout_engagements.to_string(),
            format!("{:.0}", r.node_secs),
            format!("{:.2}", r.j_per_req),
            format!("{:.0}", r.total_w),
        ]);
    }
    println!("{table}");

    let pairs: Vec<DiurnalPair> = SCENARIOS
        .iter()
        .enumerate()
        .map(|(i, sc)| {
            let (fixed, auto) = (&rows[2 * i], &rows[2 * i + 1]);
            assert_eq!((fixed.arm, auto.arm), ("fixed", "autoscaled"));
            DiurnalPair {
                scenario: sc.name.to_string(),
                fixed_j_per_req: fixed.j_per_req,
                autoscaled_j_per_req: auto.j_per_req,
                win: 1.0 - auto.j_per_req / fixed.j_per_req,
            }
        })
        .collect();
    let diurnal_win = pairs
        .iter()
        .find(|p| p.scenario == "diurnal")
        .expect("diurnal rung")
        .win;
    assert!(
        diurnal_win >= DIURNAL_WIN_FLOOR,
        "diurnal rung: autoscaled J/request win {:.1}% below the {:.0}% floor",
        diurnal_win * 100.0,
        DIURNAL_WIN_FLOOR * 100.0
    );

    // Ladder-shape checks: capped autoscaled arms must brown out, the
    // chaos rung must crash, the upgrade rung must finish its swaps.
    let brownouts_fired = SCENARIOS.iter().enumerate().all(|(i, sc)| {
        !sc.capped || rows[2 * i + 1].brownout_engagements > 0
    });
    assert!(brownouts_fired, "a capped rung never engaged the brownout ladder");
    for (i, sc) in SCENARIOS.iter().enumerate() {
        if sc.chaos {
            assert!(rows[2 * i + 1].crashes > 0, "chaos rung never crashed");
        }
    }
    let upgrades_completed = SCENARIOS.iter().enumerate().all(|(i, sc)| {
        !sc.upgrade || rows[2 * i + 1].upgrades == upgrade_count(ctx.scale) as u64
    });
    assert!(upgrades_completed, "the upgrade rung dropped scheduled swaps");

    for p in &pairs {
        println!(
            "{:>16}: fixed {:.2} J/req vs autoscaled {:.2} J/req ({:+.1}%)",
            p.scenario,
            p.fixed_j_per_req,
            p.autoscaled_j_per_req,
            p.win * 100.0
        );
    }
    println!(
        "diurnal rung win: {:.1}% (floor {:.0}%) | conservation: EXACT | drains: lossless",
        diurnal_win * 100.0,
        DIURNAL_WIN_FLOOR * 100.0
    );

    let record = DiurnalSweep {
        requests_conserved: rows.iter().all(|r| r.requests_conserved),
        energy_conserved: rows.iter().all(|r| r.energy_conserved),
        caps_held: rows.iter().all(|r| r.cap_ok),
        brownouts_fired,
        upgrades_completed,
        diurnal_win,
        pairs,
        rows,
    };
    write_record("diurnal_sweep", &record);
    record
}
