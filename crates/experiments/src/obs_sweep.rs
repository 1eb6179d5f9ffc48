//! Observability study: the always-on `pc-obs` plane over injected
//! energy-SLO violations.
//!
//! Runs a ladder of seeded serving-fleet cells with the observability
//! plane enabled and asserts the burn-rate monitor behaves like an SLO
//! monitor should: **alert rungs fire their expected typed alerts**
//! (cap-headroom exhaustion under a tight cluster cap, joules/request
//! regression under a late-onset slowdown storm, attribution-residual
//! anomaly under late-onset crash loss windows) and **control rungs
//! stay silent** (clean fleet, generously capped fleet, and a
//! megafleet-scale always-on cell). Alert streams, sketches and rollups
//! carry only simulated timestamps and merge in node order, so every
//! cell's report — and this experiment's record — is byte-identical at
//! any `--jobs`/`--shards` count.
//!
//! Small rungs additionally collect per-request energy provenance
//! (node → incarnation → container → cpu/throttled/io segment) and,
//! when `--trace` is active, export each rung's `.obs.json` report and
//! `.folded` flamegraph next to its trace.

use crate::output::{banner, write_record, Table};
use crate::{Lab, RunCtx, Scale};
use cluster::{
    offered_cluster_rate, run_pipeline, AdmissionConfig, ClusterConfig, DistributionPolicy,
    ObsConfig, ObsOutcome, RecoveryConfig, SimpleBalance, Topology,
};
use hwsim::FaultConfig;
use serde::Serialize;
use simkern::SimDuration;
use telemetry::obs::{provenance_folded, AlertKind, SloRules};
use workloads::MachineCalibration;

/// Fleet size of the small rungs: a three-tier pipeline, matching the
/// chaos sweep.
pub const FLEET_NODES: usize = 6;

/// Megafleet always-on cell: (nodes, requests) per scale — the proof
/// that the plane stays cheap and silent at fleet scale.
pub fn megafleet_cell(scale: Scale) -> (usize, u64) {
    match scale {
        Scale::Full => (100, 100_000),
        Scale::Quick => (32, 5_000),
    }
}

/// How a rung is capped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CapTier {
    /// No cluster cap: the cap-burn rule is vacuous.
    Uncapped,
    /// A cap far above natural draw: headroom stays wide open.
    Generous,
    /// A cap tight enough that conditioning pins power against it:
    /// headroom collapses below the burn threshold.
    Tight,
}

/// One rung of the observability ladder.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ObsScenario {
    /// Rung name (also the trace/artifact stem).
    pub name: &'static str,
    /// Cluster cap tier.
    pub cap: CapTier,
    /// Node slowdown windows per node-second (the regression injector).
    pub slowdown_hz: f64,
    /// Node crash windows per node-second (the residual injector).
    pub crash_hz: f64,
    /// Fault-plan quiet period as a fraction of the run: faults start
    /// only after the monitor's baseline windows are clean.
    pub onset_frac: f64,
    /// The cap-burn rule must fire on this rung.
    pub expect_cap_burn: bool,
    /// The energy-regression rule must fire on this rung.
    pub expect_regression: bool,
    /// The residual-anomaly rule must fire on this rung.
    pub expect_residual: bool,
}

impl ObsScenario {
    /// `true` when the rung must emit zero alerts.
    pub fn control(&self) -> bool {
        !(self.expect_cap_burn || self.expect_regression || self.expect_residual)
    }

    /// The alert kinds this rung expects, in [`AlertKind::ALL`] order.
    pub fn expected_kinds(&self) -> Vec<AlertKind> {
        let mut out = Vec::new();
        if self.expect_cap_burn {
            out.push(AlertKind::CapBurn);
        }
        if self.expect_regression {
            out.push(AlertKind::EnergyRegression);
        }
        if self.expect_residual {
            out.push(AlertKind::ResidualAnomaly);
        }
        out
    }
}

/// The canonical ladder: two controls, then one rung per burn-rate
/// rule. Both scales run the same rungs (`Quick` only shortens them).
pub const SCENARIOS: &[ObsScenario] = &[
    ObsScenario {
        name: "control",
        cap: CapTier::Uncapped,
        slowdown_hz: 0.0,
        crash_hz: 0.0,
        onset_frac: 0.0,
        expect_cap_burn: false,
        expect_regression: false,
        expect_residual: false,
    },
    ObsScenario {
        name: "control-capped",
        cap: CapTier::Generous,
        slowdown_hz: 0.0,
        crash_hz: 0.0,
        onset_frac: 0.0,
        expect_cap_burn: false,
        expect_regression: false,
        expect_residual: false,
    },
    ObsScenario {
        name: "cap-burn",
        cap: CapTier::Tight,
        slowdown_hz: 0.0,
        crash_hz: 0.0,
        onset_frac: 0.0,
        expect_cap_burn: true,
        expect_regression: false,
        expect_residual: false,
    },
    ObsScenario {
        name: "energy-regression",
        cap: CapTier::Uncapped,
        slowdown_hz: 6.0,
        crash_hz: 0.0,
        onset_frac: 0.45,
        expect_cap_burn: false,
        expect_regression: true,
        expect_residual: false,
    },
    ObsScenario {
        name: "residual-anomaly",
        cap: CapTier::Uncapped,
        slowdown_hz: 0.0,
        crash_hz: 2.5,
        onset_frac: 0.45,
        expect_cap_burn: false,
        expect_regression: false,
        expect_residual: true,
    },
];

/// Target request count per small rung.
fn target_requests(scale: Scale) -> f64 {
    match scale {
        Scale::Full => 9_000.0,
        Scale::Quick => 1_800.0,
    }
}

/// Minimum simulated seconds per rung, so the 250 ms monitor window
/// always sees a meaningful ladder of full windows past the baseline.
fn min_secs(scale: Scale) -> f64 {
    match scale {
        Scale::Full => 6.0,
        Scale::Quick => 3.0,
    }
}

/// Deterministic scenario-name hash (FNV-1a) for fault-clock seeding.
fn fxhash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Burn-rate rules for a rung: the standard thresholds, with the
/// residual rung dropping to single-window firing (crash loss windows
/// are transient — the residual spikes for exactly the window the
/// restore rolled back, so two-consecutive hysteresis would mask it).
fn cell_rules(scenario: &ObsScenario) -> SloRules {
    let mut rules = SloRules::standard();
    if scenario.expect_residual {
        rules.fire_after = 1;
    }
    rules
}

/// Builds one rung's cluster config (shared with the test suites, so
/// the CI smoke cell is exactly a sweep cell). Kernel policy and shard
/// count are at their defaults; [`run_cell`] applies the context's.
pub fn cell_config(scale: Scale, scenario: &ObsScenario) -> ClusterConfig {
    let mut cfg = ClusterConfig::sharded(&Topology::serving_pipeline(FLEET_NODES));
    cfg.seed = crate::SEED;
    let rate = offered_cluster_rate(&cfg);
    let secs = (target_requests(scale) / rate).max(min_secs(scale));
    cfg.duration = SimDuration::from_millis((secs * 1e3).ceil() as u64);

    // Tier calibration (empirical, both scales): uncapped draw is
    // ~295 W and the conditioning controller's throttle floor is
    // ~185 W, so 4.5 W/core (180 W) pins headroom at or below zero —
    // sustained cap-budget burn — while 40 W/core leaves >80% headroom.
    let cores: usize = cfg.nodes.iter().map(hwsim::MachineSpec::total_cores).sum();
    cfg.power_cap_w = match scenario.cap {
        CapTier::Uncapped => None,
        CapTier::Generous => Some(40.0 * cores as f64),
        CapTier::Tight => Some(4.5 * cores as f64),
    };

    if scenario.slowdown_hz > 0.0 || scenario.crash_hz > 0.0 {
        cfg.faults = FaultConfig {
            seed: crate::SEED ^ fxhash(scenario.name),
            node_slowdown_hz: scenario.slowdown_hz,
            node_slowdown_factor: 0.5,
            node_slowdown_len: SimDuration::from_millis(400),
            node_crash_hz: scenario.crash_hz,
            node_crash_len: SimDuration::from_millis(120),
            node_warmup_len: SimDuration::from_millis(80),
            node_fault_start: SimDuration::from_millis(
                (cfg.duration.as_secs_f64() * scenario.onset_frac * 1e3) as u64,
            ),
            ..FaultConfig::none()
        };
    }
    if scenario.slowdown_hz > 0.0 {
        // Aggressive hedging turns the slowdown storm into a genuine
        // J/req regression: completions stall on slowed nodes while
        // hedged duplicates burn joules on two nodes per request, so
        // attributed energy per completion climbs past the baseline.
        // (A bare DVFS slowdown *saves* energy per request.)
        cfg.recovery = Some(RecoveryConfig {
            hedge_after: Some(SimDuration::from_millis(12)),
            ..RecoveryConfig::standard()
        });
        cfg.admission = Some(AdmissionConfig::standard());
    }
    if scenario.crash_hz > 0.0 {
        // A long checkpoint cadence widens the loss window a crash rolls
        // attribution back by — exactly the residual the anomaly rule
        // watches for.
        cfg.recovery = Some(RecoveryConfig {
            checkpoint_every: SimDuration::from_millis(400),
            ..RecoveryConfig::standard()
        });
        cfg.admission = Some(AdmissionConfig::standard());
    }

    cfg.obs = Some(ObsConfig {
        rules: cell_rules(scenario),
        provenance: true,
        tenants: 2,
        ..ObsConfig::standard()
    });
    cfg
}

/// Per-node calibrations for `cfg`, reusing one calibration per
/// distinct machine generation.
pub fn cell_calibrations(lab: &mut Lab, cfg: &ClusterConfig) -> Vec<MachineCalibration> {
    cfg.nodes.iter().map(|spec| lab.calibration(spec.name)).collect()
}

/// One rung's results.
#[derive(Debug, Clone, Serialize)]
pub struct ObsSweepRow {
    /// Rung name.
    pub scenario: String,
    /// Simulated seconds.
    pub sim_secs: f64,
    /// Full monitor windows closed.
    pub windows: u64,
    /// Requests offered / completed.
    pub dispatched: u64,
    /// Requests that completed the full pipeline.
    pub completed: usize,
    /// Node crash/restart cycles.
    pub crashes: u64,
    /// Alerts fired, indexed like [`AlertKind::ALL`].
    pub alerts: [u64; AlertKind::ALL.len()],
    /// Fleet p99 end-to-end latency, seconds.
    pub p99_latency_s: f64,
    /// Fleet p99 attributed energy per request, Joules.
    pub p99_j_per_req: f64,
    /// Provenance leaves collected (0 when provenance is off).
    pub provenance_entries: usize,
    /// Every expected alert kind fired.
    pub expected_fired: bool,
    /// A control rung stayed silent (vacuously true on alert rungs).
    pub silent_ok: bool,
}

/// The sweep record.
#[derive(Debug, Clone, Serialize)]
pub struct ObsSweep {
    /// Small rungs, in canonical ladder order.
    pub rows: Vec<ObsSweepRow>,
    /// The megafleet always-on cell.
    pub megafleet: ObsSweepRow,
    /// Every alert rung fired its expected kinds.
    pub alerts_fired: bool,
    /// Every control rung (megafleet included) emitted zero alerts.
    pub controls_silent: bool,
}

/// Runs one rung and checks its alert contract. Shared with the CI
/// smoke test; returns the outcome so tests can pin the report bytes.
pub fn run_cell(
    ctx: &RunCtx,
    scenario: &ObsScenario,
    cals: &[MachineCalibration],
) -> (ObsSweepRow, ObsOutcome) {
    let mut cfg = cell_config(ctx.scale, scenario);
    cfg.sched = vec![ctx.sched.clone()];
    cfg.shards = ctx.shards;
    cfg.telemetry = ctx.telemetry();
    let mut policies: Vec<Box<dyn DistributionPolicy>> = (0..cfg.tiers.len())
        .map(|_| Box::new(SimpleBalance::new()) as Box<dyn DistributionPolicy>)
        .collect();
    let o = run_pipeline(&mut policies, &cfg, cals);
    ctx.note(&o);
    let stem = crate::runner::slug(scenario.name);
    ctx.write_trace("obs_sweep", &stem, &cfg.telemetry);
    let obs = *o.obs.clone().expect("obs plane was enabled");
    write_obs_artifacts(ctx, &stem, &obs);

    let row = summarize_cell(scenario.name, cfg.duration.as_secs_f64(), &o, &obs, scenario);
    assert!(
        row.expected_fired,
        "obs rung `{}`: expected alert kinds {:?} did not all fire (alerts: {:?})",
        scenario.name,
        scenario.expected_kinds(),
        obs.report.alerts
    );
    assert!(
        row.silent_ok,
        "obs rung `{}`: control rung fired {} alert(s): {:?}",
        scenario.name,
        obs.report.alerts.len(),
        obs.report.alerts
    );
    (row, obs)
}

/// Folds one cell's outcome into a row.
fn summarize_cell(
    name: &str,
    sim_secs: f64,
    o: &cluster::ClusterOutcome,
    obs: &ObsOutcome,
    scenario: &ObsScenario,
) -> ObsSweepRow {
    let mut alerts = [0u64; AlertKind::ALL.len()];
    for a in &obs.report.alerts {
        alerts[a.kind.index()] += 1;
    }
    let expected_fired =
        scenario.expected_kinds().iter().all(|k| alerts[k.index()] > 0);
    let silent_ok = !scenario.control() || obs.report.alerts.is_empty();
    ObsSweepRow {
        scenario: name.to_string(),
        sim_secs,
        windows: obs
            .report
            .series
            .get("power_w/fleet")
            .map(|r| r.total_count())
            .unwrap_or(0),
        dispatched: o.dispatched,
        completed: o.completed,
        crashes: o.crashes,
        alerts,
        p99_latency_s: obs
            .report
            .sketches
            .get("latency_s/fleet")
            .map(|s| s.quantile(0.99))
            .unwrap_or(0.0),
        p99_j_per_req: obs
            .report
            .sketches
            .get("energy_j_per_req/fleet")
            .map(|s| s.quantile(0.99))
            .unwrap_or(0.0),
        provenance_entries: obs.provenance.len(),
        expected_fired,
        silent_ok,
    }
}

/// Exports a rung's `.obs.json` report and `.folded` provenance next to
/// its trace; a no-op unless `--trace` is active.
fn write_obs_artifacts(ctx: &RunCtx, stem: &str, obs: &ObsOutcome) {
    let Some(root) = &ctx.trace_dir else { return };
    let dir = root.join("obs_sweep");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let write = |path: std::path::PathBuf, bytes: String| {
        if let Err(e) = std::fs::write(&path, bytes) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    };
    write(dir.join(format!("{stem}.obs.json")), obs.report.to_json());
    if !obs.provenance.is_empty() {
        write(dir.join(format!("{stem}.folded")), provenance_folded(&obs.provenance));
    }
}

/// Runs the megafleet always-on cell: a clean scaled fleet with the
/// standard plane enabled (no provenance), which must conserve requests
/// and stay alert-silent.
pub fn run_megafleet_cell(ctx: &RunCtx, lab: &mut Lab) -> ObsSweepRow {
    let (nodes, requests) = megafleet_cell(ctx.scale);
    let mut cfg = crate::megafleet::cell_config(nodes, requests);
    ctx.apply(&mut cfg);
    cfg.shards = ctx.shards;
    cfg.obs = Some(ObsConfig::standard());
    let cals = crate::megafleet::cell_calibrations(lab, &cfg);
    let mut policy = SimpleBalance::new();
    let o = cluster::run_cluster(&mut policy, &cfg, &cals);
    ctx.note(&o);
    crate::megafleet::assert_cell_conserved("obs-megafleet", &o);
    let obs = *o.obs.clone().expect("obs plane was enabled");
    let scenario = ObsScenario {
        name: "megafleet-always-on",
        cap: CapTier::Uncapped,
        slowdown_hz: 0.0,
        crash_hz: 0.0,
        onset_frac: 0.0,
        expect_cap_burn: false,
        expect_regression: false,
        expect_residual: false,
    };
    let row =
        summarize_cell(scenario.name, cfg.duration.as_secs_f64(), &o, &obs, &scenario);
    assert!(
        row.silent_ok,
        "obs megafleet cell fired {} alert(s) on a clean run: {:?}",
        obs.report.alerts.len(),
        obs.report.alerts
    );
    row
}

/// Runs the ladder and prints the grid.
pub fn run(ctx: &RunCtx) -> ObsSweep {
    banner("obs-sweep", "energy-SLO burn-rate alerts over injected violations");
    let mut lab = Lab::new();

    let tasks: Vec<_> = SCENARIOS
        .iter()
        .map(|sc| {
            let cals = cell_calibrations(&mut lab, &cell_config(ctx.scale, sc));
            move || run_cell(ctx, sc, &cals).0
        })
        .collect();
    let rows: Vec<ObsSweepRow> = ctx.run_cells("obs-sweep cell", tasks);
    let megafleet = run_megafleet_cell(ctx, &mut lab);

    let mut table = Table::new([
        "scenario", "windows", "completed", "crashes", "cap-burn", "regress", "residual",
        "p99 lat (s)", "p99 J/req",
    ]);
    for r in rows.iter().chain(std::iter::once(&megafleet)) {
        table.row([
            r.scenario.clone(),
            r.windows.to_string(),
            r.completed.to_string(),
            r.crashes.to_string(),
            r.alerts[AlertKind::CapBurn.index()].to_string(),
            r.alerts[AlertKind::EnergyRegression.index()].to_string(),
            r.alerts[AlertKind::ResidualAnomaly.index()].to_string(),
            format!("{:.4}", r.p99_latency_s),
            format!("{:.4}", r.p99_j_per_req),
        ]);
    }
    println!("{table}");

    let alerts_fired = rows.iter().all(|r| r.expected_fired);
    let controls_silent =
        rows.iter().all(|r| r.silent_ok) && megafleet.silent_ok;
    println!(
        "alert rungs: {} | control rungs: {}",
        if alerts_fired { "FIRED" } else { "SILENT" },
        if controls_silent { "SILENT" } else { "NOISY" },
    );

    let record = ObsSweep { rows, megafleet, alerts_fired, controls_silent };
    write_record("obs_sweep", &record);
    record
}
