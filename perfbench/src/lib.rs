//! The benchmark's workloads: how each one is set up, run, checked and
//! summarized, calling only the crates' public functions.
//!
//! * `fleet-steady` — the `megafleet` 100-node cell, run serially: every
//!   tick is busy and every node is live. The traced pass also runs it at
//!   two shards to price the shard barrier.
//! * `fleet-diurnal` — the `diurnal_sweep` diurnal rung's autoscaled arm
//!   with seeded node crashes and the obs plane, run serially: mostly
//!   quiet ticks, every recovery and elasticity phase.
//! * `node-recal` — one SandyBridge machine serving WeBWorK at peak load
//!   with online recalibration (Fig. 8 approach #3), stepped through
//!   `Kernel::run_until` in fixed simulated slices.
//!
//! Accuracy figures are checked against `hwsim`'s hidden ground truth
//! only; nothing here is validated against real hardware.

pub mod gauge;
pub mod spans;

use cluster::{
    offered_cluster_rate, run_cluster, ClusterConfig, ClusterOutcome, ObsConfig, ScaleKind,
    SimpleBalance,
};
use experiments::diurnal_sweep::{self, DiurnalScenario};
use experiments::{megafleet, Scale};
use hwsim::MachineSpec;
use power_containers::{
    Approach, DelayEstimator, FacilityConfig, FacilityState, ModelKind, Recalibrator, TraceRing,
};
use simkern::{SimDuration, SimTime};
use spans::Spans;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;
use workloads::{
    calibrate_machine, prepare_app, LoadLevel, MachineCalibration, RunConfig, RunOutcome,
    TrafficGen, WorkloadKind,
};

/// Fleet energy-attribution tolerance of the clean `megafleet` cells.
const STEADY_ENERGY_TOL: f64 = 0.20;
/// Energy tolerance `diurnal_sweep` applies to crash-bearing cells.
const CRASH_ENERGY_TOL: f64 = 0.45;
/// Fig. 8 bound on approach #3's validation error (`check_claims`).
const RECAL_ERROR_BOUND: f64 = 0.12;
/// Seed of the §4.1 calibration runs. Calibration is the lab procedure
/// done once per machine, so like the experiments it uses their root
/// seed; `--seed` drives what the workload serves (arrivals, machine
/// noise, crash schedule). A calibration per seed would add its model
/// error's spread to every accuracy figure.
const CALIBRATION_SEED: u64 = experiments::SEED;
/// Simulated length of one `node-recal` `run_until` slice.
pub const SLICE: SimDuration = SimDuration::from_millis(10);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The busy, fully live 100-node fleet.
    FleetSteady,
    /// The elastic, crash-bearing, mostly quiet 64-node fleet.
    FleetDiurnal,
    /// The single recalibrating machine.
    NodeRecal,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetSteady,
        Workload::FleetDiurnal,
        Workload::NodeRecal,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet-steady",
            Workload::FleetDiurnal => "fleet-diurnal",
            Workload::NodeRecal => "node-recal",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Cell size: the benchmark runs `Full`; the benchmark's own tests run
/// `Small`, a cut-down cell of the same shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's cell.
    Full,
    /// A cell small enough for tests.
    Small,
}

/// One mechanism switched off, so the traced pass can price it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The workload as defined.
    Standard,
    /// `fleet-steady` at two shards instead of one.
    Sharded,
    /// `fleet-diurnal` without the obs plane.
    NoObs,
    /// Calibrated from the committed calibration records under `results/`
    /// instead of from scratch: the configuration `megafleet` ran when it
    /// wrote its committed row, so the row check can compare exactly.
    CommittedCalibration,
}

impl Variant {
    /// Parses `standard`, `sharded`, `no-obs` or `committed-cal`.
    pub fn parse(name: &str) -> Option<Variant> {
        match name {
            "standard" => Some(Variant::Standard),
            "sharded" => Some(Variant::Sharded),
            "no-obs" => Some(Variant::NoObs),
            "committed-cal" => Some(Variant::CommittedCalibration),
            _ => None,
        }
    }
}

/// What a workload simulates.
#[derive(Debug, Clone)]
pub enum Plan {
    /// A fleet driven through the cluster engine.
    Fleet(Box<ClusterConfig>),
    /// One machine driven through the kernel.
    Node(Box<RunConfig>),
}

/// A workload after set-up: its configuration and one calibration per
/// node.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// Its configuration.
    pub plan: Plan,
    /// Calibrations, one per node in node order.
    pub cals: Vec<MachineCalibration>,
    /// Host seconds spent in `calibrate_machine`.
    pub calibrate_s: f64,
}

/// The configuration of `workload` for `seed`. Only the seed-derived
/// fields differ from the experiment cells the workloads copy.
pub fn plan(workload: Workload, size: Size, seed: u64, variant: Variant) -> Plan {
    match workload {
        Workload::FleetSteady => {
            let (nodes, requests) = match size {
                Size::Full => (100, 100_000),
                Size::Small => (32, 5_000),
            };
            let mut cfg = megafleet::cell_config(nodes, requests);
            cfg.seed = seed;
            cfg.shards = if variant == Variant::Sharded { 2 } else { 1 };
            Plan::Fleet(Box::new(cfg))
        }
        Workload::FleetDiurnal => {
            // The diurnal rung's traffic with the flash-chaos rung's crash
            // schedule, uncapped.
            let rung = DiurnalScenario {
                name: "diurnal-crashes",
                diurnal: true,
                flash: false,
                chaos: true,
                capped: false,
                upgrade: false,
            };
            let scale = if size == Size::Full {
                Scale::Full
            } else {
                Scale::Quick
            };
            let mut cfg = diurnal_sweep::cell_config(scale, &rung, true);
            let crash_salt = experiments::SEED ^ cfg.faults.seed;
            cfg.seed = seed;
            cfg.faults.seed = seed ^ crash_salt;
            cfg.shards = 1;
            cfg.obs = (variant != Variant::NoObs).then(ObsConfig::standard);
            Plan::Fleet(Box::new(cfg))
        }
        Workload::NodeRecal => {
            let mut cfg = RunConfig::new(MachineSpec::sandybridge());
            cfg.seed = seed;
            cfg.approach = Approach::Recalibrated;
            cfg.load = LoadLevel::Peak;
            cfg.duration = SimDuration::from_secs(if size == Size::Full { 60 } else { 2 });
            Plan::Node(Box::new(cfg))
        }
    }
}

/// Builds the configuration and calibrates every machine generation it
/// uses from scratch (from the committed records only for
/// [`Variant::CommittedCalibration`]).
pub fn setup(
    workload: Workload,
    size: Size,
    seed: u64,
    variant: Variant,
    s: &mut Spans,
) -> Prepared {
    s.span("setup", |s| {
        let plan = s.span("config", |_| plan(workload, size, seed, variant));
        let specs: Vec<MachineSpec> = match &plan {
            Plan::Fleet(cfg) => cfg.nodes.clone(),
            Plan::Node(cfg) => vec![cfg.spec.clone()],
        };
        let t0 = Instant::now();
        let mut by_name: Vec<(&'static str, MachineCalibration)> = Vec::new();
        for spec in &specs {
            if by_name.iter().all(|(n, _)| *n != spec.name) {
                let cal = if variant == Variant::CommittedCalibration {
                    experiments::cache::calibration_for(spec, CALIBRATION_SEED)
                } else {
                    s.span("workloads.calibrate_machine", |_| {
                        calibrate_machine(spec, CALIBRATION_SEED)
                    })
                };
                by_name.push((spec.name, cal));
            }
        }
        let calibrate_s = t0.elapsed().as_secs_f64();
        let cals = s.span("config", |_| {
            specs
                .iter()
                .map(|spec| {
                    let (_, cal) = by_name
                        .iter()
                        .find(|(n, _)| *n == spec.name)
                        .expect("calibrated");
                    cal.clone()
                })
                .collect()
        });
        Prepared {
            workload,
            plan,
            cals,
            calibrate_s,
        }
    })
}

/// A finished simulation.
pub enum Outcome {
    /// A fleet's outcome.
    Fleet(Box<ClusterOutcome>),
    /// One machine's outcome.
    Node(Box<RunOutcome>),
}

/// Runs the prepared workload: the timed part of a run.
pub fn run(prep: &Prepared, s: &mut Spans) -> Outcome {
    match &prep.plan {
        Plan::Fleet(cfg) => Outcome::Fleet(Box::new(s.span("cluster.run_cluster", |_| {
            run_cluster(&mut SimpleBalance::new(), cfg, &prep.cals)
        }))),
        Plan::Node(cfg) => {
            let mut run = s.span("workloads.prepare_app", |_| {
                prepare_app(Rc::from(WorkloadKind::WeBWorK.app()), cfg, &prep.cals[0])
            });
            let end = SimTime::ZERO + cfg.duration;
            let mut t = SimTime::ZERO;
            while t < end {
                t = (t + SLICE).min(end);
                s.span("ossim.run_until", |_| run.kernel.run_until(t));
            }
            Outcome::Node(Box::new(s.span("workloads.finish", |_| run.finish())))
        }
    }
}

/// The checked summary of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Requests offered.
    pub dispatched: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped, shed or lost in a crash.
    pub failed: u64,
    /// Requests still in flight at the end.
    pub in_flight: u64,
    /// |attributed − measured active energy| / measured.
    pub attr_err: f64,
    /// Simulated joules per completed request. On `fleet-steady` this is
    /// `megafleet`'s `energy_per_req_j` column.
    pub j_per_req: f64,
    /// Digest of the outcome's counts and energies.
    pub digest: u64,
    /// Per-layer counts read from the outcome.
    pub counts: Vec<(&'static str, f64)>,
    /// Output checks that failed, described.
    pub failures: Vec<String>,
}

/// Checks `outcome` and summarizes it.
pub fn report(prep: &Prepared, outcome: &Outcome) -> Report {
    match (&prep.plan, outcome) {
        (Plan::Fleet(cfg), Outcome::Fleet(o)) => fleet_report(prep.workload, cfg, o),
        (Plan::Node(_), Outcome::Node(o)) => node_report(o),
        _ => unreachable!("outcome kind follows the plan"),
    }
}

fn fleet_report(workload: Workload, cfg: &ClusterConfig, o: &ClusterOutcome) -> Report {
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    let completed = o.completed as u64;
    check(
        o.dispatched == completed + o.dropped + o.in_flight,
        format!(
            "cluster conservation: dispatched {} != completed {completed} + dropped {} + in flight {}",
            o.dispatched, o.dropped, o.in_flight
        ),
    );
    let shed: u64 = cluster::ShedReason::ALL
        .iter()
        .map(|r| o.shed[r.index()])
        .sum();
    check(
        o.dropped == shed + o.lost_in_crash,
        format!(
            "typed drops: dropped {} != shed {shed} + lost {}",
            o.dropped, o.lost_in_crash
        ),
    );
    for (i, n) in o.per_node.iter().enumerate() {
        check(
            n.dispatched == n.completions as u64 + n.in_flight + n.lost_requests,
            format!("node {i} ({}) request conservation", n.machine),
        );
    }
    check(
        o.scale_log.len() as u64 == o.scale_outs + o.scale_ins,
        "scale log length != scale-outs + scale-ins".to_string(),
    );
    for e in &o.scale_log {
        if matches!(e.kind, ScaleKind::In | ScaleKind::UpgradeIn) {
            check(
                e.lost_energy_j == 0.0,
                format!("drain of node {} journaled a loss window", e.node),
            );
            check(
                e.forced || e.lost_requests == 0,
                format!("clean drain of node {} lost requests", e.node),
            );
        }
    }
    let sum = |f: fn(&cluster::NodeOutcome) -> f64| o.per_node.iter().map(f).sum::<f64>();
    let active = sum(|n| n.active_energy_j);
    let attributed = sum(|n| n.attributed_energy_j);
    let lost = sum(|n| n.lost_energy_j);
    let idle = sum(|n| n.idle_energy_j);
    let uptime = sum(|n| n.uptime_s);
    let tol = if workload == Workload::FleetDiurnal {
        CRASH_ENERGY_TOL
    } else {
        STEADY_ENERGY_TOL
    };
    check(
        active > 0.0 && (active - (attributed + lost)).abs() / active < tol,
        format!("energy: active {active:.1} J vs attributed {attributed:.1} + lost {lost:.1} J (tol {tol})"),
    );
    check(completed > 0, "no request completed".to_string());

    let sim_s = cfg.duration.as_secs_f64();
    // `diurnal_sweep`'s objective counts idle and provisioning energy too.
    let j_per_req = if workload == Workload::FleetDiurnal {
        (active + idle + o.provisioning_energy_j) / completed.max(1) as f64
    } else {
        attributed / completed.max(1) as f64
    };
    let counts = vec![
        (
            "cluster.ticks",
            (cfg.duration.as_nanos() / cfg.tick.as_nanos()) as f64,
        ),
        ("cluster.decisions", o.decisions as f64),
        ("cluster.rerouted", o.rerouted as f64),
        ("cluster.retried", o.retried as f64),
        ("cluster.crashes", o.crashes as f64),
        ("cluster.checkpoints", o.checkpoints as f64),
        ("cluster.lost_in_crash", o.lost_in_crash as f64),
        ("cluster.autoscale_evals", o.autoscale_evals as f64),
        ("cluster.scale_outs", o.scale_outs as f64),
        ("cluster.scale_ins", o.scale_ins as f64),
        (
            "cluster.active_node_frac",
            uptime / (o.per_node.len() as f64 * sim_s),
        ),
        (
            "hwsim.core_util",
            sum(|n| n.utilization * n.uptime_s) / uptime.max(1e-12),
        ),
        (
            "obs.alerts",
            o.obs.as_ref().map_or(0, |x| x.alert_count()) as f64,
        ),
    ];

    let mut h = Fnv::new();
    for v in [
        o.dispatched,
        completed,
        o.dropped,
        o.in_flight,
        o.lost_in_crash,
        o.rerouted,
        o.retried,
        o.crashes,
        o.checkpoints,
        o.decisions,
        o.scale_outs,
        o.scale_ins,
        o.autoscale_evals,
    ] {
        h.u64(v);
    }
    o.shed.iter().for_each(|&v| h.u64(v));
    h.f64(o.provisioning_energy_j);
    for n in &o.per_node {
        h.u64(n.dispatched);
        h.u64(n.completions as u64);
        h.u64(n.lost_requests);
        for v in [
            n.active_energy_j,
            n.attributed_energy_j,
            n.lost_energy_j,
            n.idle_energy_j,
            n.uptime_s,
        ] {
            h.f64(v);
        }
    }
    Report {
        dispatched: o.dispatched,
        completed,
        failed: o.dropped,
        in_flight: o.in_flight,
        attr_err: (attributed - active).abs() / active.max(1e-12),
        j_per_req,
        digest: h.0,
        counts,
        failures,
    }
}

fn node_report(o: &RunOutcome) -> Report {
    let mut failures = Vec::new();
    let issued = o.stats.borrow().issued();
    let completed = o.stats.borrow().completions().len() as u64;
    let attr_err = o.validation_error();
    if completed == 0 || completed > issued {
        failures.push(format!(
            "requests: {completed} completed of {issued} issued"
        ));
    }
    if attr_err.is_nan() || attr_err > RECAL_ERROR_BOUND {
        failures.push(format!(
            "validation error {attr_err:.4} above the Fig. 8 bound {RECAL_ERROR_BOUND}"
        ));
    }
    let k = o.kernel.stats();
    let f = o.facility.borrow();
    let degrade = f.degrade_stats();
    let attributed = o.attributed_energy_j();
    let counts = vec![
        ("ossim.ctx_switches", k.context_switches as f64),
        ("ossim.pmu_irqs", k.pmu_interrupts as f64),
        ("ossim.messages", k.messages as f64),
        ("core.maintenance_ops", f.maintenance_ops() as f64),
        ("core.refits_accepted", f.refits() as f64),
        ("core.refits_rejected", degrade.refits_rejected as f64),
        ("core.align_fallbacks", degrade.align_fallbacks as f64),
        ("hwsim.core_util", o.mean_utilization()),
    ];
    let mut h = Fnv::new();
    for v in [
        issued,
        completed,
        k.context_switches,
        k.pmu_interrupts,
        k.messages,
        f.maintenance_ops(),
        f.refits(),
    ] {
        h.u64(v);
    }
    h.f64(attributed);
    h.f64(o.measured_active_energy_j());
    Report {
        dispatched: issued,
        completed,
        failed: 0,
        in_flight: issued - completed.min(issued),
        attr_err,
        j_per_req: attributed / completed.max(1) as f64,
        digest: h.0,
        counts,
        failures,
    }
}

/// Host seconds to regenerate a fleet's arrival stream alone through
/// [`TrafficGen`], and the arrivals it yields (`None` without a traffic
/// shape). The engine builds the same generator from the same seed and
/// rates, so the count must equal the run's offered requests.
pub fn traffic_probe(cfg: &ClusterConfig) -> Option<(u64, f64)> {
    let shape = cfg.traffic.as_ref()?;
    let apps: Vec<_> = cfg.apps.iter().map(|k| k.app()).collect();
    let rate = offered_cluster_rate(cfg) / apps.len() as f64;
    let t0 = Instant::now();
    let mut gen = TrafficGen::new(
        cfg.seed,
        &vec![rate; apps.len()],
        SimTime::ZERO + cfg.duration,
        shape,
    );
    while black_box(gen.next(&apps)).is_some() {}
    Some((gen.issued(), t0.elapsed().as_secs_f64()))
}

/// Median host microseconds of one alignment scan
/// ([`DelayEstimator::estimate_checked`]) and one online refit
/// ([`Recalibrator::refit`]), run on the meter readings and counter
/// metrics the facility retained at the end of a run. `None` when the
/// run kept too few readings.
pub fn facility_probe(
    state: &FacilityState,
    cal: &MachineCalibration,
    calls: usize,
) -> Option<(f64, f64)> {
    let readings = state.recent_readings();
    let delay = state.aligned_delay()?;
    if readings.len() < 3 {
        return None;
    }
    let fc = FacilityConfig::default();
    let period = state.meter_period();
    let mut est = DelayEstimator::new(period, fc.max_meter_delay, fc.align_step, readings.len());
    readings.iter().for_each(|r| est.push(*r));
    let mut ring = TraceRing::new(fc.trace_slot, fc.trace_capacity);
    let last = readings[readings.len() - 1].arrived_at;
    let mut t = readings[0].arrived_at - fc.max_meter_delay - period - fc.trace_slot;
    while t < last {
        if let Some(w) = state.modeled_power_between(t, t + fc.trace_slot) {
            ring.add(t + fc.trace_slot, w, fc.trace_slot);
        }
        t += fc.trace_slot;
    }
    let align_us = median_us(calls, || {
        black_box(est.estimate_checked(&ring, fc.min_align_score, fc.align_ambiguity_margin))
            .is_ok()
    });

    let mut recal = Recalibrator::new(&cal.set, ModelKind::WithChipShare);
    let idle = cal.meter_idle("on-chip");
    for r in &readings {
        let end = r.arrived_at - delay;
        if let Some(m) = state.metrics_between(end - period, end) {
            recal.add_online_sample(m, r.watts - idle);
        }
    }
    let refit_us = median_us(calls, || black_box(recal.refit()).is_ok());
    Some((align_us, refit_us))
}

fn median_us(calls: usize, mut f: impl FnMut() -> bool) -> f64 {
    let mut times: Vec<f64> = (0..calls.max(1))
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// 64-bit FNV-1a over the outcome's integers and float bit patterns.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}
