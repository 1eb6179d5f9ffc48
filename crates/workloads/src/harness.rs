//! The workload harness: one call runs an application on a machine with
//! the facility installed and returns everything the experiments need.

use crate::apps::{AppEnv, ServerApp, WorkloadKind};
use crate::calibration::MachineCalibration;
use crate::driver::{spawn_driver, ClosedLoopDriver, CtxAlloc, DriverEnv};
use crate::stats::RunStats;
use hwsim::{Machine, MachineSpec};
use ossim::{Kernel, KernelConfig};
use power_containers::{
    Approach, ConditioningPolicy, FacilityConfig, FacilityState, PowerContainerFacility,
};
use simkern::{SimDuration, SimRng, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Server load level, as a fraction of saturation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadLevel {
    /// The server is (nearly) fully utilized.
    Peak,
    /// Roughly 50% utilization.
    Half,
    /// An explicit utilization fraction of the app's peak.
    Fraction(f64),
}

impl LoadLevel {
    /// The fraction of the app's peak utilization this level targets.
    pub fn fraction(self) -> f64 {
        match self {
            LoadLevel::Peak => 1.0,
            LoadLevel::Half => 0.5,
            LoadLevel::Fraction(f) => f,
        }
    }

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            LoadLevel::Peak => "peak load",
            LoadLevel::Half => "half load",
            LoadLevel::Fraction(_) => "custom load",
        }
    }
}

/// Configuration for one workload run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The machine to run on.
    pub spec: MachineSpec,
    /// Root seed; every random stream derives from it.
    pub seed: u64,
    /// The accounting approach.
    pub approach: Approach,
    /// Fair power conditioning, if enabled.
    pub conditioning: Option<ConditioningPolicy>,
    /// Simulated run length.
    pub duration: SimDuration,
    /// Load level.
    pub load: LoadLevel,
    /// Pool workers per core.
    pub workers_per_core: usize,
    /// Track per-task energy (Fig. 4).
    pub track_per_task: bool,
    /// Meter for alignment/recalibration; `None` picks the best
    /// available (on-chip if present, else wattsup) when the approach is
    /// `Recalibrated`.
    pub meter: Option<&'static str>,
    /// First context id the driver allocates.
    pub ctx_base: u64,
    /// Override for the alignment scan step.
    pub align_step: Option<SimDuration>,
    /// Override for the largest scanned measurement delay.
    pub max_meter_delay: Option<SimDuration>,
    /// Ablation: disable the Eq. 3 idle-sibling staleness correction.
    pub sibling_idle_check: bool,
    /// Ablation: disable §3.5 observer-effect compensation.
    pub compensate_observer: bool,
    /// Override the periodic sampling interval (default 1 ms).
    pub sample_period: Option<SimDuration>,
    /// Ablation: naive whole-socket context tagging instead of
    /// per-segment tags.
    pub naive_socket_tagging: bool,
    /// Drive the server with a closed-loop client holding this many
    /// requests in flight, instead of the open-loop Poisson driver — the
    /// paper's concurrency-limited test client.
    pub closed_loop: Option<usize>,
    /// Hardware fault injection for robustness sweeps;
    /// [`hwsim::FaultConfig::none`] leaves the machine pristine.
    pub faults: hwsim::FaultConfig,
    /// Trace sink shared by the kernel and the facility; disabled by
    /// default. Clone one [`telemetry::Telemetry::recording`] handle
    /// into several configs to merge their runs into a single trace.
    pub telemetry: telemetry::Telemetry,
    /// Self-calibrating model bank configuration; `Some` replaces the
    /// single rolling recalibrator with one model per operating regime
    /// (requires [`Approach::Recalibrated`]).
    pub model_bank: Option<power_containers::BankConfig>,
    /// Kernel scheduling policy for this run (round-robin by default;
    /// the attribution sweeps rerun workloads under every policy).
    pub sched: ossim::SchedulerKind,
}

impl RunConfig {
    /// A sensible default configuration for `spec`.
    pub fn new(spec: MachineSpec) -> RunConfig {
        RunConfig {
            spec,
            seed: 42,
            approach: Approach::ChipShare,
            conditioning: None,
            duration: SimDuration::from_secs(10),
            load: LoadLevel::Peak,
            workers_per_core: 4,
            track_per_task: false,
            meter: None,
            ctx_base: 1,
            align_step: None,
            max_meter_delay: None,
            sibling_idle_check: true,
            compensate_observer: true,
            sample_period: None,
            naive_socket_tagging: false,
            closed_loop: None,
            faults: hwsim::FaultConfig::none(),
            telemetry: telemetry::Telemetry::disabled(),
            model_bank: None,
            sched: ossim::SchedulerKind::RoundRobin,
        }
    }
}

/// Everything a finished run exposes.
pub struct RunOutcome {
    /// The kernel (machine energy, meters, stats).
    pub kernel: Kernel,
    /// The facility state handle.
    pub facility: Rc<RefCell<FacilityState>>,
    /// Request arrival/completion statistics.
    pub stats: Rc<RefCell<RunStats>>,
    /// The run's end time.
    pub end: SimTime,
    /// The request rate the driver targeted, per second.
    pub offered_rate: f64,
}

impl RunOutcome {
    /// True machine active energy over the whole run, Joules — the
    /// "measured" reference for validation.
    pub fn measured_active_energy_j(&self) -> f64 {
        self.kernel.machine().true_active_energy_j()
    }

    /// Measured average active power over the run, Watts.
    pub fn measured_active_power_w(&self) -> f64 {
        self.measured_active_energy_j() / self.end.as_secs_f64()
    }

    /// Aggregate energy the facility attributed (requests + background,
    /// CPU + I/O), Joules — the paper's validation numerator.
    pub fn attributed_energy_j(&self) -> f64 {
        let f = self.facility.borrow();
        let c = f.containers();
        c.total_energy_with_background_j()
            + c.total_request_io_energy_j()
            + c.background().io_energy_j()
    }

    /// The Fig. 8 validation error: aggregate profiled request power vs
    /// measured system active power.
    pub fn validation_error(&self) -> f64 {
        analysis::stats::relative_error(
            self.attributed_energy_j(),
            self.measured_active_energy_j(),
        )
    }

    /// Degradation decisions the facility took during the run (all zero
    /// on a clean run).
    pub fn degrade_stats(&self) -> power_containers::DegradeStats {
        self.facility.borrow().degrade_stats()
    }

    /// Faults the machine actually injected during the run, by kind.
    pub fn fault_counts(&self) -> [u64; hwsim::FaultKind::ALL.len()] {
        self.kernel.machine().fault_log().counts()
    }

    /// Mean machine utilization over the run (busy cycles over elapsed
    /// cycles, averaged over cores).
    pub fn mean_utilization(&self) -> f64 {
        let m = self.kernel.machine();
        let n = m.spec().total_cores();
        (0..n)
            .map(|c| m.counters(hwsim::CoreId(c)).core_utilization())
            .sum::<f64>()
            / n as f64
    }
}

/// The offered request rate for an app at a load level on a machine.
pub fn offered_rate(app: &dyn ServerApp, spec: &MachineSpec, load: LoadLevel) -> f64 {
    let scale = spec.work_scale(&app.representative_profile());
    let cycles = app.mean_request_cycles() * scale;
    let capacity = spec.total_cores() as f64 * spec.freq_ghz * 1e9 / cycles;
    capacity * app.peak_utilization() * load.fraction()
}

/// A run that has been assembled but not yet executed: the experiment may
/// add extra drivers or instrumentation before calling
/// [`PreparedRun::run`] (or stepping [`PreparedRun::kernel`] manually).
pub struct PreparedRun {
    /// The assembled kernel (facility installed, app + driver spawned).
    pub kernel: Kernel,
    /// Facility state handle.
    pub facility: Rc<RefCell<FacilityState>>,
    /// Shared run statistics.
    pub stats: Rc<RefCell<RunStats>>,
    /// Worker inboxes of the primary app (for additional drivers).
    pub inboxes: Vec<ossim::SocketId>,
    /// The primary driver's offered rate, requests/second.
    pub offered_rate: f64,
    /// The context allocator shared with the primary driver.
    pub ctxs: CtxAlloc,
    /// Configured run length.
    pub duration: SimDuration,
}

impl PreparedRun {
    /// Runs to the configured duration and returns the outcome.
    pub fn run(mut self) -> RunOutcome {
        let end = SimTime::ZERO + self.duration;
        self.kernel.run_until(end);
        RunOutcome {
            kernel: self.kernel,
            facility: self.facility,
            stats: self.stats,
            end,
            offered_rate: self.offered_rate,
        }
    }

    /// Converts an already-stepped run into an outcome at its current
    /// time.
    pub fn finish(self) -> RunOutcome {
        let end = self.kernel.now();
        RunOutcome {
            kernel: self.kernel,
            facility: self.facility,
            stats: self.stats,
            end,
            offered_rate: self.offered_rate,
        }
    }
}

/// Runs `kind` under `cfg`, using `cal` for the power model.
pub fn run_app(kind: WorkloadKind, cfg: &RunConfig, cal: &MachineCalibration) -> RunOutcome {
    run_server_app(Rc::from(kind.app()), cfg, cal)
}

/// Runs an already-instantiated app (for custom request mixes).
pub fn run_server_app(
    app: Rc<dyn ServerApp>,
    cfg: &RunConfig,
    cal: &MachineCalibration,
) -> RunOutcome {
    prepare_app(app, cfg, cal).run()
}

/// Assembles machine, kernel, facility, app and driver without running.
pub fn prepare_app(
    app: Rc<dyn ServerApp>,
    cfg: &RunConfig,
    cal: &MachineCalibration,
) -> PreparedRun {
    let meter = cfg.meter.or_else(|| {
        if cfg.approach == Approach::Recalibrated {
            if cfg.spec.meters.iter().any(|m| m.name == "on-chip") {
                Some("on-chip")
            } else {
                Some("wattsup")
            }
        } else {
            None
        }
    });
    let mut facility_config = FacilityConfig {
        approach: cfg.approach,
        conditioning: cfg.conditioning,
        meter,
        meter_idle_w: meter.map(|m| cal.meter_idle(m)).unwrap_or(0.0),
        align_every: if meter == Some("wattsup") { 4 } else { 16 },
        recalibrate_every: if meter == Some("wattsup") { 2 } else { 16 },
        track_per_task: cfg.track_per_task,
        sibling_idle_check: cfg.sibling_idle_check,
        compensate_observer: cfg.compensate_observer,
        telemetry: cfg.telemetry.clone(),
        model_bank: cfg.model_bank.clone(),
        ..FacilityConfig::default()
    };
    // The per-meter refit cadence above is the harness-level knob; keep
    // the bank's per-slot cadence in lockstep with it.
    let cadence = facility_config.recalibrate_every;
    if let Some(bank) = &mut facility_config.model_bank {
        bank.recalibrate_every = cadence;
    }
    if let Some(period) = cfg.sample_period {
        facility_config.sample_period = period;
    }
    if let Some(step) = cfg.align_step {
        facility_config.align_step = step;
    }
    if let Some(max) = cfg.max_meter_delay {
        facility_config.max_meter_delay = max;
    }
    let model = cal.model_for(cfg.approach);
    let calset = (cfg.approach == Approach::Recalibrated).then_some(&cal.set);
    let facility = PowerContainerFacility::new(model, calset, &cfg.spec, facility_config);
    let state = facility.state();

    let mut machine = Machine::new(cfg.spec.clone(), cfg.seed);
    if meter.is_none() {
        // The facility never polls a meter, so nothing would pop them.
        machine.discard_meter_reports();
    }
    if cfg.faults.is_active() {
        machine.set_fault_config(cfg.faults.clone());
    }
    let kernel_config = KernelConfig {
        naive_socket_tagging: cfg.naive_socket_tagging,
        telemetry: cfg.telemetry.clone(),
        sched: cfg.sched.clone(),
        ..KernelConfig::default()
    };
    let mut kernel = Kernel::new(machine, kernel_config);
    kernel.install_hooks(Box::new(facility));

    let stats = Rc::new(RefCell::new(RunStats::new()));
    // Closed-loop clients need the completion channel wired into the
    // worker pool before app setup; create it up front.
    let closed_channel = cfg.closed_loop.map(|_| kernel.new_socket_pair());
    let env = AppEnv {
        stats: Rc::clone(&stats),
        workers: cfg.workers_per_core * cfg.spec.total_cores(),
        spec: cfg.spec.clone(),
        seed: cfg.seed,
        notify: closed_channel.map(|(tx, _rx)| tx),
    };
    let inboxes = app.setup(&mut kernel, &env);
    let rate = offered_rate(app.as_ref(), &cfg.spec, cfg.load);
    let mut label_rng = SimRng::new(cfg.seed).split(0x1ABE1);
    let picker = {
        let app = Rc::clone(&app);
        move |rng: &mut SimRng| {
            let _ = rng;
            app.pick_label(&mut label_rng)
        }
    };
    let ctxs = CtxAlloc::new(cfg.ctx_base);
    match (cfg.closed_loop, closed_channel) {
        (Some(concurrency), Some((_tx, completions_rx))) => {
            kernel.spawn(
                Box::new(ClosedLoopDriver {
                    inboxes: inboxes.clone(),
                    completions_rx,
                    concurrency,
                    pick_label: Box::new(picker),
                    stats: Rc::clone(&stats),
                    facility: Some(Rc::clone(&state)),
                    ctxs: ctxs.clone(),
                    primed: 0,
                    rr: 0,
                }),
                None,
            );
        }
        _ => {
            spawn_driver(
                &mut kernel,
                DriverEnv {
                    inboxes: inboxes.clone(),
                    mean_gap: SimDuration::from_secs_f64(1.0 / rate),
                    pick_label: Box::new(picker),
                    stats: Rc::clone(&stats),
                    facility: Some(Rc::clone(&state)),
                    ctxs: ctxs.clone(),
                    max_requests: None,
                    start_after: SimDuration::ZERO,
                },
            );
        }
    }
    PreparedRun {
        kernel,
        facility: state,
        stats,
        inboxes,
        offered_rate: rate,
        ctxs,
        duration: cfg.duration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_levels_scale_rates() {
        let app = WorkloadKind::RsaCrypto.app();
        let spec = MachineSpec::sandybridge();
        let peak = offered_rate(app.as_ref(), &spec, LoadLevel::Peak);
        let half = offered_rate(app.as_ref(), &spec, LoadLevel::Half);
        assert!((half / peak - 0.5).abs() < 1e-9);
        assert!(peak > 100.0, "RSA peak rate {peak}/s");
    }

    #[test]
    fn older_machines_get_lower_rates_for_compute_work() {
        let app = WorkloadKind::RsaCrypto.app();
        let sb = offered_rate(app.as_ref(), &MachineSpec::sandybridge(), LoadLevel::Peak);
        let wc = offered_rate(app.as_ref(), &MachineSpec::woodcrest(), LoadLevel::Peak);
        // Same core count, similar frequency, but 2.3× work scale.
        assert!(wc < sb * 0.6, "woodcrest {wc} vs sandybridge {sb}");
    }
}
