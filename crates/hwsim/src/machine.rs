//! The simulated machine: cores, counters, meters, devices.

use crate::activity::{caps, ActivityProfile, DeviceKind};
use crate::counters::CounterBlock;
use crate::faults::{CounterFault, FaultConfig, FaultInjector, FaultLog, MeterFault};
use crate::meter::{MeterId, MeterReport, MeterScope, MeterState};
use crate::spec::MachineSpec;
use crate::DutyCycle;
use simkern::{SimDuration, SimRng, SimTime};

/// Identifies one CPU core on a machine (flat index across chips).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

#[derive(Debug, Clone)]
struct CoreState {
    running: Option<ActivityProfile>,
    duty: DutyCycle,
    counters: CounterBlock,
    /// PMU overflow threshold in non-halt cycles, if armed.
    pmu_threshold: Option<f64>,
    /// Non-halt cycles accumulated since the PMU was last reset.
    pmu_count: f64,
}

impl CoreState {
    fn new() -> CoreState {
        CoreState {
            running: None,
            duty: DutyCycle::FULL,
            counters: CounterBlock::default(),
            pmu_threshold: None,
            pmu_count: 0.0,
        }
    }
}

#[derive(Debug, Clone)]
struct DeviceState {
    active: bool,
    busy_seconds: f64,
}

/// A chip-wide DVFS operating point: the fraction of nominal frequency a
/// package runs at. Unlike duty-cycle modulation (per-core, linear in
/// power), DVFS applies to the whole chip and scales active power
/// super-linearly (`P ∝ f·V²` with voltage tracking frequency) — the
/// paper picks duty-cycling for per-request control precisely because
/// DVFS on its machines was not per-core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreqScale(f64);

impl FreqScale {
    /// Nominal frequency.
    pub const NOMINAL: FreqScale = FreqScale(1.0);

    /// Creates an operating point; `None` unless `0.5 <= scale <= 1.0`
    /// (the typical DVFS range).
    pub fn new(scale: f64) -> Option<FreqScale> {
        (0.5..=1.0).contains(&scale).then_some(FreqScale(scale))
    }

    /// The frequency fraction.
    pub fn fraction(self) -> f64 {
        self.0
    }

    /// The active-power multiplier at this point: `f · V(f)²` with a
    /// linear voltage/frequency relation `V = 0.6 + 0.4·f` (normalized).
    pub fn power_factor(self) -> f64 {
        let v = 0.6 + 0.4 * self.0;
        self.0 * v * v
    }

    /// One step (5%) slower, saturating at the 0.5 floor.
    pub fn slower(self) -> FreqScale {
        FreqScale((self.0 - 0.05).max(0.5))
    }

    /// One step (5%) faster, saturating at nominal.
    pub fn faster(self) -> FreqScale {
        FreqScale((self.0 + 0.05).min(1.0))
    }
}

impl Default for FreqScale {
    fn default() -> FreqScale {
        FreqScale::NOMINAL
    }
}

/// A simulated multicore machine.
///
/// The machine is passive: the OS layer calls [`Machine::set_running`] /
/// [`Machine::set_duty_cycle`] at scheduling points and
/// [`Machine::advance_to`] to integrate hardware state forward in time.
/// Within one advance interval, per-core state is constant, so integration
/// is exact.
///
/// # Example
///
/// ```
/// use hwsim::{ActivityProfile, CoreId, Machine, MachineSpec};
/// use simkern::SimTime;
///
/// let mut m = Machine::new(MachineSpec::sandybridge(), 7);
/// m.set_running(CoreId(0), Some(ActivityProfile::high_ipc()));
/// m.advance_to(SimTime::from_millis(5));
/// assert!(m.counters(CoreId(0)).instructions > 0.0);
/// // An idle sibling accumulated elapsed cycles but no busy cycles.
/// assert_eq!(m.counters(CoreId(1)).nonhalt_cycles, 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    spec: MachineSpec,
    cores: Vec<CoreState>,
    meters: Vec<MeterState>,
    devices: [DeviceState; 2],
    chip_freq: Vec<FreqScale>,
    /// Hardware generation rank, exposed to the OS as a regime signal
    /// (think DMI product identification). Starts at the spec's rank and
    /// is bumped by [`Machine::swap_truth`] on an in-place upgrade.
    generation: u32,
    now: SimTime,
    rng: SimRng,
    /// Fault injection (inert by default); draws from its own seeded
    /// streams so the fault-free simulation is bit-identical with or
    /// without it.
    faults: FaultInjector,
    /// Lifetime true energy drawn by the whole machine, in Joules
    /// (noise-free; used by experiments as the "perfect" reference).
    true_energy_j: f64,
    /// Lifetime true energy excluding idle power, in Joules.
    true_active_energy_j: f64,
    /// Set by [`Machine::discard_meter_reports`]: meter windows still
    /// close on schedule but queue no report.
    reports_discarded: bool,
}

impl Machine {
    /// Creates a machine at time zero.
    pub fn new(spec: MachineSpec, seed: u64) -> Machine {
        let cores = (0..spec.total_cores()).map(|_| CoreState::new()).collect();
        let meters = spec.meters.iter().cloned().map(MeterState::new).collect();
        Machine {
            cores,
            meters,
            devices: [
                DeviceState { active: false, busy_seconds: 0.0 },
                DeviceState { active: false, busy_seconds: 0.0 },
            ],
            chip_freq: vec![FreqScale::NOMINAL; spec.chips],
            generation: spec.generation_rank(),
            now: SimTime::ZERO,
            rng: SimRng::new(seed).split(0x4D45_5452), // "METR"
            faults: FaultInjector::disabled(),
            true_energy_j: 0.0,
            true_active_energy_j: 0.0,
            reports_discarded: false,
            spec,
        }
    }

    /// The machine's static specification.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sets what `core` is running (`None` = halted/idle). Takes effect for
    /// all subsequently integrated time.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_running(&mut self, core: CoreId, profile: Option<ActivityProfile>) {
        self.cores[core.0].running = profile;
    }

    /// The profile `core` is currently running, if any.
    pub fn running(&self, core: CoreId) -> Option<ActivityProfile> {
        self.cores[core.0].running
    }

    /// `true` when `core` currently has work.
    pub fn is_busy(&self, core: CoreId) -> bool {
        self.cores[core.0].running.is_some()
    }

    /// Sets `core`'s duty-cycle modulation level.
    pub fn set_duty_cycle(&mut self, core: CoreId, duty: DutyCycle) {
        self.cores[core.0].duty = duty;
    }

    /// `core`'s current duty-cycle level.
    pub fn duty_cycle(&self, core: CoreId) -> DutyCycle {
        self.cores[core.0].duty
    }

    /// Sets a chip's DVFS operating point; affects every core on it.
    pub fn set_chip_freq(&mut self, chip: crate::ChipId, scale: FreqScale) {
        self.chip_freq[chip.0] = scale;
    }

    /// A chip's current DVFS operating point.
    pub fn chip_freq(&self, chip: crate::ChipId) -> FreqScale {
        self.chip_freq[chip.0]
    }

    /// Mean frequency fraction across all chips — the machine-level DVFS
    /// regime signal the metering layer keys models on.
    pub fn mean_freq_fraction(&self) -> f64 {
        let sum: f64 = self.chip_freq.iter().map(|f| f.fraction()).sum();
        sum / self.chip_freq.len() as f64
    }

    /// The machine's hardware generation rank (0 = newest preset). The
    /// OS reads this as a regime signal; it carries no physical behaviour
    /// by itself.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Overrides the generation rank without touching physical behaviour
    /// (e.g. a cluster topology assigning fleet-wide ranks).
    pub fn set_generation(&mut self, generation: u32) {
        self.generation = generation;
    }

    /// Replaces the hidden ground-truth power law and generation rank in
    /// place — a rolling hardware upgrade under an unchanged workload.
    /// Counters, meters, and accumulated energy are preserved; only
    /// power drawn after the swap follows the new law. Call between
    /// [`Machine::advance_to`] segments so the old law is integrated
    /// exactly up to the swap instant.
    pub fn swap_truth(&mut self, truth: crate::GroundTruthPower, generation: u32) {
        self.spec.truth = truth;
        self.generation = generation;
    }

    /// The rate at which `core` executes non-halt cycles, in GHz,
    /// combining nominal frequency, chip DVFS, and duty-cycle modulation.
    pub fn effective_rate_ghz(&self, core: CoreId) -> f64 {
        let chip = self.spec.chip_of(core.0);
        self.spec.freq_ghz
            * self.chip_freq[chip.0].fraction()
            * self.cores[core.0].duty.fraction()
    }

    /// Cumulative hardware counters for `core`.
    pub fn counters(&self, core: CoreId) -> CounterBlock {
        self.cores[core.0].counters
    }

    /// Arms (or with `None`, disarms) the PMU overflow interrupt on `core`
    /// and resets its overflow counter: the interrupt fires after
    /// `threshold` further non-halt cycles.
    ///
    /// # Panics
    ///
    /// Panics if a provided threshold is not strictly positive.
    pub fn set_pmu_threshold(&mut self, core: CoreId, threshold: Option<f64>) {
        if let Some(t) = threshold {
            assert!(t > 0.0, "PMU threshold must be positive");
        }
        let c = &mut self.cores[core.0];
        c.pmu_threshold = threshold;
        c.pmu_count = 0.0;
    }

    /// Wall-clock time until `core`'s PMU threshold is reached, given its
    /// current profile and duty cycle. `None` when the PMU is disarmed or
    /// the core is halted (non-halt cycles stop accumulating, matching the
    /// paper's interrupt-suppression-when-idle behaviour).
    pub fn time_until_pmu(&self, core: CoreId) -> Option<SimDuration> {
        let c = &self.cores[core.0];
        let threshold = c.pmu_threshold?;
        c.running?;
        let remaining = (threshold - c.pmu_count).max(0.0);
        let cycles_per_ns = self.effective_rate_ghz(core);
        if cycles_per_ns <= 0.0 {
            return None;
        }
        // Round up to whole nanoseconds (and at least one) so a scheduled
        // deadline always advances simulated time past the threshold; a
        // zero-length deadline would fire without the counter moving.
        let ns = (remaining / cycles_per_ns).ceil().max(1.0);
        Some(SimDuration::from_nanos(ns as u64))
    }

    /// `true` if `core`'s PMU has reached its threshold.
    pub fn pmu_expired(&self, core: CoreId) -> bool {
        let c = &self.cores[core.0];
        matches!(c.pmu_threshold, Some(t) if c.pmu_count + 1e-6 >= t)
    }

    /// Marks a peripheral device active or idle.
    pub fn set_device_active(&mut self, kind: DeviceKind, active: bool) {
        self.devices[kind.index()].active = active;
    }

    /// `true` if the given device is currently active.
    pub fn device_active(&self, kind: DeviceKind) -> bool {
        self.devices[kind.index()].active
    }

    /// Cumulative seconds the device has spent active.
    pub fn device_busy_seconds(&self, kind: DeviceKind) -> f64 {
        self.devices[kind.index()].busy_seconds
    }

    /// Instantaneous true power of the whole machine in Watts, including
    /// idle power. Useful for tests; the model must instead use meters.
    pub fn true_power_watts(&self) -> f64 {
        self.true_active_power_watts() + self.spec.truth.machine_idle_w()
    }

    /// Instantaneous true *active* power (whole machine minus idle).
    pub fn true_active_power_watts(&self) -> f64 {
        let truth = &self.spec.truth;
        let mut active = 0.0;
        for chip in 0..self.spec.chips {
            let cores = self.spec.cores_of(crate::ChipId(chip));
            let dvfs = self.chip_freq[chip].power_factor();
            let mut chip_busy = false;
            for core in cores {
                let c = &self.cores[core];
                active += dvfs * truth.core_active_power(c.running.as_ref(), c.duty);
                chip_busy |= c.running.is_some();
            }
            if chip_busy {
                active += dvfs * truth.chip_maintenance_w;
            }
        }
        if self.devices[DeviceKind::Disk.index()].active {
            active += truth.disk_w;
        }
        if self.devices[DeviceKind::Net.index()].active {
            active += truth.net_w;
        }
        active
    }

    /// Instantaneous true package power (packages only, including package
    /// idle but not platform or devices) — what an on-chip meter sees.
    pub fn true_package_power_watts(&self) -> f64 {
        let truth = &self.spec.truth;
        let mut pkg = truth.pkg_idle_w;
        for chip in 0..self.spec.chips {
            let cores = self.spec.cores_of(crate::ChipId(chip));
            let dvfs = self.chip_freq[chip].power_factor();
            let mut chip_busy = false;
            for core in cores {
                let c = &self.cores[core];
                pkg += dvfs * truth.core_active_power(c.running.as_ref(), c.duty);
                chip_busy |= c.running.is_some();
            }
            if chip_busy {
                pkg += dvfs * truth.chip_maintenance_w;
            }
        }
        pkg
    }

    /// Lifetime true machine energy in Joules (idle included, noise-free).
    pub fn true_energy_j(&self) -> f64 {
        self.true_energy_j
    }

    /// Lifetime true *active* machine energy in Joules.
    pub fn true_active_energy_j(&self) -> f64 {
        self.true_active_energy_j
    }

    /// Number of meters attached.
    pub fn meter_count(&self) -> usize {
        self.meters.len()
    }

    /// The spec of meter `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn meter_spec(&self, id: MeterId) -> &crate::MeterSpec {
        &self.meters[id.0].spec
    }

    /// The meter with the given name, if present.
    pub fn find_meter(&self, name: &str) -> Option<MeterId> {
        self.meters.iter().position(|m| m.spec.name == name).map(MeterId)
    }

    /// Removes and returns meter reports that have become visible by the
    /// machine's current time.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, or if
    /// [`Machine::discard_meter_reports`] was called.
    pub fn pop_meter_reports(&mut self, id: MeterId) -> Vec<MeterReport> {
        assert!(
            !self.reports_discarded,
            "meter reports were discarded (Machine::discard_meter_reports); none are queued"
        );
        let now = self.now;
        self.meters[id.0].pop_visible(now)
    }

    /// Stops queueing meter reports, for an OS that never reads a meter
    /// (each undelivered report otherwise stays queued forever). Windows
    /// keep integrating and closing at the same instants, and the fault
    /// injector is still consulted per window, so counters, true energy
    /// and the fault log stay bit-identical to a reading machine's; only
    /// the measurement-noise draws and the reports themselves are
    /// skipped. Reports already queued are dropped, and
    /// [`Machine::pop_meter_reports`] panics from now on.
    pub fn discard_meter_reports(&mut self) {
        self.reports_discarded = true;
        for m in &mut self.meters {
            m.clear_pending();
        }
    }

    /// Installs a fault-injection configuration, replacing any previous
    /// one (and resetting its fault log). A [`FaultConfig::none`] config
    /// restores fault-free operation.
    pub fn set_fault_config(&mut self, config: FaultConfig) {
        self.faults = FaultInjector::new(config, self.cores.len());
    }

    /// The log of every fault injected so far.
    pub fn fault_log(&self) -> &FaultLog {
        self.faults.log()
    }

    /// The active fault-injection configuration.
    pub fn fault_config(&self) -> &FaultConfig {
        self.faults.config()
    }

    /// Mutable access to the fault injector, for fault sites that live
    /// outside the machine proper (e.g. the OS socket layer's tag
    /// faults) so every fault lands in one log.
    pub fn faults_mut(&mut self) -> &mut FaultInjector {
        &mut self.faults
    }

    /// Advances hardware state to `t`, integrating counters, true energy,
    /// and meter windows. Per-core/device state is held constant over the
    /// interval, so the OS must call this *before* changing any state at
    /// `t`. A no-op when `t <= now`.
    pub fn advance_to(&mut self, t: SimTime) {
        while self.now < t {
            // Segment ends at the earliest meter-window boundary or `t`.
            let mut seg_end = t;
            for m in &self.meters {
                let we = m.window_end();
                if we > self.now && we < seg_end {
                    seg_end = we;
                }
            }
            self.integrate_segment(seg_end);
            self.apply_counter_faults(seg_end);
            // Close any meter windows that end exactly at seg_end.
            for i in 0..self.meters.len() {
                if self.meters[i].window_end() == seg_end {
                    if self.reports_discarded {
                        // No noise draw and no report, but the fault
                        // injector still rolls this window's faults.
                        self.meters[i].skip_window(seg_end);
                        self.faults.meter_window(i, seg_end);
                        continue;
                    }
                    let noise = 1.0 + self.meters[i].spec.noise_frac * self.rng.normal();
                    self.meters[i].close_window(seg_end, noise);
                    match self.faults.meter_window(i, seg_end) {
                        MeterFault::Deliver => {}
                        MeterFault::Drop => {
                            self.meters[i].drop_last_pending();
                        }
                        MeterFault::ExtraLag(extra) => {
                            self.meters[i].delay_last_pending(extra);
                        }
                    }
                }
            }
            self.now = seg_end;
        }
    }

    /// Applies every counter fault due by `now`. Glitches land a burst
    /// of phantom events in the event counters (the next sampled delta
    /// shows an impossibly high event rate); wraps pull one cumulative
    /// event counter backwards (the next sampled delta goes negative).
    /// Neither touches non-halt or elapsed cycles — the TSC-style fixed
    /// counters the OS relies on for time accounting don't wrap in
    /// practice.
    fn apply_counter_faults(&mut self, now: SimTime) {
        while let Some((core, fault)) = self.faults.next_counter_fault(now) {
            let counters = &mut self.cores[core].counters;
            match fault {
                CounterFault::Glitch(events) => {
                    counters.instructions += events;
                    counters.cache_refs += events * 0.25;
                }
                CounterFault::Wrap => {
                    counters.instructions -= crate::faults::COUNTER_WRAP_SPAN;
                }
            }
        }
    }

    /// Injects extra event counts into `core`'s counters, modelling
    /// software overhead (e.g. the §3.5 observer effect of container
    /// maintenance itself). Counts are added instantaneously.
    pub fn inject_events(&mut self, core: CoreId, events: &CounterBlock) {
        let c = &mut self.cores[core.0];
        c.counters.accumulate(events);
        c.pmu_count += events.nonhalt_cycles;
    }

    fn integrate_segment(&mut self, seg_end: SimTime) {
        let dt = seg_end.duration_since(self.now);
        if dt.is_zero() {
            return;
        }
        let secs = dt.as_secs_f64();
        let elapsed = self.spec.cycles_in(dt);
        for (i, c) in self.cores.iter_mut().enumerate() {
            // Elapsed cycles tick at the nominal (TSC-style) clock; busy
            // cycles scale with both duty-cycle gating and chip DVFS.
            let freq = self.chip_freq[i / self.spec.cores_per_chip].fraction();
            c.counters.elapsed_cycles += elapsed;
            if let Some(p) = c.running {
                let busy = elapsed * c.duty.fraction() * freq;
                c.counters.nonhalt_cycles += busy;
                c.counters.instructions += busy * p.ins * caps::INS_PER_CYCLE;
                c.counters.flops += busy * p.flops * caps::FLOPS_PER_CYCLE;
                c.counters.cache_refs += busy * p.cache * caps::CACHE_PER_CYCLE;
                c.counters.mem_txns += busy * p.mem * caps::MEM_PER_CYCLE;
                c.pmu_count += busy;
            }
        }
        for d in &mut self.devices {
            if d.active {
                d.busy_seconds += secs;
            }
        }
        let active = self.true_active_power_watts();
        let machine = active + self.spec.truth.machine_idle_w();
        let package = self.true_package_power_watts();
        self.true_energy_j += machine * secs;
        self.true_active_energy_j += active * secs;
        for m in &mut self.meters {
            let watts = match m.spec.scope {
                MeterScope::Package => package,
                MeterScope::Machine => machine,
            };
            m.integrate(watts, dt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MeterSpec;

    fn machine() -> Machine {
        Machine::new(MachineSpec::sandybridge(), 1)
    }

    #[test]
    fn counters_accumulate_while_running() {
        let mut m = machine();
        m.set_running(CoreId(0), Some(ActivityProfile::high_ipc()));
        m.advance_to(SimTime::from_millis(1));
        let c = m.counters(CoreId(0));
        // 3.1 GHz for 1 ms = 3.1e6 cycles.
        assert!((c.elapsed_cycles - 3.1e6).abs() < 1.0);
        assert!((c.nonhalt_cycles - 3.1e6).abs() < 1.0);
        assert!((c.instructions - 3.1e6 * 0.95 * 4.0).abs() < 10.0);
    }

    #[test]
    fn idle_core_accumulates_only_elapsed() {
        let mut m = machine();
        m.advance_to(SimTime::from_millis(2));
        let c = m.counters(CoreId(3));
        assert!(c.elapsed_cycles > 0.0);
        assert_eq!(c.nonhalt_cycles, 0.0);
        assert_eq!(c.instructions, 0.0);
    }

    #[test]
    fn duty_cycle_halves_busy_cycles_and_events() {
        let mut m = machine();
        m.set_running(CoreId(0), Some(ActivityProfile::high_ipc()));
        m.set_duty_cycle(CoreId(0), DutyCycle::new(4).unwrap());
        m.advance_to(SimTime::from_millis(1));
        let c = m.counters(CoreId(0));
        assert!((c.core_utilization() - 0.5).abs() < 1e-9);
        assert!((c.instructions / c.nonhalt_cycles - 0.95 * 4.0).abs() < 1e-9);
    }

    #[test]
    fn idle_machine_draws_idle_power() {
        let mut m = machine();
        m.advance_to(SimTime::from_secs(1));
        assert!((m.true_energy_j() - 26.1).abs() < 1e-6);
        assert_eq!(m.true_active_energy_j(), 0.0);
    }

    #[test]
    fn first_core_costs_more_than_second() {
        // The Fig. 1 chip-maintenance step.
        let mut m = machine();
        let p0 = m.true_power_watts();
        m.set_running(CoreId(0), Some(ActivityProfile::cpu_spin()));
        let p1 = m.true_power_watts();
        m.set_running(CoreId(1), Some(ActivityProfile::cpu_spin()));
        let p2 = m.true_power_watts();
        let first_step = p1 - p0;
        let second_step = p2 - p1;
        assert!(
            first_step > second_step + 4.0,
            "maintenance step missing: {first_step:.1} vs {second_step:.1}"
        );
    }

    #[test]
    fn meter_report_matches_true_power() {
        let mut m = machine();
        m.set_running(CoreId(0), Some(ActivityProfile::stress()));
        let expected = m.true_package_power_watts();
        m.advance_to(SimTime::from_millis(3));
        let id = m.find_meter("on-chip").unwrap();
        let reports = m.pop_meter_reports(id);
        assert!(!reports.is_empty());
        for r in &reports {
            assert!(
                (r.avg_watts - expected).abs() / expected < 0.05,
                "report {} vs true {}",
                r.avg_watts,
                expected
            );
        }
    }

    #[test]
    fn wattsup_reports_arrive_late() {
        let mut m = machine();
        m.advance_to(SimTime::from_millis(2100));
        let id = m.find_meter("wattsup").unwrap();
        assert!(m.pop_meter_reports(id).is_empty(), "report visible too early");
        m.advance_to(SimTime::from_millis(2300));
        let reports = m.pop_meter_reports(id);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].window_end, SimTime::from_secs(1));
        assert_eq!(reports[0].visible_at, SimTime::from_millis(2200));
    }

    #[test]
    fn pmu_fires_after_threshold_cycles() {
        let mut m = machine();
        m.set_running(CoreId(0), Some(ActivityProfile::cpu_spin()));
        m.set_pmu_threshold(CoreId(0), Some(3.1e6)); // 1 ms at full duty
        let dt = m.time_until_pmu(CoreId(0)).unwrap();
        assert!((dt.as_millis_f64() - 1.0).abs() < 1e-6);
        m.advance_to(SimTime::ZERO + dt);
        assert!(m.pmu_expired(CoreId(0)));
        m.set_pmu_threshold(CoreId(0), Some(3.1e6));
        assert!(!m.pmu_expired(CoreId(0)));
    }

    #[test]
    fn pmu_halted_core_never_fires() {
        let mut m = machine();
        m.set_pmu_threshold(CoreId(0), Some(1000.0));
        assert_eq!(m.time_until_pmu(CoreId(0)), None);
        m.advance_to(SimTime::from_millis(10));
        assert!(!m.pmu_expired(CoreId(0)));
    }

    #[test]
    fn duty_cycle_stretches_pmu_deadline() {
        let mut m = machine();
        m.set_running(CoreId(0), Some(ActivityProfile::cpu_spin()));
        m.set_pmu_threshold(CoreId(0), Some(3.1e6));
        m.set_duty_cycle(CoreId(0), DutyCycle::new(2).unwrap());
        let dt = m.time_until_pmu(CoreId(0)).unwrap();
        assert!((dt.as_millis_f64() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn devices_add_power_and_busy_time() {
        let mut m = machine();
        let idle = m.true_power_watts();
        m.set_device_active(DeviceKind::Disk, true);
        assert!((m.true_power_watts() - idle - 1.7).abs() < 1e-9);
        m.advance_to(SimTime::from_millis(500));
        m.set_device_active(DeviceKind::Disk, false);
        assert!((m.device_busy_seconds(DeviceKind::Disk) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn inject_events_feeds_counters_and_pmu() {
        let mut m = machine();
        m.set_pmu_threshold(CoreId(0), Some(1000.0));
        let bundle = CounterBlock {
            nonhalt_cycles: 2948.0,
            instructions: 1656.0,
            flops: 16.0,
            cache_refs: 3.0,
            ..CounterBlock::default()
        };
        m.inject_events(CoreId(0), &bundle);
        assert!(m.pmu_expired(CoreId(0)));
        assert_eq!(m.counters(CoreId(0)).instructions, 1656.0);
    }

    #[test]
    fn advance_is_idempotent_for_past_times() {
        let mut m = machine();
        m.advance_to(SimTime::from_millis(5));
        let e = m.true_energy_j();
        m.advance_to(SimTime::from_millis(3));
        assert_eq!(m.true_energy_j(), e);
        assert_eq!(m.now(), SimTime::from_millis(5));
    }

    #[test]
    fn multi_chip_maintenance_counts_per_chip() {
        let mut m = Machine::new(MachineSpec::woodcrest(), 3);
        m.set_running(CoreId(0), Some(ActivityProfile::cpu_spin()));
        let one_chip = m.true_active_power_watts();
        m.set_running(CoreId(2), Some(ActivityProfile::cpu_spin()));
        let two_chips = m.true_active_power_watts();
        let step = two_chips - one_chip;
        // Second chip's first core pays maintenance again.
        let truth = &m.spec().truth;
        let core_power = truth
            .core_active_power(Some(&ActivityProfile::cpu_spin()), DutyCycle::FULL);
        assert!((step - core_power - truth.chip_maintenance_w).abs() < 1e-9);
    }

    #[test]
    fn meter_dropout_loses_reports() {
        let mut faulty = machine();
        faulty.set_fault_config(FaultConfig {
            seed: 13,
            meter_dropout: 0.5,
            ..FaultConfig::none()
        });
        let mut clean = machine();
        for m in [&mut faulty, &mut clean] {
            m.set_running(CoreId(0), Some(ActivityProfile::cpu_spin()));
            m.advance_to(SimTime::from_millis(200));
        }
        let id = clean.find_meter("on-chip").unwrap();
        let n_clean = clean.pop_meter_reports(id).len();
        let n_faulty = faulty.pop_meter_reports(id).len();
        let dropped = faulty.fault_log().count(crate::FaultKind::MeterDropout) as usize;
        assert!(dropped > 50, "dropped {dropped}");
        assert_eq!(n_clean - n_faulty, dropped);
        // Surviving reports are untouched: the fault streams are
        // independent of the measurement-noise stream.
        assert_eq!(clean.true_energy_j(), faulty.true_energy_j());
    }

    #[test]
    fn extra_lag_postpones_visibility() {
        let mut m = machine();
        m.set_fault_config(FaultConfig {
            seed: 2,
            meter_extra_lag: 1.0, // every window
            meter_extra_lag_max: SimDuration::from_millis(500),
            ..FaultConfig::none()
        });
        m.advance_to(SimTime::from_millis(10));
        let id = m.find_meter("on-chip").unwrap();
        // Normally a window closed at 1 ms is visible at 2 ms; with
        // guaranteed extra lag nothing shows this early.
        assert!(m.pop_meter_reports(id).is_empty());
        assert!(m.fault_log().count(crate::FaultKind::MeterExtraLag) > 0);
        m.advance_to(SimTime::from_millis(600));
        assert!(!m.pop_meter_reports(id).is_empty(), "reports arrive eventually");
    }

    #[test]
    fn counter_wrap_goes_backwards_and_glitch_spikes() {
        let mut m = machine();
        m.set_fault_config(FaultConfig {
            seed: 4,
            counter_glitch_hz: 50.0,
            counter_wrap_hz: 50.0,
            ..FaultConfig::none()
        });
        m.set_running(CoreId(0), Some(ActivityProfile::cpu_spin()));
        let mut last = m.counters(CoreId(0));
        let (mut saw_negative, mut saw_spike) = (false, false);
        for ms in 1..=2000u64 {
            m.advance_to(SimTime::from_millis(ms));
            let cum = m.counters(CoreId(0));
            let d_ins = cum.instructions - last.instructions;
            if d_ins < 0.0 {
                saw_negative = true;
            }
            // cpu_spin runs ≲4 instructions/cycle; a glitch burst dwarfs
            // anything one millisecond can legitimately retire.
            if d_ins > 1.0e8 {
                saw_spike = true;
            }
            last = cum;
        }
        assert!(saw_negative, "no wrap observed");
        assert!(saw_spike, "no glitch observed");
        assert!(m.fault_log().count(crate::FaultKind::CounterWrap) > 0);
        assert!(m.fault_log().count(crate::FaultKind::CounterGlitch) > 0);
    }

    #[test]
    fn fault_free_machine_is_untouched_by_inert_config() {
        let mut a = machine();
        let mut b = machine();
        b.set_fault_config(FaultConfig::none());
        for m in [&mut a, &mut b] {
            m.set_running(CoreId(0), Some(ActivityProfile::stress()));
            m.advance_to(SimTime::from_millis(50));
        }
        assert_eq!(a.counters(CoreId(0)), b.counters(CoreId(0)));
        assert_eq!(a.true_energy_j(), b.true_energy_j());
        let id = a.find_meter("on-chip").unwrap();
        assert_eq!(a.pop_meter_reports(id), b.pop_meter_reports(id));
        assert_eq!(b.fault_log().total(), 0);
    }

    #[test]
    fn discarding_reports_leaves_counters_energy_and_faults_bit_identical() {
        let faults = FaultConfig {
            seed: 21,
            meter_dropout: 0.2,
            meter_extra_lag: 0.3,
            meter_extra_lag_max: SimDuration::from_millis(40),
            counter_glitch_hz: 20.0,
            ..FaultConfig::none()
        };
        let mut reading = machine();
        let mut discarding = machine();
        reading.set_fault_config(faults.clone());
        discarding.set_fault_config(faults);
        discarding.discard_meter_reports();
        let mut step = 0u64;
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(2) {
            // Uneven steps that straddle meter-window boundaries, with the
            // running set changing between them.
            step += 1;
            t = (t + SimDuration::from_micros(137 + (step * 7919) % 2_900))
                .min(SimTime::from_secs(2));
            for m in [&mut reading, &mut discarding] {
                let core = CoreId((step % 4) as usize);
                let profile = match step % 3 {
                    0 => None,
                    1 => Some(ActivityProfile::stress()),
                    _ => Some(ActivityProfile::high_ipc()),
                };
                m.set_running(core, profile);
                m.advance_to(t);
            }
        }
        let id = reading.find_meter("on-chip").unwrap();
        assert!(!reading.pop_meter_reports(id).is_empty());
        assert_eq!(reading.true_energy_j().to_bits(), discarding.true_energy_j().to_bits());
        assert_eq!(
            reading.true_active_energy_j().to_bits(),
            discarding.true_active_energy_j().to_bits()
        );
        for c in 0..reading.spec().total_cores() {
            assert_eq!(reading.counters(CoreId(c)), discarding.counters(CoreId(c)), "core {c}");
        }
        for kind in [
            crate::FaultKind::MeterDropout,
            crate::FaultKind::MeterExtraLag,
            crate::FaultKind::CounterGlitch,
        ] {
            assert!(reading.fault_log().count(kind) > 0, "{kind:?} never fired");
        }
        assert_eq!(reading.fault_log(), discarding.fault_log());
    }

    #[test]
    #[should_panic(expected = "meter reports were discarded")]
    fn popping_a_discarded_meter_panics() {
        let mut m = machine();
        m.discard_meter_reports();
        m.advance_to(SimTime::from_millis(5));
        let id = m.find_meter("on-chip").unwrap();
        m.pop_meter_reports(id);
    }

    #[test]
    fn meter_lookup_by_name() {
        let m = machine();
        assert!(m.find_meter("on-chip").is_some());
        assert!(m.find_meter("wattsup").is_some());
        assert!(m.find_meter("nope").is_none());
        assert_eq!(m.meter_count(), 2);
        assert_eq!(m.meter_spec(MeterId(0)).name, MeterSpec::on_chip().name);
    }
}
