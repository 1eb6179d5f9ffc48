//! Cross-machine energy profiling (paper Fig. 13).
//!
//! Power containers quantify each workload's *relative* energy affinity
//! across machine generations: run the workload at peak load on each
//! machine, take the mean per-request active energy from the container
//! records, and form the ratio (new machine over old machine). A low
//! ratio means the workload loses a lot by running on the old machine.

use hwsim::MachineSpec;
use simkern::SimDuration;
use workloads::{run_app, LoadLevel, MachineCalibration, RunConfig, RunOutcome, WorkloadKind};

/// Mean per-request active energy of `kind` at peak load on `spec`, in
/// Joules, profiled through power containers. `observe` sees the
/// profiling run's outcome (for callers that tally their runs).
pub fn mean_request_energy_j(
    kind: WorkloadKind,
    spec: &MachineSpec,
    cal: &MachineCalibration,
    seed: u64,
    duration: SimDuration,
    observe: &mut dyn FnMut(&RunOutcome),
) -> f64 {
    let mut cfg = RunConfig::new(spec.clone());
    cfg.seed = seed;
    cfg.load = LoadLevel::Peak;
    cfg.duration = duration;
    let outcome = run_app(kind, &cfg, cal);
    observe(&outcome);
    let f = outcome.facility.borrow();
    let records = f.containers().records();
    let finished: Vec<f64> = records
        .iter()
        .filter(|r| r.busy_seconds > 0.0)
        .map(|r| r.energy_j + r.io_energy_j)
        .collect();
    assert!(
        !finished.is_empty(),
        "no completed requests profiling {kind} on {}",
        spec.name
    );
    finished.iter().sum::<f64>() / finished.len() as f64
}

/// One row of Fig. 13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffinityRow {
    /// The workload.
    pub kind: WorkloadKind,
    /// Mean request energy on the new machine, Joules.
    pub new_machine_j: f64,
    /// Mean request energy on the old machine, Joules.
    pub old_machine_j: f64,
}

impl AffinityRow {
    /// The cross-machine active energy usage ratio (new over old).
    pub fn ratio(&self) -> f64 {
        self.new_machine_j / self.old_machine_j
    }
}

/// Profiles the cross-machine energy ratio of each workload between two
/// machines (Fig. 13's SandyBridge-over-Woodcrest ratios). `observe`
/// sees every profiling run's outcome, in profiling order.
pub fn energy_affinity(
    kinds: &[WorkloadKind],
    new_machine: (&MachineSpec, &MachineCalibration),
    old_machine: (&MachineSpec, &MachineCalibration),
    seed: u64,
    duration: SimDuration,
    mut observe: impl FnMut(&RunOutcome),
) -> Vec<AffinityRow> {
    let mut mean = |kind, (spec, cal): (&MachineSpec, &MachineCalibration)| {
        mean_request_energy_j(kind, spec, cal, seed, duration, &mut observe)
    };
    kinds
        .iter()
        .map(|&kind| AffinityRow {
            kind,
            new_machine_j: mean(kind, new_machine),
            old_machine_j: mean(kind, old_machine),
        })
        .collect()
}
