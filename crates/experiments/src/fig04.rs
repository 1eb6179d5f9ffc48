//! Fig. 4 — a captured multi-stage WeBWorK request execution.
//!
//! One request flows through Apache/PHP processing, the MySQL thread,
//! and the forked shell → latex → dvipng pipeline; the facility tracks
//! the context across sockets and forks and attributes power and energy
//! to every stage, as in the paper's annotated timeline.

use crate::output::{banner, write_record, Table};
use crate::RunCtx;
use hwsim::Machine;
use ossim::{Kernel, KernelConfig, TaskId};
use power_containers::{Approach, FacilityConfig, PowerContainerFacility};
use serde::Serialize;
use simkern::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::{
    apps::WeBWorK, spawn_driver, AppEnv, CtxAlloc, DriverEnv, RunStats, ServerApp,
};

/// One stage of the captured request.
#[derive(Debug, Clone, Serialize)]
pub struct Stage {
    /// Stage name (process identity in the paper's figure).
    pub stage: String,
    /// Mean power while executing, Watts.
    pub power_w: f64,
    /// Energy attributed to the stage, Joules.
    pub energy_j: f64,
    /// CPU time of the stage, milliseconds.
    pub busy_ms: f64,
}

/// The Fig. 4 record.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4 {
    /// Per-stage attribution.
    pub stages: Vec<Stage>,
    /// Total request energy from the container, Joules.
    pub total_energy_j: f64,
    /// End-to-end response time, milliseconds.
    pub response_ms: f64,
}

/// Runs the experiment.
pub fn run(_ctx: &RunCtx) -> Fig4 {
    banner("fig4", "captured multi-stage WeBWorK request (per-stage power/energy)");
    let mut lab = crate::Lab::new();
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");

    let facility = PowerContainerFacility::new(
        cal.model_for(Approach::ChipShare),
        None,
        &spec,
        FacilityConfig { track_per_task: true, ..FacilityConfig::default() },
    );
    let state = facility.state();
    let mut kernel = Kernel::new(Machine::new(spec.clone(), crate::SEED), KernelConfig::default());
    kernel.install_hooks(Box::new(facility));

    let stats = Rc::new(RefCell::new(RunStats::new()));
    let app = WeBWorK::new();
    let env = AppEnv {
        stats: Rc::clone(&stats),
        workers: 1,
        spec: spec.clone(),
        seed: 7,
        notify: None,
    };
    let inboxes = app.setup(&mut kernel, &env);
    spawn_driver(
        &mut kernel,
        DriverEnv {
            inboxes,
            mean_gap: SimDuration::from_millis(1),
            pick_label: Box::new(|_| 5), // a fixed, mid-difficulty problem set
            stats: Rc::clone(&stats),
            facility: Some(Rc::clone(&state)),
            ctxs: CtxAlloc::new(1),
            max_requests: Some(1),
            start_after: SimDuration::ZERO,
        },
    );
    kernel.run_until(SimTime::from_millis(200));
    assert!(kernel.is_quiescent(), "single request should complete well within 200 ms");

    // Task identities are deterministic: setup spawns the MySQL thread
    // (task 0) and the single httpd worker (task 1), the driver is task
    // 2, and the forked pipeline creates shell (3), latex (4), dvipng (5).
    let named = [
        (TaskId(1), "Apache httpd (PHP)"),
        (TaskId(0), "MySQL thread"),
        (TaskId(3), "shell"),
        (TaskId(4), "latex process"),
        (TaskId(5), "dvipng process"),
    ];
    let f = state.borrow();
    let mut stages = Vec::new();
    let mut table = Table::new(["stage", "power (W)", "energy (J)", "cpu time (ms)"]);
    for (tid, name) in named {
        let (energy, busy) = f
            .task_energy(tid)
            .unwrap_or_else(|| panic!("no energy tracked for {name} ({tid})"));
        let power = if busy > 0.0 { energy / busy } else { 0.0 };
        table.row([
            name.to_string(),
            format!("{power:.1}"),
            format!("{energy:.4}"),
            format!("{:.2}", busy * 1e3),
        ]);
        stages.push(Stage {
            stage: name.to_string(),
            power_w: power,
            energy_j: energy,
            busy_ms: busy * 1e3,
        });
    }
    let record_stats = stats.borrow();
    let completion = record_stats.completions().first().expect("request completed");
    let container = f
        .containers()
        .records()
        .first()
        .expect("container record retained");
    println!("{table}");
    println!(
        "request total: {:.3} J over {:.1} ms response time",
        container.energy_j + container.io_energy_j,
        completion.response_secs() * 1e3
    );
    let record = Fig4 {
        stages,
        total_energy_j: container.energy_j + container.io_energy_j,
        response_ms: completion.response_secs() * 1e3,
    };
    write_record("fig4", &record);
    record
}
