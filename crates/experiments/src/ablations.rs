//! Ablation studies of the facility's design choices.
//!
//! The paper argues for three mechanisms whose absence is hard to see in
//! end-to-end numbers alone; these experiments remove each one and
//! measure the damage:
//!
//! 1. **Per-segment socket tagging** (§3.3) vs the naive design where a
//!    socket inherits its most recent message's tag — on a multi-stage
//!    server with persistent connections, naive tagging misattributes
//!    the database stage across requests.
//! 2. **The Eq. 3 idle-sibling staleness check** — without it, an idle
//!    sibling's stale utilization record dilutes every busy core's chip
//!    maintenance share.
//! 3. **Observer-effect compensation** (§3.5) — without subtracting the
//!    maintenance operation's own events, high-frequency sampling
//!    inflates the attributed activity.

use crate::output::{banner, pct, write_record, Table};
use crate::{Lab, RunCtx};
use ossim::ContextId;
use serde::Serialize;
use simkern::SimDuration;
use std::collections::BTreeMap;
use workloads::{run_app, LoadLevel, RunConfig, WorkloadKind};

/// One ablation's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Which mechanism was ablated.
    pub mechanism: String,
    /// The quality metric with the mechanism enabled.
    pub with_mechanism: f64,
    /// The same metric with the mechanism removed.
    pub without_mechanism: f64,
    /// What the metric measures.
    pub metric: String,
}

/// The ablations record.
#[derive(Debug, Clone, Serialize)]
pub struct Ablations {
    /// All rows.
    pub rows: Vec<AblationRow>,
}

/// Per-request energies keyed by context, for attribution comparisons.
/// Ordered map: the distortion sum below accumulates floats in iteration
/// order, which must not vary between processes for records to reproduce
/// byte-for-byte.
fn request_energies(outcome: &workloads::RunOutcome) -> BTreeMap<ContextId, f64> {
    let f = outcome.facility.borrow();
    f.containers()
        .records()
        .iter()
        .filter(|r| r.busy_seconds > 0.0)
        .map(|r| (r.ctx, r.energy_j + r.io_energy_j))
        .collect()
}

/// Ablation 1: per-request attribution distortion under naive socket
/// tagging, as mean relative per-request energy difference vs the
/// per-segment reference (same seed, same request stream).
fn socket_tagging(ctx: &RunCtx, lab: &mut Lab) -> AblationRow {
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let run = |naive: bool| {
        let mut cfg = RunConfig::new(spec.clone());
        cfg.sched = ctx.sched.clone();
        cfg.load = LoadLevel::Peak;
        cfg.duration = SimDuration::from_secs(ctx.scale.run_secs());
        cfg.naive_socket_tagging = naive;
        let o = run_app(WorkloadKind::WeBWorK, &cfg, &cal);
        ctx.note(&o);
        o
    };
    let reference = request_energies(&run(false));
    let naive = request_energies(&run(true));
    let mut diff = 0.0;
    let mut base = 0.0;
    let mut n = 0;
    for (ctx, e_ref) in &reference {
        if let Some(e_naive) = naive.get(ctx) {
            diff += (e_naive - e_ref).abs();
            base += e_ref;
            n += 1;
        }
    }
    assert!(n > 100, "too few matched requests ({n})");
    AblationRow {
        mechanism: "per-segment socket tagging (§3.3)".to_string(),
        with_mechanism: 0.0,
        without_mechanism: diff / base,
        metric: "mean per-request energy distortion".to_string(),
    }
}

/// Ablations 2 and 3: validation error with a facility knob flipped.
fn validation_ablation(
    ctx: &RunCtx,
    lab: &mut Lab,
    kind: WorkloadKind,
    load: LoadLevel,
    mechanism: &str,
    tweak: impl Fn(&mut RunConfig, bool),
) -> AblationRow {
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let mut errors = [0.0f64; 2];
    for (i, enabled) in [true, false].into_iter().enumerate() {
        let mut cfg = RunConfig::new(spec.clone());
        cfg.sched = ctx.sched.clone();
        cfg.load = load;
        cfg.duration = SimDuration::from_secs(ctx.scale.run_secs());
        tweak(&mut cfg, enabled);
        let outcome = run_app(kind, &cfg, &cal);
        ctx.note(&outcome);
        errors[i] = outcome.validation_error();
    }
    AblationRow {
        mechanism: mechanism.to_string(),
        with_mechanism: errors[0],
        without_mechanism: errors[1],
        metric: format!("validation error ({} {})", kind.name(), load.name()),
    }
}

/// Ablation 3: how much phantom energy uncompensated maintenance events
/// add to the books. Both runs model the observer effect (events are
/// injected); only the subtraction differs, so the interesting quantity
/// is the attributed-energy inflation, not the signed validation error.
fn observer_effect(ctx: &RunCtx, lab: &mut Lab) -> AblationRow {
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let run = |compensate: bool| {
        let mut cfg = RunConfig::new(spec.clone());
        cfg.sched = ctx.sched.clone();
        cfg.load = LoadLevel::Peak;
        cfg.duration = SimDuration::from_secs(ctx.scale.run_secs());
        cfg.compensate_observer = compensate;
        cfg.sample_period = Some(SimDuration::from_micros(100));
        let o = run_app(WorkloadKind::RsaCrypto, &cfg, &cal);
        ctx.note(&o);
        o
    };
    let with = run(true).attributed_energy_j();
    let without = run(false).attributed_energy_j();
    AblationRow {
        mechanism: "observer-effect compensation (§3.5, 0.1 ms sampling)".to_string(),
        with_mechanism: 0.0,
        without_mechanism: without / with - 1.0,
        metric: "attributed-energy inflation (RSA-crypto peak load)".to_string(),
    }
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Ablations {
    banner("ablations", "design-choice ablations (tagging, Eq.3 idle check, observer effect)");
    let mut lab = Lab::new();
    let rows = vec![
        socket_tagging(ctx, &mut lab),
        validation_ablation(
            ctx,
            &mut lab,
            WorkloadKind::GaeVosao,
            LoadLevel::Half,
            "Eq. 3 idle-sibling staleness check",
            |cfg, enabled| cfg.sibling_idle_check = enabled,
        ),
        observer_effect(ctx, &mut lab),
    ];
    let mut table = Table::new(["mechanism", "with", "without", "metric"]);
    for r in &rows {
        table.row([
            r.mechanism.clone(),
            pct(r.with_mechanism),
            pct(r.without_mechanism),
            r.metric.clone(),
        ]);
    }
    println!("{table}");
    let record = Ablations { rows };
    write_record("ablations", &record);
    record
}
