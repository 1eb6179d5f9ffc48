//! Drift-sweep checks: the CI smoke cells (with a wall-time budget),
//! `--jobs` invariance of the record, and the trace goldens for
//! `pc-trace schema` / `pc-trace summarize` on the drift_sweep traces.
//!
//! Golden files live in `ci/`; regenerate them after a deliberate
//! instrumentation change with:
//!
//! ```text
//! PC_BLESS=1 cargo test --release -p experiments --test drift_sweep_checks
//! ```

mod common;

use experiments::{drift_sweep, Lab, RunCtx, Scale};
use std::path::PathBuf;
use std::time::Instant;

/// The CI smoke: the heaviest rung (DVFS square + rolling generation
/// swaps + meter dropout) runs both metering engines at quick scale and
/// must show the headline result — the bank recovers within bound after
/// every edge while the single model stays diverged — inside a 20 s
/// budget. (The budget only binds in release builds.)
#[test]
fn drift_smoke_within_wall_budget() {
    let mut lab = Lab::new();
    let chaos = drift_sweep::SCENARIOS
        .iter()
        .find(|s| s.name == "chaos-combined")
        .expect("chaos-combined rung");
    assert!(
        chaos.dvfs && chaos.generation && chaos.meter_faults,
        "the chaos-combined rung must mix DVFS, generation and meter faults"
    );
    // Calibration is warmed outside the timed region; the budget covers
    // the simulations themselves.
    let cal = lab.calibration("sandybridge");
    let t0 = Instant::now();
    let quick = RunCtx::new(Scale::Quick);
    let mut single = drift_sweep::run_cell(&quick, chaos, false, &cal);
    let mut bank = drift_sweep::run_cell(&quick, chaos, true, &cal);
    let elapsed = t0.elapsed();
    // Mirror of the sweep's rung analysis: one shared bound from the
    // pooled pre-shift steady error.
    let steady = 0.5 * (single.steady_err + bank.steady_err);
    let bound =
        (drift_sweep::RECOVERY_FACTOR * steady).max(drift_sweep::ERR_FLOOR);
    drift_sweep::apply_bound(&mut single, bound);
    drift_sweep::apply_bound(&mut bank, bound);
    assert!(!bank.edge_buckets.is_empty(), "the rung must shift regimes");
    assert!(
        bank.recovered_all,
        "bank must recover after every edge: {:?}",
        bank.recovery_buckets
    );
    assert!(
        single.post_err >= drift_sweep::DIVERGE_FACTOR * bank.post_err,
        "single model must stay diverged: {:.3} vs bank {:.3}",
        single.post_err,
        bank.post_err
    );
    assert!(bank.drift_events > 0, "regime shifts must trip the CUSUM");
    assert!(bank.model_switches > 0, "regime shifts must switch slots");
    assert!(bank.faults_injected > 0, "the meter-dropout fault must fire");
    assert!(bank.completions > 0, "the workload must keep serving");
    if !cfg!(debug_assertions) {
        assert!(
            elapsed.as_secs_f64() < 20.0,
            "drift smoke cells took {:.1}s — metering-path throughput regressed",
            elapsed.as_secs_f64()
        );
    }
}

/// Runs the full quick ladder with tracing into a sandbox (pre-seeded
/// with the committed calibration caches) at the given job count and
/// returns (sandbox dir, record JSON).
fn traced_quick_ladder(jobs: usize) -> (PathBuf, String) {
    let (tmp, mut ctx) = common::traced_sandbox(&format!("drift-golden-{jobs}"));
    ctx.jobs = jobs;
    let record = drift_sweep::run(&ctx);
    assert!(record.bank_recovered_all, "bank recovery must hold on the quick ladder");
    assert!(record.single_stayed_diverged, "baseline divergence must hold");
    assert!(record.bank_steady_ok, "the bank must cost nothing at steady state");
    let json = std::fs::read_to_string(tmp.join("results/drift_sweep.json")).expect("record file");
    (tmp, json)
}

/// The ladder is byte-identical at any `--jobs` count, and its traces
/// match the committed goldens: the schema golden covers the union of
/// every (rung × engine) cell (exactly what CI's `schema --check`
/// sees), the summarize golden pins the banked chaos-combined cell.
#[test]
fn drift_traces_match_goldens_at_any_job_count() {
    let (tmp1, serial) = traced_quick_ladder(1);
    let (tmp4, fanned) = traced_quick_ladder(4);
    assert_eq!(serial, fanned, "drift_sweep record must be byte-identical at any --jobs");
    let dir = tmp4.join("traces/drift_sweep");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("drift_sweep trace dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().to_string())
        .filter(|n| n.ends_with(".jsonl"))
        .collect();
    names.sort();
    assert_eq!(
        names.len(),
        drift_sweep::SCENARIOS.len() * 2,
        "one trace per (rung × engine): {names:?}"
    );
    let mut merged = String::new();
    for n in &names {
        let body = std::fs::read_to_string(dir.join(n)).expect("read trace");
        let other = std::fs::read_to_string(tmp1.join("traces/drift_sweep").join(n))
            .expect("read serial trace");
        assert_eq!(body, other, "{n} must be byte-identical at any --jobs");
        merged.push_str(&body);
    }
    common::check_golden("trace_schema_drift.golden", &telemetry::summary::schema(&merged));
    let full = std::fs::read_to_string(dir.join("chaos-combined-bank.jsonl"))
        .expect("chaos-combined-bank trace");
    let s = telemetry::summary::summarize(&full);
    assert_eq!(s.unparsed_lines, 0, "trace must be well-formed");
    common::check_golden("trace_summarize_drift.golden", &telemetry::summary::render_summary(&s));
    let _ = std::fs::remove_dir_all(&tmp1);
    let _ = std::fs::remove_dir_all(&tmp4);
}
