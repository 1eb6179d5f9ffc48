//! Chaos-sweep checks: the CI smoke cells (with a wall-time budget),
//! `--jobs` invariance of the record, and the trace goldens for
//! `pc-trace schema` / `pc-trace summarize` on the chaos_sweep traces.
//!
//! Golden files live in `ci/`; regenerate them after a deliberate
//! instrumentation change with:
//!
//! ```text
//! PC_BLESS=1 cargo test --release -p experiments --test chaos_sweep_checks
//! ```

mod common;

use experiments::{chaos_sweep, Lab, RunCtx, Scale};
use std::path::PathBuf;
use std::time::Instant;

/// The CI smoke: the heaviest rungs of the ladder (high crash rate, and
/// the simultaneous crash + slowdown + tag-fault mix) must pass all
/// three invariants — `run_cell` asserts them — inside a 20 s budget.
/// (The budget only binds in release builds.)
#[test]
fn chaos_smoke_within_wall_budget() {
    let mut lab = Lab::new();
    let crash_high = chaos_sweep::SCENARIOS
        .iter()
        .find(|s| s.name == "crash-high")
        .expect("crash-high rung");
    let chaos_full = chaos_sweep::SCENARIOS
        .iter()
        .find(|s| s.name == "chaos-full")
        .expect("chaos-full rung");
    assert!(
        chaos_full.simultaneous(),
        "the chaos-full rung must mix crash, slowdown and tag faults in one cell"
    );
    // Calibration is warmed outside the timed region; the budget covers
    // the simulations themselves.
    let cals = chaos_sweep::cell_calibrations(
        &mut lab,
        &chaos_sweep::cell_config(Scale::Quick, crash_high),
    );
    let t0 = Instant::now();
    let quick = RunCtx::new(Scale::Quick);
    let high = chaos_sweep::run_cell(&quick, crash_high, &cals);
    let full = chaos_sweep::run_cell(&quick, chaos_full, &cals);
    let elapsed = t0.elapsed();
    for r in [&high, &full] {
        assert!(r.crashes > 0, "{}: the crash clock must fire", r.scenario);
        assert!(r.checkpoints > 0, "{}: crashes imply journaling", r.scenario);
        assert!(r.completed > 0, "{}: the fleet must keep serving", r.scenario);
        assert!(r.requests_conserved && r.energy_conserved && r.cap_ok);
    }
    assert!(full.tag_faults > 0, "chaos-full must actually corrupt tags");
    if !cfg!(debug_assertions) {
        assert!(
            elapsed.as_secs_f64() < 20.0,
            "chaos smoke cells took {:.1}s — recovery-path throughput regressed",
            elapsed.as_secs_f64()
        );
    }
}

/// Runs the full quick ladder with tracing into a sandbox (pre-seeded
/// with the committed calibration caches) at the given job count and
/// returns (sandbox dir, record JSON).
fn traced_quick_ladder(jobs: usize) -> (PathBuf, String) {
    let (tmp, mut ctx) = common::traced_sandbox(&format!("chaos-golden-{jobs}"));
    ctx.jobs = jobs;
    let record = chaos_sweep::run(&ctx);
    assert!(record.requests_conserved, "request conservation must be exact");
    assert!(record.energy_conserved, "energy must balance modulo loss windows");
    assert!(record.caps_held, "capped cells must hold their cap");
    assert!(record.faults_fired, "every rung must exercise its fault mix");
    let json = std::fs::read_to_string(tmp.join("results/chaos_sweep.json")).expect("record file");
    (tmp, json)
}

/// The ladder is byte-identical at any `--jobs` count, and its traces
/// match the committed goldens: the schema golden covers the union of
/// every rung (exactly what CI's `schema --check` sees), the summarize
/// golden pins the simultaneous-fault rung.
#[test]
fn chaos_traces_match_goldens_at_any_job_count() {
    let (tmp1, serial) = traced_quick_ladder(1);
    let (tmp4, fanned) = traced_quick_ladder(4);
    assert_eq!(serial, fanned, "chaos_sweep record must be byte-identical at any --jobs");
    let dir = tmp4.join("traces/chaos_sweep");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("chaos_sweep trace dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().to_string())
        .filter(|n| n.ends_with(".jsonl"))
        .collect();
    names.sort();
    assert_eq!(names.len(), chaos_sweep::SCENARIOS.len(), "one trace per rung: {names:?}");
    let mut merged = String::new();
    for n in &names {
        let body = std::fs::read_to_string(dir.join(n)).expect("read trace");
        let other = std::fs::read_to_string(tmp1.join("traces/chaos_sweep").join(n))
            .expect("read serial trace");
        assert_eq!(body, other, "{n} must be byte-identical at any --jobs");
        merged.push_str(&body);
    }
    common::check_golden("trace_schema_chaos.golden", &telemetry::summary::schema(&merged));
    let full = std::fs::read_to_string(dir.join("chaos-full.jsonl")).expect("chaos-full trace");
    let s = telemetry::summary::summarize(&full);
    assert_eq!(s.unparsed_lines, 0, "trace must be well-formed");
    common::check_golden("trace_summarize_chaos.golden", &telemetry::summary::render_summary(&s));
    let _ = std::fs::remove_dir_all(&tmp1);
    let _ = std::fs::remove_dir_all(&tmp4);
}
