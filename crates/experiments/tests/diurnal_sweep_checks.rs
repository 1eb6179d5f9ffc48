//! Diurnal-sweep checks: the CI smoke cells (with a wall-time budget),
//! `--jobs` invariance of the record, and the trace goldens for
//! `pc-trace schema` / `pc-trace summarize` on the diurnal_sweep traces.
//!
//! Golden files live in `ci/`; regenerate them after a deliberate
//! instrumentation change with:
//!
//! ```text
//! PC_BLESS=1 cargo test --release -p experiments --test diurnal_sweep_checks
//! ```

mod common;

use experiments::{diurnal_sweep, Lab, RunCtx, Scale};
use std::path::PathBuf;
use std::time::Instant;

/// The CI smoke: the diurnal rung head-to-head (the experiment's
/// headline comparison) plus the capped diurnal-flash autoscaled cell
/// (brownout ladder + elasticity under a tight cap) must pass every
/// invariant — `run_cell` asserts them — inside a 30 s budget. (The
/// budget only binds in release builds.)
#[test]
fn diurnal_smoke_within_wall_budget() {
    let mut lab = Lab::new();
    let diurnal = diurnal_sweep::SCENARIOS
        .iter()
        .find(|s| s.name == "diurnal")
        .expect("diurnal rung");
    let flash = diurnal_sweep::SCENARIOS
        .iter()
        .find(|s| s.name == "diurnal-flash")
        .expect("diurnal-flash rung");
    assert!(flash.capped && flash.flash, "the flash rung must run capped flash crowds");
    // Calibration is warmed outside the timed region; the budget covers
    // the simulations themselves.
    let cals = diurnal_sweep::cell_calibrations(
        &mut lab,
        &diurnal_sweep::cell_config(Scale::Quick, diurnal, false),
    );
    let t0 = Instant::now();
    let quick = RunCtx::new(Scale::Quick);
    let fixed = diurnal_sweep::run_cell(&quick, diurnal, false, &cals);
    let auto = diurnal_sweep::run_cell(&quick, diurnal, true, &cals);
    let browned = diurnal_sweep::run_cell(&quick, flash, true, &cals);
    let elapsed = t0.elapsed();
    assert_eq!(fixed.dispatched, auto.dispatched, "both arms must face identical traffic");
    assert!(auto.scale_outs > 0 && auto.scale_ins > 0, "a diurnal day must resize the fleet");
    assert!(
        auto.j_per_req <= fixed.j_per_req * (1.0 - diurnal_sweep::DIURNAL_WIN_FLOOR),
        "autoscaled J/request {:.3} must beat fixed {:.3} by ≥{:.0}%",
        auto.j_per_req,
        fixed.j_per_req,
        diurnal_sweep::DIURNAL_WIN_FLOOR * 100.0
    );
    assert!(browned.brownout_engagements > 0, "the capped flash cell must brown out");
    assert!(browned.completed > 0, "a browned-out fleet must keep serving");
    for r in [&fixed, &auto, &browned] {
        assert!(r.requests_conserved && r.energy_conserved && r.cap_ok);
    }
    if !cfg!(debug_assertions) {
        assert!(
            elapsed.as_secs_f64() < 30.0,
            "diurnal smoke cells took {:.1}s — elasticity-path throughput regressed",
            elapsed.as_secs_f64()
        );
    }
}

/// Runs the full quick ladder with tracing into a sandbox (pre-seeded
/// with the committed calibration caches) at the given job count and
/// returns (sandbox dir, record JSON).
fn traced_quick_ladder(jobs: usize) -> (PathBuf, String) {
    let (tmp, mut ctx) = common::traced_sandbox(&format!("diurnal-golden-{jobs}"));
    ctx.jobs = jobs;
    let record = diurnal_sweep::run(&ctx);
    assert!(record.requests_conserved, "request conservation must be exact");
    assert!(record.energy_conserved, "energy must balance modulo loss windows");
    assert!(record.caps_held, "capped cells must hold their cap");
    assert!(record.brownouts_fired, "capped rungs must engage the brownout ladder");
    assert!(record.upgrades_completed, "the upgrade rung must finish its swaps");
    assert!(record.diurnal_win >= diurnal_sweep::DIURNAL_WIN_FLOOR);
    let json = std::fs::read_to_string(tmp.join("results/diurnal_sweep.json")).expect("record file");
    (tmp, json)
}

/// The ladder is byte-identical at any `--jobs` count, and its traces
/// match the committed goldens: the schema golden covers the union of
/// every cell (exactly what CI's `schema --check` sees), the summarize
/// golden pins the capped flash-crowd autoscaled cell — the one with
/// resize, brownout and admission events all live at once.
#[test]
fn diurnal_traces_match_goldens_at_any_job_count() {
    let (tmp1, serial) = traced_quick_ladder(1);
    let (tmp4, fanned) = traced_quick_ladder(4);
    assert_eq!(serial, fanned, "diurnal_sweep record must be byte-identical at any --jobs");
    let dir = tmp4.join("traces/diurnal_sweep");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("diurnal_sweep trace dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().to_string())
        .filter(|n| n.ends_with(".jsonl"))
        .collect();
    names.sort();
    assert_eq!(
        names.len(),
        2 * diurnal_sweep::SCENARIOS.len(),
        "one trace per arm per rung: {names:?}"
    );
    let mut merged = String::new();
    for n in &names {
        let body = std::fs::read_to_string(dir.join(n)).expect("read trace");
        let other = std::fs::read_to_string(tmp1.join("traces/diurnal_sweep").join(n))
            .expect("read serial trace");
        assert_eq!(body, other, "{n} must be byte-identical at any --jobs");
        merged.push_str(&body);
    }
    common::check_golden("trace_schema_diurnal.golden", &telemetry::summary::schema(&merged));
    let flash = std::fs::read_to_string(dir.join("diurnal-flash-autoscaled.jsonl"))
        .expect("diurnal-flash-autoscaled trace");
    let s = telemetry::summary::summarize(&flash);
    assert_eq!(s.unparsed_lines, 0, "trace must be well-formed");
    common::check_golden("trace_summarize_diurnal.golden", &telemetry::summary::render_summary(&s));
    let _ = std::fs::remove_dir_all(&tmp1);
    let _ = std::fs::remove_dir_all(&tmp4);
}
