//! Obs-sweep checks: the CI smoke rungs (alert contract under a wall
//! budget), `--jobs`/`--shards` invariance of the record and of every
//! per-rung artifact, and the goldens for `pc-trace schema` over the
//! obs traces and `pc-obs report` over a rung's report.
//!
//! Golden files live in `ci/`; regenerate them after a deliberate
//! instrumentation change with:
//!
//! ```text
//! PC_BLESS=1 cargo test --release -p experiments --test obs_sweep_checks
//! ```

mod common;

use experiments::{obs_sweep, Lab, RunCtx, Scale};
use std::path::PathBuf;
use std::time::Instant;
use telemetry::obs::{AlertKind, ObsReport};

/// The CI smoke: every alert rung of the quick ladder must fire its
/// expected kinds and every control rung must stay silent — `run_cell`
/// asserts both — inside a 20 s budget. (The budget only binds in
/// release builds.)
#[test]
fn obs_smoke_within_wall_budget() {
    let mut lab = Lab::new();
    // Calibration is warmed outside the timed region; the budget covers
    // the simulations themselves.
    let cals = obs_sweep::cell_calibrations(
        &mut lab,
        &obs_sweep::cell_config(Scale::Quick, &obs_sweep::SCENARIOS[0]),
    );
    let quick = RunCtx::new(Scale::Quick);
    let t0 = Instant::now();
    let mut fired = [0u64; AlertKind::ALL.len()];
    for scenario in obs_sweep::SCENARIOS {
        let (row, obs) = obs_sweep::run_cell(&quick, scenario, &cals);
        assert!(row.expected_fired && row.silent_ok, "{}: alert contract", scenario.name);
        assert!(row.completed > 0, "{}: the fleet must keep serving", scenario.name);
        assert!(
            row.provenance_entries > 0,
            "{}: small rungs collect provenance",
            scenario.name
        );
        assert_eq!(row.windows, obs.report.series["power_w/fleet"].total_count());
        for (i, n) in row.alerts.iter().enumerate() {
            fired[i] += n;
        }
    }
    let elapsed = t0.elapsed();
    assert!(
        fired.iter().all(|&n| n > 0),
        "the ladder must exercise every alert kind, got {fired:?}"
    );
    if !cfg!(debug_assertions) {
        assert!(
            elapsed.as_secs_f64() < 20.0,
            "obs smoke rungs took {:.1}s — observability-path throughput regressed",
            elapsed.as_secs_f64()
        );
    }
}

/// Runs the full quick ladder with tracing into a sandbox (pre-seeded
/// with the committed calibration caches) at the given job and shard
/// counts; returns (sandbox dir, record JSON).
fn traced_quick_ladder(jobs: usize, shards: usize) -> (PathBuf, String) {
    let (tmp, mut ctx) = common::traced_sandbox(&format!("obs-golden-{jobs}-{shards}"));
    ctx.jobs = jobs;
    ctx.shards = shards;
    let record = obs_sweep::run(&ctx);
    assert!(record.alerts_fired, "every alert rung must fire its expected kinds");
    assert!(record.controls_silent, "every control rung must stay silent");
    let json = std::fs::read_to_string(tmp.join("results/obs_sweep.json")).expect("record file");
    (tmp, json)
}

/// The ladder is byte-identical at any `--jobs` *and* `--shards`
/// count — record, telemetry traces, `.obs.json` reports and `.folded`
/// provenance alike — and the committed goldens pin the trace schema
/// (union of every rung, exactly what CI's `schema --check` sees) and
/// the rendered report of the cap-burn rung.
#[test]
fn obs_artifacts_match_goldens_at_any_job_and_shard_count() {
    // Serialized against other golden tests via the results-dir env
    // var: each sandbox sets PC_RESULTS_DIR before running, so keep
    // both sweeps inside one test body.
    let (tmp1, serial) = traced_quick_ladder(1, 1);
    let (tmp4, fanned) = traced_quick_ladder(4, 4);
    assert_eq!(
        serial, fanned,
        "obs_sweep record must be byte-identical at any --jobs/--shards"
    );
    let dir = tmp4.join("traces/obs_sweep");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("obs_sweep trace dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().to_string())
        .filter(|n| n.ends_with(".jsonl") || n.ends_with(".obs.json") || n.ends_with(".folded"))
        .collect();
    names.sort();
    let rungs = obs_sweep::SCENARIOS.len();
    assert_eq!(
        names.iter().filter(|n| n.ends_with(".jsonl")).count(),
        rungs,
        "one trace per rung: {names:?}"
    );
    assert_eq!(
        names.iter().filter(|n| n.ends_with(".obs.json")).count(),
        rungs,
        "one report per rung: {names:?}"
    );
    assert!(
        names.iter().filter(|n| n.ends_with(".folded")).count() >= rungs - 1,
        "provenance export per rung (controls may complete zero-energy): {names:?}"
    );
    let mut merged = String::new();
    for n in &names {
        let body = std::fs::read_to_string(dir.join(n)).expect("read artifact");
        let other =
            std::fs::read_to_string(tmp1.join("traces/obs_sweep").join(n)).expect("serial artifact");
        assert_eq!(body, other, "{n} must be byte-identical at any --jobs/--shards");
        if n.ends_with(".jsonl") {
            merged.push_str(&body);
        }
    }
    common::check_golden("trace_schema_obs.golden", &telemetry::summary::schema(&merged));
    // The alert events are in the trace stream, not only in the report.
    assert!(
        merged.contains("\"cat\":\"obs\""),
        "fired alerts must appear as typed telemetry events"
    );
    let report_json =
        std::fs::read_to_string(dir.join("cap-burn.obs.json")).expect("cap-burn report");
    let report = ObsReport::from_json(&report_json).expect("well-formed obs report");
    assert!(report.alert_count(AlertKind::CapBurn) > 0);
    common::check_golden("obs_report.golden", &report.render());
    let _ = std::fs::remove_dir_all(&tmp1);
    let _ = std::fs::remove_dir_all(&tmp4);
}

/// Two cells running at once on two threads under different contexts
/// see only their own settings: the traced cell's trace dir holds its
/// own artifacts and nothing else, the untraced 2-shard cell writes
/// nothing, and each row and tally equals the same cell's serial,
/// default-flag run.
#[test]
fn concurrent_cells_keep_their_own_contexts() {
    let mut lab = Lab::new();
    let rung = |name| obs_sweep::SCENARIOS.iter().find(|s| s.name == name).expect("rung");
    let (control, cap_burn) = (rung("control"), rung("cap-burn"));
    let cals = obs_sweep::cell_calibrations(&mut lab, &obs_sweep::cell_config(Scale::Quick, control));
    let root = std::env::temp_dir().join(format!("pc-ctx-isolation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut traced = RunCtx::new(Scale::Quick);
    traced.trace_dir = Some(root.clone());
    let mut sharded = RunCtx::new(Scale::Quick);
    sharded.shards = 2;
    let row = |ctx: &RunCtx, sc| {
        let (row, obs) = obs_sweep::run_cell(ctx, sc, &cals);
        (serde_json::to_string(&row).expect("row json"), obs.report.to_json())
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| row(&traced, control));
        let b = s.spawn(|| row(&sharded, cap_burn));
        (a.join().expect("traced cell"), b.join().expect("sharded cell"))
    });
    let list = |dir: PathBuf| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("trace dir")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().to_string())
            .collect();
        names.sort();
        names
    };
    assert_eq!(list(root.clone()), ["obs_sweep"]);
    assert!(
        list(root.join("obs_sweep")).iter().all(|n| n.starts_with("control.")),
        "only the traced cell may write artifacts: {:?}",
        list(root.join("obs_sweep"))
    );
    assert!(list(root.join("obs_sweep")).contains(&"control.jsonl".to_string()));
    let (serial_a, serial_b) = (RunCtx::new(Scale::Quick), RunCtx::new(Scale::Quick));
    assert!(a == row(&serial_a, control), "traced cell differs from its serial run");
    assert!(b == row(&serial_b, cap_burn), "sharded cell differs from its serial run");
    assert_eq!(traced.tally(), serial_a.tally());
    assert_eq!(sharded.tally(), serial_b.tally());
    assert!(traced.tally().requests > 0 && traced.tally() != sharded.tally());
    let _ = std::fs::remove_dir_all(&root);
}
