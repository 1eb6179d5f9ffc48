//! Scale-sweep checks: the CI smoke cells (with a wall-time budget) and
//! the trace goldens for `pc-trace summarize` / `pc-trace schema` on the
//! scale_sweep traces.
//!
//! Golden files live in `ci/`; regenerate them after a deliberate
//! instrumentation change with:
//!
//! ```text
//! PC_BLESS=1 cargo test --release -p experiments --test scale_sweep_checks
//! ```

mod common;

use cluster::{run_pipeline, ClusterOutcome, DistributionPolicy, SimpleBalance};
use experiments::{scale_sweep, Lab, Scale};
use std::path::PathBuf;
use std::time::Instant;

fn run_cell(nodes: usize) -> ClusterOutcome {
    let mut lab = Lab::new();
    let cfg = scale_sweep::cell_config(Scale::Quick, nodes, None);
    let cals = scale_sweep::cell_calibrations(&mut lab, &cfg);
    let mut policies: Vec<Box<dyn DistributionPolicy>> = (0..cfg.tiers.len())
        .map(|_| Box::new(SimpleBalance::new()) as Box<dyn DistributionPolicy>)
        .collect();
    run_pipeline(&mut policies, &cfg, &cals)
}

/// The smallest sweep cells must serve their load and finish fast: the
/// tick-batched dispatcher keeps per-request work independent of fleet
/// size, so even the 16-node cell stays comfortably inside the budget.
/// (The budget only binds in release builds — CI runs this under
/// `cargo test --release`.)
#[test]
fn smallest_cell_smoke_within_wall_budget() {
    // Calibration is warmed outside the timed region; the budget covers
    // the simulation itself.
    let mut lab = Lab::new();
    for name in ["sandybridge", "westmere", "woodcrest"] {
        let _ = lab.calibration(name);
    }
    let t0 = Instant::now();
    let small = run_cell(4);
    let large = run_cell(16);
    let elapsed = t0.elapsed();
    for o in [&small, &large] {
        assert!(o.completed > 1_000, "cell must serve load, got {}", o.completed);
        assert_eq!(o.dispatched, o.completed as u64 + o.dropped + o.in_flight);
        assert_eq!(o.dropped, 0, "healthy cells must not drop requests");
        // Decisions scale with requests (one per pipeline stage), not
        // with node count — the batched-dispatch design point. Requests
        // still in flight at the end have made only part of their three
        // decisions.
        assert!(o.decisions >= o.completed as u64 * 3);
        assert!(o.decisions <= o.dispatched * 3);
    }
    if !cfg!(debug_assertions) {
        assert!(
            elapsed.as_secs_f64() < 15.0,
            "4- and 16-node quick cells took {:.1}s — dispatcher throughput regressed",
            elapsed.as_secs_f64()
        );
    }
}

/// Runs the full quick sweep with tracing into a sandbox (pre-seeded
/// with the committed calibration caches) and returns the trace dir.
fn traced_quick_sweep() -> PathBuf {
    let (tmp, ctx) = common::traced_sandbox("scale-golden");
    let record = scale_sweep::run(&ctx);
    assert!(record.ordering_at_scale, "fig14 ordering must hold at scale");
    assert!(record.caps_held, "cluster power caps must hold");
    tmp
}

/// `pc-trace summarize` and `pc-trace schema` output on the scale_sweep
/// traces is pinned by golden files: the schema golden covers the union
/// of every quick-sweep cell (exactly what CI's `schema --check` sees),
/// the summarize golden pins the smallest cell. The CLI is a thin
/// wrapper over `telemetry::summary`, which this exercises directly; CI
/// additionally runs the real binary against the same schema golden.
#[test]
fn scale_sweep_traces_match_goldens() {
    let tmp = traced_quick_sweep();
    let dir = tmp.join("traces/scale_sweep");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("scale_sweep trace dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().to_string())
        .filter(|n| n.ends_with(".jsonl"))
        .collect();
    names.sort();
    assert!(names.len() >= 9, "expected a trace per sweep cell, got {names:?}");
    let mut merged = String::new();
    for n in &names {
        merged.push_str(&std::fs::read_to_string(dir.join(n)).expect("read trace"));
    }
    common::check_golden("trace_schema_scale.golden", &telemetry::summary::schema(&merged));
    let smallest = std::fs::read_to_string(dir.join("04nodes-simple-uncapped.jsonl"))
        .expect("smallest cell trace");
    let s = telemetry::summary::summarize(&smallest);
    assert_eq!(s.unparsed_lines, 0, "trace must be well-formed");
    common::check_golden(
        "trace_summarize_scale.golden",
        &telemetry::summary::render_summary(&s),
    );
    let _ = std::fs::remove_dir_all(&tmp);
}
