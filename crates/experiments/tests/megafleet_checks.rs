//! Megafleet checks: the CI smoke cell (100 nodes × 10⁵ requests under
//! a wall budget), shard invariance of the full experiment record, and
//! the trace goldens for `pc-trace summarize` / `pc-trace schema` on
//! the megafleet traces.
//!
//! Golden files live in `ci/`; regenerate them after a deliberate
//! instrumentation change with:
//!
//! ```text
//! PC_BLESS=1 cargo test --release -p experiments --test megafleet_checks
//! ```

mod common;

use cluster::{run_cluster, SimpleBalance};
use experiments::{megafleet, Lab};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The CI smoke cell is exactly the issue's smoke grid point: 100 nodes
/// serving 10⁵ requests, conservation exact, inside a 30 s wall budget.
/// (The budget only binds in release builds — CI runs this under
/// `cargo test --release`.)
#[test]
fn smoke_cell_100_nodes_within_wall_budget() {
    // Calibration is warmed outside the timed region; the budget covers
    // the simulation itself.
    let mut lab = Lab::new();
    let cfg = megafleet::cell_config(100, 100_000);
    let cals = megafleet::cell_calibrations(&mut lab, &cfg);
    let t0 = Instant::now();
    let outcome = run_cluster(&mut SimpleBalance::new(), &cfg, &cals);
    let elapsed = t0.elapsed();
    megafleet::assert_cell_conserved("megafleet smoke 100x100000", &outcome);
    assert!(
        outcome.dispatched >= 100_000,
        "cell must offer its target load, got {}",
        outcome.dispatched
    );
    assert_eq!(outcome.dropped, 0, "healthy cell must not drop requests");
    if !cfg!(debug_assertions) {
        assert!(
            elapsed.as_secs_f64() < 30.0,
            "100-node smoke cell took {:.1}s — dispatcher throughput regressed",
            elapsed.as_secs_f64()
        );
    }
}

/// Runs the quick megafleet sweep with tracing into a sandbox
/// (pre-seeded with the committed calibration caches) at the given
/// shard count; returns the sandbox root.
fn traced_quick_sweep(shards: usize) -> PathBuf {
    let (tmp, mut ctx) = common::traced_sandbox(&format!("megafleet-golden-{shards}"));
    ctx.shards = shards;
    let record = megafleet::run(&ctx);
    assert!(record.conserved, "megafleet cells must conserve");
    assert!(record.largest_dispatched >= 100_000);
    tmp
}

/// The full experiment — records and telemetry traces — must be
/// byte-identical whether cells run serially or sharded 4 ways, and the
/// trace CLI output is pinned by goldens over the traced (smallest)
/// cell: schema (exactly what CI's `schema --check` sees) and
/// summarize.
#[test]
fn megafleet_record_and_traces_shard_invariant_and_match_goldens() {
    // Serialized against other golden tests via the results-dir env var:
    // each sandbox sets PC_RESULTS_DIR before running, so keep the two
    // sweeps inside one test body.
    let serial = traced_quick_sweep(1);
    let sharded = traced_quick_sweep(4);
    let record = |root: &Path| {
        std::fs::read(root.join("results/megafleet.json")).expect("megafleet record")
    };
    assert_eq!(
        record(&serial),
        record(&sharded),
        "megafleet.json differs between --shards 1 and --shards 4"
    );
    let trace_dir = |root: &Path| root.join("traces/megafleet");
    let mut names: Vec<String> = std::fs::read_dir(trace_dir(&serial))
        .expect("megafleet trace dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().to_string())
        .filter(|n| n.ends_with(".jsonl"))
        .collect();
    names.sort();
    // Only the grid's smallest cell is traced (a recording sink holds
    // every event in memory; the megacells would emit gigabytes).
    assert_eq!(names.len(), 1, "expected the smallest cell's trace, got {names:?}");
    let mut merged = String::new();
    for n in &names {
        let a = std::fs::read_to_string(trace_dir(&serial).join(n)).expect("serial trace");
        let b = std::fs::read_to_string(trace_dir(&sharded).join(n)).expect("sharded trace");
        assert_eq!(a, b, "trace {n} differs between --shards 1 and --shards 4");
        merged.push_str(&a);
    }
    common::check_golden("trace_schema_megafleet.golden", &telemetry::summary::schema(&merged));
    let smallest =
        std::fs::read_to_string(trace_dir(&serial).join(&names[0])).expect("smallest cell trace");
    let s = telemetry::summary::summarize(&smallest);
    assert_eq!(s.unparsed_lines, 0, "trace must be well-formed");
    common::check_golden(
        "trace_summarize_megafleet.golden",
        &telemetry::summary::render_summary(&s),
    );
    let _ = std::fs::remove_dir_all(&serial);
    let _ = std::fs::remove_dir_all(&sharded);
}
