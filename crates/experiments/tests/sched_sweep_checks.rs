//! Sched-sweep checks: the CI smoke cells (with a wall-time budget),
//! `--jobs`/`--shards` invariance of the record and traces, and the
//! trace goldens for `pc-trace schema` / `pc-trace summarize` on the
//! sched_sweep traces.
//!
//! Golden files live in `ci/`; regenerate them after a deliberate
//! instrumentation change with:
//!
//! ```text
//! PC_BLESS=1 cargo test --release -p experiments --test sched_sweep_checks
//! ```

mod common;

use experiments::{sched_sweep, Lab, RunCtx, Scale};
use std::path::PathBuf;
use std::time::Instant;
use workloads::WorkloadKind;

/// The CI smoke: one RSA-crypto attribution cell per scheduler at quick
/// scale must conserve energy and keep the non-RR error within the
/// sweep's bound, inside a 20 s budget. (The budget only binds in
/// release builds.)
#[test]
fn sched_smoke_within_wall_budget() {
    let mut lab = Lab::new();
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let quick = RunCtx::new(Scale::Quick);
    let secs = quick.scale.run_secs();
    let t0 = Instant::now();
    let cells: Vec<_> = sched_sweep::swept_kinds()
        .into_iter()
        .map(|kind| {
            sched_sweep::attribution_cell(
                &quick,
                kind,
                "sandybridge",
                spec.clone(),
                cal.clone(),
                WorkloadKind::RsaCrypto,
                secs,
            )
        })
        .collect();
    let elapsed = t0.elapsed();
    let rr = cells.iter().find(|c| c.sched == "rr").expect("rr cell");
    assert!(rr.picks > 0, "the rr scheduler must dispatch work");
    let bound = (2.0 * rr.error).max(sched_sweep::ERROR_FLOOR);
    for c in &cells {
        assert!(
            c.error <= sched_sweep::CLEAN_TOL,
            "{}: energy not conserved ({:.1}%)",
            c.sched,
            c.error * 100.0
        );
        assert!(
            c.error <= bound,
            "{}: attribution error {:.2}% exceeds the 2x-rr bound {:.2}%",
            c.sched,
            c.error * 100.0,
            bound * 100.0
        );
    }
    if !cfg!(debug_assertions) {
        assert!(
            elapsed.as_secs_f64() < 20.0,
            "sched smoke cells took {:.1}s — scheduler dispatch overhead regressed",
            elapsed.as_secs_f64()
        );
    }
}

/// Runs the full quick sweep with tracing into a sandbox (pre-seeded
/// with the committed calibration caches) at the given job and shard
/// counts and returns (sandbox dir, record JSON).
fn traced_quick_sweep(jobs: usize, shards: usize) -> (PathBuf, String) {
    let (tmp, mut ctx) = common::traced_sandbox(&format!("sched-golden-{jobs}-{shards}"));
    ctx.jobs = jobs;
    ctx.shards = shards;
    let record = sched_sweep::run(&ctx);
    assert!(record.attribution_bounded, "attribution bound must hold on the quick sweep");
    assert!(record.conserved, "conservation must hold under every scheduler");
    assert!(record.caps_held, "conditioning must hold under every scheduler");
    assert!(record.ordering_invariant, "fig14 ordering must be scheduler-invariant");
    let json = std::fs::read_to_string(tmp.join("results/sched_sweep.json")).expect("record file");
    (tmp, json)
}

/// The sweep is byte-identical at any `--jobs`/`--shards` combination,
/// and its traces match the committed goldens: the schema golden covers
/// the union of every attribution cell (exactly what CI's
/// `schema --check` sees), the summarize golden pins the priority
/// scheduler's Stress cell (the one exercising starvation boosts).
#[test]
fn sched_traces_match_goldens_at_any_job_count() {
    let (tmp1, serial) = traced_quick_sweep(1, 1);
    let (tmp4, fanned) = traced_quick_sweep(4, 2);
    assert_eq!(
        serial, fanned,
        "sched_sweep record must be byte-identical at any --jobs/--shards"
    );
    let dir = tmp4.join("traces/sched_sweep");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("sched_sweep trace dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().to_string())
        .filter(|n| n.ends_with(".jsonl"))
        .collect();
    names.sort();
    assert_eq!(
        names.len(),
        sched_sweep::swept_kinds().len() * WorkloadKind::ALL.len(),
        "one trace per (scheduler × workload): {names:?}"
    );
    let mut merged = String::new();
    for n in &names {
        let body = std::fs::read_to_string(dir.join(n)).expect("read trace");
        let other = std::fs::read_to_string(tmp1.join("traces/sched_sweep").join(n))
            .expect("read serial trace");
        assert_eq!(body, other, "{n} must be byte-identical at any --jobs/--shards");
        merged.push_str(&body);
    }
    common::check_golden("trace_schema_sched.golden", &telemetry::summary::schema(&merged));
    let full = std::fs::read_to_string(dir.join("priority-sandybridge-stress.jsonl"))
        .expect("priority-sandybridge-stress trace");
    let s = telemetry::summary::summarize(&full);
    assert_eq!(s.unparsed_lines, 0, "trace must be well-formed");
    common::check_golden("trace_summarize_sched.golden", &telemetry::summary::render_summary(&s));
    let _ = std::fs::remove_dir_all(&tmp1);
    let _ = std::fs::remove_dir_all(&tmp4);
}
