//! Runs every experiment, regenerating all paper artifacts.
//!
//! Flags (parsed by `RunCtx::parse`, shared with every experiment
//! binary; a missing or malformed value exits with status 2):
//! * `--quick` — fast smoke-test scale (used by tests and CI).
//! * `--jobs N` — run up to N experiments (and their sweep cells)
//!   concurrently. Every experiment owns its seed, so `results/*.json`
//!   are byte-identical at any job count.
//! * `--shards N` — partition the node set of each megafleet,
//!   diurnal_sweep and obs_sweep cell across N worker threads between
//!   dispatcher ticks (intra-cell parallelism, orthogonal to `--jobs`).
//!   Results are byte-identical at any shard count.
//! * `--only a,b,c` — run only the named experiments (run_all's own
//!   flag).
//! * `--trace DIR` — export deterministic telemetry traces from the
//!   instrumented experiments (fig05, fault_sweep and the sweeps) under
//!   `DIR`, one `.jsonl` + Perfetto-loadable `.trace.json` pair per
//!   sweep cell. Traces carry only simulated timestamps, so they too
//!   are byte-identical at any job count.
//! * `--obs` — run every cluster experiment with the always-on
//!   observability plane (streaming sketches + energy-SLO burn-rate
//!   monitors); the summary table gains p99 energy-per-request and
//!   alert columns.
//! * `--sched rr|priority|cfs` — boot every experiment kernel with the
//!   named scheduling policy (default `rr`, the paper's round-robin).
//!   Calibration always runs round-robin so the shared calibration
//!   cache stays scheduler-independent; `sched_sweep` ignores this flag
//!   and sweeps all policies itself.
//!
//! Each experiment runs under its own copy of the parsed `RunCtx`; once
//! it returns, its status, wall time and the columns of its `Tally`
//! (throughput, graceful-degradation decisions, obs and elasticity
//! digests) form one row of the summary table. The process exits
//! non-zero if any experiment failed.

use experiments::output::Table;
use experiments::{runner, RunCtx, Tally};
use std::time::Instant;

/// One registered experiment: display name plus its entry point.
type Experiment = (&'static str, fn(&RunCtx));

/// Registers experiment modules under their module names.
macro_rules! registry {
    ($($m:ident),* $(,)?) => {
        &[$((stringify!($m), |c| {
            experiments::$m::run(c);
        })),*]
    };
}

/// Every experiment the harness knows, in canonical order.
const EXPERIMENTS: &[Experiment] = registry![
    coefficients, overhead, fig01, fig02, fig03, fig04, fig05, fig06, fig07, fig08, fig09,
    fig10, fig11, fig12, fig13, fig14, table1, ablations, dvfs, anomaly, fault_sweep,
    scale_sweep, chaos_sweep, drift_sweep, megafleet, obs_sweep, sched_sweep, diurnal_sweep,
];

/// Parses `--only a,b,c` (repeatable, comma-separated) from process args.
fn only_from_args() -> Option<Vec<String>> {
    let args: Vec<String> = std::env::args().collect();
    let mut names = Vec::new();
    let mut seen = false;
    for (i, a) in args.iter().enumerate() {
        let list = if let Some(v) = a.strip_prefix("--only=") {
            Some(v)
        } else if a == "--only" {
            args.get(i + 1).map(|s| s.as_str())
        } else {
            None
        };
        if let Some(list) = list {
            seen = true;
            names.extend(list.split(',').filter(|s| !s.is_empty()).map(str::to_string));
        }
    }
    seen.then_some(names)
}

fn main() {
    let ctx = RunCtx::from_args();
    let only = only_from_args();
    if let Some(names) = &only {
        for name in names {
            if !EXPERIMENTS.iter().any(|(n, _)| n == name) {
                eprintln!("error: unknown experiment `{name}` in --only");
                eprintln!(
                    "known: {}",
                    EXPERIMENTS.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| only.as_ref().is_none_or(|o| o.iter().any(|x| x == name)))
        .collect();
    // Warm the calibration caches serially before fanning out, so
    // concurrent experiments load instead of redundantly recalibrating.
    experiments::prewarm_calibrations();
    let t0 = Instant::now();
    // Each experiment runs under its own copy of the context, so its
    // tally holds exactly its own simulations' statistics.
    let ctxs: Vec<RunCtx> = selected.iter().map(|_| ctx.clone()).collect();
    let tasks: Vec<_> = selected
        .iter()
        .zip(&ctxs)
        .map(|((_, f), c)| {
            let f = *f;
            move || {
                let t = Instant::now();
                f(c);
                t.elapsed()
            }
        })
        .collect();
    let outcomes = runner::run_parallel(ctx.jobs, tasks);
    let total = t0.elapsed();
    let mut table =
        Table::new(["experiment", "status", "wall time"].into_iter().chain(Tally::COLUMNS));
    let mut failed = 0usize;
    for (((name, _), outcome), c) in selected.iter().zip(&outcomes).zip(&ctxs) {
        let columns = c.tally().columns(outcome.as_ref().ok().copied());
        let (status, wall) = match outcome {
            Ok(wall) => ("ok", format!("{wall:.2?}")),
            Err(msg) => {
                failed += 1;
                let mut msg = msg.replace('\n', " ");
                msg.truncate(60);
                ("FAILED", msg)
            }
        };
        table.row([name.to_string(), status.to_string(), wall].into_iter().chain(columns));
    }
    println!();
    println!(
        "== run_all summary: {} experiments, --jobs {}, total {total:.1?} ==",
        selected.len(),
        ctx.jobs
    );
    println!("{table}");
    eprintln!("[all experiments done in {total:.1?}]");
    if failed > 0 {
        eprintln!("error: {failed} experiment(s) failed");
        std::process::exit(1);
    }
}
