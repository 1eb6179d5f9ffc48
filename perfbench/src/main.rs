//! One benchmark repetition: set a workload up, run it, check it, and
//! print one JSON line of timings, counts and check failures.
//!
//! ```text
//! perfbench rep --workload NAME --seed N [--variant standard|sharded|no-obs|committed-cal]
//!               [--setups N] [--runs N] [--trace-out FILE]
//! perfbench gauge --samples N
//! ```
//!
//! Set-up runs `--setups` times (default 1), each from scratch, and the
//! last one is simulated `--runs` times (default 1); every set-up and
//! simulation time is printed, and every simulation is checked.
//!
//! `gauge` times the host-speed gauge ([`perfbench::gauge`]) `N` times.
//!
//! `--trace-out` turns on the program's recording telemetry sink and the
//! benchmark's own spans, and writes the span tree to FILE when the run
//! ends. `perfbench/run.py` drives repetitions and aggregates them.

use perfbench::gauge::gauge_secs;
use perfbench::spans::Spans;
use perfbench::{
    facility_probe, report, run, setup, traffic_probe, Outcome, Plan, Size, Variant, Workload,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Timed calls per probe of the alignment and refit entry points.
const PROBE_CALLS: usize = 201;

/// Telemetry counters the traced repetition reports.
const COUNTERS: [&str; 8] = [
    "attr.samples",
    "align.scans",
    "degrade.align_fallbacks",
    "recal.refits",
    "degrade.refits_rejected",
    "kernel.ctx_switches",
    "kernel.pmu_irqs",
    "sched.preempts",
];

struct Args {
    workload: Workload,
    seed: u64,
    variant: Variant,
    setups: usize,
    runs: usize,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) != Some("rep") {
        return Err(
            "usage: perfbench rep --workload NAME --seed N [--variant V] [--setups N] [--runs N] \
             [--trace-out FILE]"
                .into(),
        );
    }
    let (mut workload, mut seed, mut variant, mut trace_out) =
        (None, None, Variant::Standard, None);
    let (mut setups, mut runs) = (1, 1);
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--variant" => {
                let v = value()?;
                variant = Variant::parse(&v).ok_or(format!("unknown variant {v}"))?;
            }
            "--setups" => setups = count(flag, &value()?)?,
            "--runs" => runs = count(flag, &value()?)?,
            "--trace-out" => trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if trace_out.is_some() && runs > 1 {
        return Err("--trace-out traces one simulation; drop --runs".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        variant,
        setups,
        runs,
        trace_out,
    })
}

/// A count of at least one.
fn count(flag: &str, v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "{flag} needs a whole number of at least 1, not {v}"
        )),
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[i]
}

/// A JSON number; non-finite values become `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// `perfbench gauge --samples N`: prints the gauge's times as one JSON line.
fn gauge_main(argv: &[String]) -> Result<(), String> {
    let samples = match argv {
        [flag, n] if flag == "--samples" => count(flag, n)?,
        _ => return Err("usage: perfbench gauge --samples N".into()),
    };
    let secs: Vec<String> = (0..samples).map(|_| num(gauge_secs())).collect();
    println!("{{\"gauge_s\": [{}]}}", secs.join(", "));
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("gauge") {
        if let Err(e) = gauge_main(&argv[1..]) {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let traced = args.trace_out.is_some();
    let mut s = Spans::new(traced);
    let tele = if traced {
        telemetry::Telemetry::recording()
    } else {
        telemetry::Telemetry::disabled()
    };
    let mut out = String::new();
    let mut json = |key: &str, value: String| {
        let sep = if out.is_empty() { "{" } else { ", " };
        let _ = write!(out, "{sep}\"{key}\": {value}");
    };
    json("workload", format!("\"{}\"", args.workload.name()));
    json("seed", args.seed.to_string());

    s.span("rep", |s| {
        let (mut setup_s, mut calibrate_s) = (Vec::new(), Vec::new());
        let mut prep = None;
        for _ in 0..args.setups {
            drop(prep.take());
            let t0 = Instant::now();
            let p = setup(args.workload, Size::Full, args.seed, args.variant, s);
            setup_s.push(num(t0.elapsed().as_secs_f64()));
            calibrate_s.push(num(p.calibrate_s));
            prep = Some(p);
        }
        let mut prep = prep.expect("at least one set-up");
        json("setup_s", format!("[{}]", setup_s.join(", ")));
        json("calibrate_s", format!("[{}]", calibrate_s.join(", ")));
        match &mut prep.plan {
            Plan::Fleet(cfg) => cfg.telemetry = tele.clone(),
            Plan::Node(cfg) => cfg.telemetry = tele.clone(),
        }

        // Every simulation is timed and checked; the last one is reported.
        let (mut wall_s, mut failures, mut digests) = (Vec::new(), Vec::new(), Vec::new());
        let (outcome, r) = loop {
            let t0 = Instant::now();
            let outcome = s.span("run", |s| run(&prep, s));
            wall_s.push(num(t0.elapsed().as_secs_f64()));
            let r = s.span("check", |_| report(&prep, &outcome));
            failures.extend(r.failures.iter().map(|f| format!("{f:?}")));
            digests.push(r.digest);
            if wall_s.len() == args.runs {
                break (outcome, r);
            }
        };
        if digests.iter().any(|&d| d != r.digest) {
            failures.push(format!(
                "{:?}",
                format!("runs of one set-up disagree: digests {digests:016x?}")
            ));
        }
        json("wall_s", format!("[{}]", wall_s.join(", ")));
        json("dispatched", r.dispatched.to_string());
        json("completed", r.completed.to_string());
        json("failed", r.failed.to_string());
        json("in_flight", r.in_flight.to_string());
        json("attr_err", num(r.attr_err));
        json("j_per_req", num(r.j_per_req));
        json("digest", format!("\"{:016x}\"", r.digest));
        json("failures", format!("[{}]", failures.join(", ")));
        let mut counts: Vec<String> = r
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
            .collect();

        if traced {
            let snap = tele.snapshot();
            for name in COUNTERS {
                counts.push(format!(
                    "\"tele.{name}\": {}",
                    snap.counter(name).unwrap_or(0)
                ));
            }
            counts.push(format!("\"telemetry.events\": {}", tele.event_count()));
            s.span("probe", |s| match (&prep.plan, &outcome) {
                (Plan::Fleet(cfg), _) => {
                    if let Some((arrivals, secs)) =
                        s.span("workloads.traffic_gen", |_| traffic_probe(cfg))
                    {
                        counts.push(format!("\"workloads.arrivals\": {arrivals}"));
                        counts.push(format!("\"workloads.traffic_ms\": {}", num(secs * 1e3)));
                    }
                }
                (Plan::Node(_), Outcome::Node(o)) => {
                    let state = o.facility.borrow();
                    let probe = s.span("core.align_refit", |_| {
                        facility_probe(&state, &prep.cals[0], PROBE_CALLS)
                    });
                    if let Some((align_us, refit_us)) = probe {
                        counts.push(format!("\"core.align_scan_us\": {}", num(align_us)));
                        counts.push(format!("\"core.refit_us\": {}", num(refit_us)));
                    }
                }
                _ => unreachable!("outcome kind follows the plan"),
            });
            let mut slices = s.durations("ossim.run_until");
            counts.push(format!("\"ossim.slices\": {}", slices.len()));
            counts.push(format!(
                "\"ossim.run_until_s\": {}",
                num(slices.iter().sum())
            ));
            slices.sort_by(f64::total_cmp);
            counts.push(format!(
                "\"ossim.run_until_ms.p50\": {}",
                num(quantile(&slices, 0.50) * 1e3)
            ));
            counts.push(format!(
                "\"ossim.run_until_ms.p99\": {}",
                num(quantile(&slices, 0.99) * 1e3)
            ));
        }
        json("counts", format!("{{{}}}", counts.join(", ")));
        s.span("teardown", |_| {
            drop(outcome);
            drop(prep);
            tele.reset();
        });
    });

    if let Some(path) = &args.trace_out {
        let run_id = format!(
            "{}-seed{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        );
        if let Err(e) = std::fs::write(path, s.to_json(&run_id)) {
            eprintln!("perfbench: writing {path}: {e}");
            std::process::exit(1);
        }
        json("span_root_s", num(s.spans()[0].secs()));
    }
    out.push('}');
    println!("{out}");
}
