//! Run settings and work-stealing parallel execution for experiments.
//!
//! A [`RunCtx`] is the explicit state one experiment run carries: the
//! scale and the `--jobs`/`--shards`/`--trace`/`--obs`/`--sched` flags
//! going in, and a [`Tally`] of what its simulations did coming out.
//! Every experiment's `run(&RunCtx)` reads its settings from the context
//! and folds each finished outcome into it with [`RunCtx::note`]; no
//! setting or statistic lives in process-global state.
//!
//! Every experiment (and every cell of the workload × machine sweeps) is
//! an independent simulation that owns its seed, so tasks can run on any
//! worker in any order without changing a single output byte: results are
//! returned in input order and each task's RNG state is self-contained.
//! The scheduler is the simplest correct one — a shared atomic index that
//! idle workers bump to claim the next unstarted task — which is exactly
//! work stealing for identical queues.
//!
//! Determinism argument: parallelism affects only *when* a task runs and
//! on which thread, never what it computes (no time- or thread-dependent
//! inputs; the tally folds commutatively), and assembly order is the
//! input order, so `run_all --jobs N` must produce byte-identical
//! `results/*.json` for every N. An integration test enforces this.

use crate::{Scale, Tally};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The settings one experiment run is parameterised by, plus the
/// [`Tally`] its simulations report into. Shared by reference with the
/// run's worker threads.
#[derive(Debug)]
pub struct RunCtx {
    /// Experiment fidelity (`--quick`).
    pub scale: Scale,
    /// Worker threads sweep experiments fan their cells out across
    /// (`--jobs N`, default 1: serial).
    pub jobs: usize,
    /// Intra-cell shard count: how many worker threads a megafleet,
    /// diurnal_sweep or obs_sweep cell partitions its node set across
    /// ([`cluster::ClusterConfig::shards`], `--shards N`, default 1).
    /// Orthogonal to `jobs`; results are byte-identical at every value
    /// of either.
    pub shards: usize,
    /// Trace output directory (`--trace DIR`); `None` disables tracing.
    pub trace_dir: Option<PathBuf>,
    /// Runs every cluster experiment with the always-on
    /// [`cluster::ObsConfig`] (`--obs`).
    pub obs: bool,
    /// The kernel scheduling policy workload- and cluster-level
    /// experiments boot their kernels with (`--sched rr|priority|cfs`).
    /// Calibration runs always stay round-robin so the shared
    /// calibration cache is scheduler-independent.
    pub sched: ossim::SchedulerKind,
    tally: Mutex<Tally>,
}

impl Clone for RunCtx {
    fn clone(&self) -> RunCtx {
        RunCtx {
            scale: self.scale,
            jobs: self.jobs,
            shards: self.shards,
            trace_dir: self.trace_dir.clone(),
            obs: self.obs,
            sched: self.sched.clone(),
            tally: Mutex::new(self.tally()),
        }
    }
}

impl RunCtx {
    /// Default-flag settings at `scale`: serial, one shard, untraced,
    /// no obs plane, round-robin kernels, and an empty tally.
    pub fn new(scale: Scale) -> RunCtx {
        RunCtx {
            scale,
            jobs: 1,
            shards: 1,
            trace_dir: None,
            obs: false,
            sched: ossim::SchedulerKind::RoundRobin,
            tally: Mutex::new(Tally::default()),
        }
    }

    /// Parses the experiment flags out of `args` (program name
    /// excluded): `--quick`, `--obs`, and `--jobs N`, `--shards N`,
    /// `--trace DIR`, `--sched NAME`, each also as `--flag=value`.
    /// Counts of 0 clamp to 1. Arguments it does not know are left to
    /// the caller (`run_all --only`). A missing or malformed value is an
    /// error, never a silent default.
    pub fn parse(args: &[String]) -> Result<RunCtx, String> {
        let mut ctx = RunCtx::new(Scale::Full);
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f, Some(v)),
                None => (arg.as_str(), None),
            };
            if !matches!(flag, "--jobs" | "--shards" | "--trace" | "--sched") {
                match arg.as_str() {
                    "--quick" => ctx.scale = Scale::Quick,
                    "--obs" => ctx.obs = true,
                    _ => {}
                }
                continue;
            }
            let value = match inline {
                Some(v) => v,
                None => it.next().map(String::as_str).unwrap_or(""),
            };
            if value.is_empty() || value.starts_with("--") {
                return Err(format!("{flag} needs a value"));
            }
            let count = || match value.parse::<usize>() {
                Ok(n) => Ok(n.max(1)),
                Err(_) => Err(format!("{flag} expects a count, got `{value}`")),
            };
            match flag {
                "--jobs" => ctx.jobs = count()?,
                "--shards" => ctx.shards = count()?,
                "--trace" => ctx.trace_dir = Some(PathBuf::from(value)),
                _ => {
                    ctx.sched = ossim::SchedulerKind::parse(value).ok_or_else(|| {
                        format!(
                            "unknown --sched policy `{value}` (expected one of: {})",
                            ossim::SchedulerKind::ALL_NAMES.join(", ")
                        )
                    })?;
                }
            }
        }
        Ok(ctx)
    }

    /// [`RunCtx::parse`] over the process arguments; exits with status
    /// 2 on a malformed flag so a typo cannot silently run the default.
    pub fn from_args() -> RunCtx {
        let args: Vec<String> = std::env::args().skip(1).collect();
        RunCtx::parse(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Installs the kernel policy and, under `--obs`, the standard
    /// always-on obs plane on a cluster cell's config. Cell builders
    /// return default-flag configs; experiments apply their context on
    /// top. Experiments that *are about* the obs plane (obs_sweep) keep
    /// their own per-rung configs instead. The shard count is left to the
    /// capacity experiments (megafleet, diurnal_sweep, obs_sweep): on
    /// the small pipeline cells the per-tick shard barrier costs more
    /// than it saves.
    pub fn apply(&self, cfg: &mut cluster::ClusterConfig) {
        cfg.sched = vec![self.sched.clone()];
        cfg.obs = self.obs.then(cluster::ObsConfig::standard);
    }

    /// A recording telemetry handle when tracing, else a disabled one —
    /// experiments clone this into their [`workloads::RunConfig`] (or
    /// [`cluster::ClusterConfig`]) without caring whether tracing is on.
    pub fn telemetry(&self) -> telemetry::Telemetry {
        if self.trace_dir.is_some() {
            telemetry::Telemetry::recording()
        } else {
            telemetry::Telemetry::disabled()
        }
    }

    /// Folds one finished run's statistics into this run's tally.
    pub fn note<'a, O>(&self, outcome: &'a O)
    where
        Tally: From<&'a O>,
    {
        *self.tally.lock().unwrap_or_else(|e| e.into_inner()) += Tally::from(outcome);
    }

    /// A snapshot of everything noted so far.
    pub fn tally(&self) -> Tally {
        self.tally.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Writes one traced cell under `<trace dir>/<experiment>/<stem>.jsonl`
    /// plus the Perfetto-loadable `<stem>.trace.json`; a no-op when tracing
    /// is disabled or the handle recorded nothing. Failures warn but never
    /// sink the experiment.
    pub fn write_trace(&self, experiment: &str, stem: &str, tele: &telemetry::Telemetry) {
        if !tele.enabled() {
            return;
        }
        // Span-hygiene hard check: a recorded cell with dangling span ends
        // means some code path closed a span it never opened (or the track
        // bookkeeping broke). That must fail the experiment loudly, naming
        // the offender, not ship a silently malformed trace.
        let unmatched = tele.unmatched_ends_by_track();
        if !unmatched.is_empty() {
            let detail: Vec<String> =
                unmatched.iter().map(|(track, n)| format!("track {track}: {n}")).collect();
            panic!(
                "experiment `{experiment}` cell `{stem}`: unmatched span end(s) — {}",
                detail.join(", ")
            );
        }
        let Some(root) = &self.trace_dir else { return };
        let dir = root.join(experiment);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let write = |path: &Path, res: std::io::Result<()>| {
            if let Err(e) = res {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        };
        let jsonl = dir.join(format!("{stem}.jsonl"));
        write(&jsonl, tele.write_jsonl(&jsonl));
        let chrome = dir.join(format!("{stem}.trace.json"));
        write(&chrome, tele.write_chrome_trace(&chrome));
    }

    /// Runs `tasks` on up to [`RunCtx::jobs`] workers (see
    /// [`run_parallel`]) and returns their outputs in input order.
    ///
    /// # Panics
    ///
    /// Panics with "`what` failed" if any task panicked.
    pub fn run_cells<T, F>(&self, what: &str, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        run_parallel(self.jobs, tasks)
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| panic!("{what} failed: {e}"))
    }
}

/// Lowercases `s` and maps every non-alphanumeric run to a single `-`
/// (file-name-safe slugs for trace cell names).
pub fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// Runs `tasks` on up to `jobs` scoped worker threads and returns each
/// task's output **in input order**. A panicking task yields
/// `Err(panic message)` in its slot; the other tasks keep running. With
/// `jobs <= 1` the tasks run inline on the caller's thread, in order.
pub fn run_parallel<T, F>(jobs: usize, tasks: Vec<F>) -> Vec<Result<T, String>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    let slots: Vec<Mutex<Option<F>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<Result<T, String>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            if i >= n {
                break;
            }
            let task = slots[i]
                .lock()
                .expect("task slot unpoisoned")
                .take()
                .expect("each index is claimed exactly once");
            // `&*e`, not `&e`: coercing `&Box<dyn Any>` would wrap the
            // box itself as the `dyn Any` and every payload downcast
            // would miss.
            let out = catch_unwind(AssertUnwindSafe(task)).map_err(|e| panic_message(&*e));
            *results[i].lock().expect("result slot unpoisoned") = Some(out);
        }
    };
    let workers = jobs.min(n).max(1);
    if workers <= 1 {
        work();
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(work);
            }
        });
    }
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot unpoisoned")
                .expect("every task ran to completion")
        })
        .collect()
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let tasks: Vec<_> = (0..32).map(|i| move || i * 10).collect();
        for jobs in [1, 2, 7] {
            let out = run_parallel(jobs, tasks.clone());
            let values: Vec<i32> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, (0..32).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panicking_task_does_not_sink_the_rest() {
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("task two exploded")),
            Box::new(|| 3),
        ];
        let out = run_parallel(2, tasks);
        assert_eq!(out[0], Ok(1));
        assert!(out[1].as_ref().unwrap_err().contains("exploded"));
        assert_eq!(out[2], Ok(3));
    }

    #[test]
    fn zero_jobs_behaves_like_one() {
        let out = run_parallel(0, vec![|| 7]);
        assert_eq!(out, vec![Ok(7)]);
    }

    #[test]
    fn slugs_are_file_name_safe() {
        assert_eq!(slug("GAE-Vosao"), "gae-vosao");
        assert_eq!(slug("peak load"), "peak-load");
        assert_eq!(slug("dropout + glitches + tag faults"), "dropout-glitches-tag-faults");
        assert_eq!(slug("5%"), "5");
    }

    fn parse(args: &[&str]) -> Result<RunCtx, String> {
        RunCtx::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_defaults_and_every_flag() {
        let ctx = parse(&[]).unwrap();
        assert_eq!((ctx.scale, ctx.jobs, ctx.shards, ctx.obs), (Scale::Full, 1, 1, false));
        assert_eq!((ctx.trace_dir, ctx.sched), (None, ossim::SchedulerKind::RoundRobin));
        let ctx = parse(&[
            "--quick", "--jobs", "4", "--shards=2", "--trace", "out", "--obs", "--sched=cfs",
            "--only", "fig05",
        ])
        .unwrap();
        assert_eq!((ctx.scale, ctx.jobs, ctx.shards, ctx.obs), (Scale::Quick, 4, 2, true));
        assert_eq!(ctx.trace_dir, Some(PathBuf::from("out")));
        assert_eq!(ctx.sched.name(), "cfs");
        assert_eq!(parse(&["--jobs=4"]).unwrap().jobs, 4);
        assert_eq!(parse(&["--trace=t"]).unwrap().trace_dir, Some(PathBuf::from("t")));
        // Counts of zero clamp to one.
        assert_eq!(parse(&["--jobs", "0"]).unwrap().jobs, 1);
        assert_eq!(parse(&["--shards=0"]).unwrap().shards, 1);
    }

    #[test]
    fn parse_rejects_missing_and_malformed_values() {
        for args in [
            &["--jobs", "x"][..],
            &["--jobs=x"],
            &["--jobs", "-1"],
            &["--shards", "x"],
            &["--shards=2.5"],
            &["--jobs"],
            &["--shards"],
            &["--trace"],
            &["--sched"],
            &["--jobs="],
            &["--trace="],
            &["--trace", "--obs"],
            &["--jobs", "--quick"],
            &["--sched", "fifo"],
            &["--quick", "--jobs", "2", "--trace"],
        ] {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
        assert!(parse(&["--sched", "fifo"]).unwrap_err().contains("rr, priority, cfs"));
    }

    #[test]
    fn empty_task_list_is_fine() {
        let out: Vec<Result<(), String>> = run_parallel(4, Vec::<fn()>::new());
        assert!(out.is_empty());
    }
}
