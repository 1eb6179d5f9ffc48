#!/usr/bin/env python3
"""Runs one workload of the power-containers benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` Rust package (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then repeats the workload in
fresh processes, each a few timed set-ups plus a few timed simulations,
for about S seconds. Every simulation checks its outputs; all simulations
of one seed must give the same outcome digest. Every fleet-steady run also
checks the committed results/megafleet.json row, from one repetition at
seed 42.

--trace 0 prints the end-to-end metrics. Right before each repetition a
short process times the host-speed gauge (perfbench/src/gauge.rs), a fixed
computation that uses none of the repository's code. A host time is the
mean of its samples over the run, times GAUGE_NOMINAL_S over the mean
gauge sample of the run. Other tenants of a shared host slow it down by
up to half for minutes at a time; the gauge slows down with it, so the
rescaled times follow the program rather than the host (see METRICS.md).

--trace 1 prints the per-layer metrics. It repeats the workload untraced
(alternating with the variant that prices shards or the obs plane), then
runs it once more with the program's recording telemetry sink and the
benchmark's own spans on, and writes the spans to
perfbench/out/spans-<workload>-seed<N>.json.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is the
run stamp (rev, nproc, load average at start and end, seed). The exit code
is 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from statistics import mean, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet-steady", "fleet-diurnal", "node-recal")
# The variant the traced pass alternates with, to price one mechanism.
ALT_VARIANT = {"fleet-steady": "sharded", "fleet-diurnal": "no-obs", "node-recal": None}
MIN_REPS = 3
# Set-ups and simulations per process of the end-to-end pass, so a run
# yields more timing samples than processes: (setups, runs). The traced
# pass runs one of each, to fit its alternating variant into the run.
PER_PROC = {"fleet-steady": (1, 3), "fleet-diurnal": (1, 1), "node-recal": (2, 3)}
# Gauge samples before each repetition, and the gauge's time on the host
# the rescaled times refer to (about its mean on a quiet 2-vCPU Xeon VM).
GAUGE_SAMPLES = 3
GAUGE_NOMINAL_S = 0.1
REP_TIMEOUT_S = 150
# The seed `megafleet` wrote its committed row with.
ROW_SEED = 42


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def declared_metrics():
    """(end-to-end units, per-layer units) as BENCHMARK.json declares them."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        die("building perfbench failed")
    return os.path.join(target, "release", "perfbench")


def gauge(exe):
    """GAUGE_SAMPLES timings of the host-speed gauge, from a fresh process."""
    out = subprocess.run([exe, "gauge", "--samples", str(GAUGE_SAMPLES)], cwd=ROOT,
                         stdout=subprocess.PIPE, timeout=REP_TIMEOUT_S)
    if out.returncode != 0:
        die(f"the gauge exited with {out.returncode}")
    return json.loads(out.stdout.decode().strip().splitlines()[-1])["gauge_s"]


def rep(exe, workload, seed, variant="standard", shape=(1, 1), trace_out=None):
    """One repetition in a fresh process of `shape` = (set-ups, simulations),
    right after a gauge: its JSON line plus the gauge's samples, the
    process's peak resident memory and host wall time."""
    gauge_s = gauge(exe)
    cmd = [exe, "rep", "--workload", workload, "--seed", str(seed), "--variant", variant,
           "--setups", str(shape[0]), "--runs", str(shape[1])]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PC_RESULTS_DIR=os.path.join(ROOT, "results"))
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    timer = threading.Timer(REP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        return {"failures": [f"{' '.join(cmd[1:])} exited with {proc.returncode}"]}
    r = json.loads(out.decode().strip().splitlines()[-1])
    r["gauge_s"] = gauge_s
    r["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    r["proc_s"] = wall
    return r


def repeat(exe, workload, seed, seconds, trace):
    """Repetitions for about `seconds` (at least MIN_REPS); in the traced
    pass, alternating with the workload's ALT_VARIANT."""
    reps, alts = [], []
    variant = ALT_VARIANT[workload] if trace else None
    shape = (1, 1) if trace else PER_PROC[workload]
    t0 = time.monotonic()
    while True:
        reps.append(rep(exe, workload, seed, shape=shape))
        if variant:
            alts.append(rep(exe, workload, seed, variant, shape))
        n, elapsed = len(reps), time.monotonic() - t0
        if n >= MIN_REPS and elapsed * (n + 1) / n > seconds:
            return reps, alts


def source_rev():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    # Outside git: a digest of the sources the benchmark builds.
    h = hashlib.sha256()
    for top in ("crates", "perfbench", "vendored", "Cargo.lock"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path)
            if not {"out", "target", "__pycache__"} & set(os.path.relpath(d, ROOT).split(os.sep))
            for f in fs)
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def committed_row():
    with open(os.path.join(ROOT, "results", "megafleet.json")) as f:
        rows = json.load(f)["rows"]
    return next(r for r in rows if r["nodes"] == 100 and r["target_requests"] == 100_000)


def scale(reps):
    """The factor that rescales host times measured in `reps`:
    GAUGE_NOMINAL_S over their mean gauge sample."""
    return GAUGE_NOMINAL_S / mean(t for r in reps for t in r["gauge_s"])


def host_time(reps, key="wall_s"):
    """The mean host-time sample `key` of `reps`, rescaled by their gauge."""
    return mean(t for r in reps for t in r[key]) * scale(reps)


def e2e_metrics(workload, reps):
    first = reps[0]
    return {
        "setup_s": host_time(reps, "setup_s"),
        "wall_s": host_time(reps),
        "req_per_s": first["completed"] / host_time(reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        "ok_frac": 1.0 - first["failed"] / first["dispatched"],
        "attr_err_pct": 100.0 * first["attr_err"],
        "j_per_req": first["j_per_req"],
    }


def layer_metrics(workload, reps, alts, tr):
    c, tr_scale = tr["counts"], scale([tr])

    def g(key):
        return float(c.get(key, 0.0))

    def host(key):
        """A host time the traced repetition measured, rescaled."""
        return g(key) * tr_scale

    wall = host_time(reps)
    alt_wall = host_time(alts) if alts else 0.0
    ctx, pmu, msgs = g("tele.kernel.ctx_switches"), g("tele.kernel.pmu_irqs"), g("ossim.messages")
    run_until_s = host("ossim.run_until_s")
    fallbacks, scans = g("tele.degrade.align_fallbacks"), g("tele.align.scans") + g("tele.degrade.align_fallbacks")
    rejects, refits = g("tele.degrade.refits_rejected"), g("tele.recal.refits") + g("tele.degrade.refits_rejected")
    ticks, decisions = g("cluster.ticks"), g("cluster.decisions")
    return {
        "workloads.calibrate_s": host_time(reps, "calibrate_s"),
        "workloads.traffic_ms": host("workloads.traffic_ms"),
        "workloads.arrivals": g("workloads.arrivals"),
        "ossim.slices": g("ossim.slices"),
        "ossim.run_until_ms.p50": host("ossim.run_until_ms.p50"),
        "ossim.run_until_ms.p99": host("ossim.run_until_ms.p99"),
        "ossim.ctx_switches": ctx,
        "ossim.pmu_irqs": pmu,
        "ossim.messages": msgs,
        "ossim.sched_preempts": g("tele.sched.preempts"),
        "ossim.ns_per_event": run_until_s * 1e9 / (ctx + pmu + msgs) if run_until_s else 0.0,
        "hwsim.core_util": g("hwsim.core_util"),
        "core.attr_samples": g("tele.attr.samples"),
        "core.maintenance_ops": g("core.maintenance_ops"),
        "core.align_scans": scans,
        "core.align_fallback_frac": fallbacks / scans if scans else 0.0,
        "core.refits": refits,
        "core.refit_reject_frac": rejects / refits if refits else 0.0,
        "core.align_scan_us": host("core.align_scan_us"),
        "core.refit_us": host("core.refit_us"),
        "core.align_refit_share": (scans * host("core.align_scan_us") + refits * host("core.refit_us")) * 1e-6 / wall,
        "cluster.us_per_tick": wall * 1e6 / ticks if ticks else 0.0,
        "cluster.us_per_request": wall * 1e6 / tr["dispatched"] if ticks else 0.0,
        "cluster.active_node_frac": g("cluster.active_node_frac"),
        "cluster.shard_speedup": wall / alt_wall if workload == "fleet-steady" else 0.0,
        "cluster.decisions": decisions,
        "cluster.rerouted": g("cluster.rerouted"),
        "cluster.retried": g("cluster.retried"),
        "cluster.retry_frac": g("cluster.retried") / decisions if decisions else 0.0,
        "cluster.crashes": g("cluster.crashes"),
        "cluster.checkpoints": g("cluster.checkpoints"),
        "cluster.lost_in_crash": g("cluster.lost_in_crash"),
        "cluster.autoscale_evals": g("cluster.autoscale_evals"),
        "cluster.scale_outs": g("cluster.scale_outs"),
        "cluster.scale_ins": g("cluster.scale_ins"),
        "telemetry.events": g("telemetry.events"),
        "telemetry.overhead_frac": host_time([tr]) / wall - 1.0,
        "obs.alerts": g("obs.alerts"),
        "obs.overhead_frac": wall / alt_wall - 1.0 if workload == "fleet-diurnal" else 0.0,
        "trace.span_coverage": tr["span_root_s"] / tr["proc_s"],
    }


def traced_checks(workload, tr):
    """Cross-checks between the traced repetition's telemetry and its outcome."""
    c, bad = tr["counts"], []
    if workload == "fleet-diurnal" and c.get("workloads.arrivals") != tr["dispatched"]:
        bad.append(f"TrafficGen regenerated {c.get('workloads.arrivals')} arrivals, run offered {tr['dispatched']}")
    if workload == "node-recal":
        for tele, kernel in (("tele.kernel.ctx_switches", "ossim.ctx_switches"),
                             ("tele.kernel.pmu_irqs", "ossim.pmu_irqs"),
                             ("tele.attr.samples", "core.maintenance_ops"),
                             ("tele.recal.refits", "core.refits_accepted"),
                             ("tele.degrade.align_fallbacks", "core.align_fallbacks")):
            if c.get(tele) != c.get(kernel):
                bad.append(f"telemetry {tele} = {c.get(tele)} but outcome {kernel} = {c.get(kernel)}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")
    e2e_units, layer_units = declared_metrics()
    stamp = {"rev": source_rev(), "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
             "seed": args.seed, "workload": args.workload, "trace": args.trace}
    exe = build()

    wl, seed = args.workload, args.seed
    reps, alts = repeat(exe, wl, seed, args.seconds, args.trace)
    runs = reps + alts
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans = os.path.join(HERE, "out", f"spans-{wl}-seed{seed}.json")
        traced = rep(exe, wl, seed, trace_out=spans)
        runs.append(traced)
    # megafleet wrote its row at ROW_SEED from the committed calibrations.
    row_check = wl == "fleet-steady"
    row_rep = rep(exe, wl, ROW_SEED, "committed-cal") if row_check else {}
    attempted = len(runs) + row_check

    problems = [f for r in runs + [row_rep] for f in r.get("failures", [])]
    if not problems:
        digests = {r["digest"] for r in runs}
        if len(digests) != 1:
            problems.append(f"repetitions of seed {seed} disagree: digests {sorted(digests)}")
        if row_check:
            row = committed_row()
            got = (row_rep["dispatched"], row_rep["completed"], row_rep["j_per_req"])
            want = (row["dispatched"], row["completed"], row["energy_per_req_j"])
            if got != want:
                problems.append(f"megafleet row: got {got}, committed {want}")
            timed = (reps[0]["dispatched"], reps[0]["completed"])
            if seed == ROW_SEED and timed != want[:2]:
                problems.append(f"megafleet row: timed runs got {timed}, committed {want[:2]}")
        if args.trace:
            problems += traced_checks(wl, traced)

    if args.trace and not problems:
        metrics = layer_metrics(wl, reps, alts, traced)
        units = layer_units
    elif not problems:
        metrics = e2e_metrics(wl, reps)
        units = e2e_units
    else:
        metrics, units = {}, {}
    if not problems and set(metrics) != set(units):
        problems.append(f"emitted metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")

    for p in problems:
        print(f"run.py: check failed: {p}", file=sys.stderr)
    correct = not problems
    stamp["loadavg_end"] = os.getloadavg()
    stamp["wall_s"] = [round(t, 4) for r in reps for t in r.get("wall_s", [])]
    stamp["setup_s"] = [round(t, 4) for r in reps for t in r.get("setup_s", [])]
    stamp["gauge_s"] = [round(t, 4) for r in reps for t in r.get("gauge_s", [])]
    stamp["peak_rss_mb"] = [round(r["peak_rss_mb"], 1) for r in reps if "peak_rss_mb" in r]
    print("stamp " + json.dumps(stamp))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()} if correct else {},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
