"""safelc benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload qbf-eq --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout; safelc is imported from `src/`.
The items of a workload run in a closed loop, each starting when the one
before it ends, in whole passes until `--seconds` have gone by.  With
`--trace 0` the last line of standard output holds the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of traced
passes, alternating with untraced ones, plus the counting pass.  The line
before it records provenance and the failures.  Both also go to
`bench/out/`, with the spans of a traced run.  `bench/README.md` lists
the workloads and metrics.
"""

import argparse
from array import array
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, Untraced  # bench/ is sys.path[0]
from speed import Speed, fresh_scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
RECURSION_LIMIT = 10_000  # as tests/conftest.py sets it
SETUPS = 5  # set-ups per run; setup_s is their median
DEFAULT_SEED = 7
HELD_OUT_SEED = 2027  # for confirming a claim on a seed it was not tuned on

# raised by a workload item for running out of a budget, not for a wrong
# answer; any other exception also fails the item and makes the run incorrect
RESOURCE_FAILURES = ("BudgetExceededError", "RecursionError")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for selfcheck.py")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def load_workloads():
    if not (ROOT / "src" / "safelc" / "__init__.py").is_file():
        sys.exit(f"error: no safelc sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # bench/ is sys.path[0]

    return workloads


def timed_setup(args, calls):
    """Import safelc and build the workload's inputs and references; the
    time is at reference speed (see speed.py)."""
    before = fresh_scale()
    start = time.perf_counter()
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, calls)
    elapsed = time.perf_counter() - start
    return workloads, wl, elapsed * (before + fresh_scale()) / 2


def child_setup_seconds(args):
    cmd = [
        sys.executable, str(Path(__file__)), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def closed_loop(wl, calls, speed, seconds=None, passes=None):
    """Run whole passes over the items, back to back, until `seconds` have
    passed or `passes` passes are done, so every run measures the same
    mix of items.  Latencies are at reference speed (see speed.py)."""
    latencies, failures = [], []  # latencies: one array per pass
    busy = raw_busy = 0.0
    attempted = 0
    start = time.perf_counter()
    while True:
        if attempted % len(wl.items) == 0:
            if passes is None and time.perf_counter() - start >= seconds:
                break
            if attempted // len(wl.items) == passes:
                break
            latencies.append(array("d"))
        item = wl.items[attempted % len(wl.items)]
        job = wl.prepare(item)
        scale = speed.scale()
        calls.begin_item(wl.label(item))
        t0 = time.perf_counter()
        try:
            wl.run(job, calls)
            error = None
        except Exception as exc:  # an item's failure must not end the run
            error = exc
        elapsed = time.perf_counter() - t0
        calls.end_item()
        # a long item outlasts the readings taken before it
        scale = (scale + speed.scale()) / 2
        raw_busy += elapsed
        busy += elapsed * scale
        attempted += 1
        if error is None:
            latencies[-1].append(elapsed * scale)
        else:
            failures.append((wl.label(item), type(error).__name__, str(error)))
    return {
        "latencies": latencies,
        "failures": failures,
        "attempted": attempted,
        "busy": busy,
        "raw_busy": raw_busy,
        "passes": attempted // len(wl.items),
        "wall": time.perf_counter() - start,
    }


def failure_summary(failures):
    """Failures per item label, with the first message seen for each."""
    out = {}
    for label, error, message in failures:
        entry = out.setdefault(label, {"count": 0, "error": error, "message": message[:200]})
        entry["count"] += 1
    return out


def git_commit():
    """HEAD's hash and whether the tree differs from it; "unknown" outside
    a git checkout."""
    if not (ROOT / ".git").exists():  # never report an enclosing repository
        return "unknown", None

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout.strip()

    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        return "unknown", None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop, setups):
    completed = sum(len(lat) for lat in loop["latencies"])
    out = {
        "setup_s": metric(statistics.median(setups), "s"),
        "items_per_s": metric(completed / loop["busy"], "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    # Each pass runs the same items, so its quantiles estimate the same
    # thing; their median over passes ignores a pass that a burst of load
    # on the machine slowed down, as the maximum of the pooled samples
    # would not.
    passes = [sorted(x * 1000 for x in lat) for lat in loop["latencies"] if lat]
    if passes:  # with no item completed there is no latency to report
        out["item_p50_ms"] = metric(
            statistics.median(statistics.median(lat) for lat in passes), "ms"
        )
        # quantiles needs two samples; one completed item is its own p99
        out["item_p99_ms"] = metric(
            statistics.median(
                statistics.quantiles(lat, n=100)[98] if len(lat) > 1 else lat[0]
                for lat in passes
            ),
            "ms",
        )
    return out


def per_layer(tracer, counts, rungs, traced_items, overhead):
    spans = tracer.self_times()
    out = {}
    for name in (
        "syntax.parse", "syntax.alpha_eq", "safety.safety_check",
        "safety.eta_long", "reduction.beta_eta_equal",
        "reduction.normalize_plain", "reduction.normalize_safe",
        "encodings.compile", "encodings.decode", "games.tree_build",
        "games.enumerate", "games.reconstruct", "games.normal_form",
        "corpus.generate",
    ):
        out[name + "_s"] = metric(spans.get(name, 0.0), "s")
    out["bench.item_self_s"] = metric(spans.get("bench.item", 0.0), "s")
    for name, value in sorted(counts.items()):
        out[name] = metric(value, "count")

    # enumeration time per occurrence visited, overall and per ladder rung
    per_rung = {}
    for _, _, item, name, start, end, work in tracer.spans:
        if name == "games.enumerate" and work:
            rung = tracer.items[item].rpartition("/r")[2]
            for key in ("all", rung):
                t, n = per_rung.get(key, (0.0, 0))
                per_rung[key] = (t + end - start, n + work)

    def us_per(key):
        t, n = per_rung.get(key, (0.0, 0))
        return t / n * 1e6 if n else 0.0

    out["games.us_per_occurrence"] = metric(us_per("all"), "us")
    for rung in rungs:
        out[f"games.us_per_occurrence.r{rung}"] = metric(us_per(str(rung)), "us")
    out["bench.traced_items"] = metric(traced_items, "count")
    out["bench.trace_overhead_frac"] = metric(overhead, "ratio")
    return out


def main(argv=None):
    args = parse_args(argv)
    sys.setrecursionlimit(RECURSION_LIMIT)

    if args.setup_only:
        print(timed_setup(args, Untraced())[2])
        return 0

    tracer = Tracer() if args.trace else None
    workloads, wl, first = timed_setup(args, tracer or Untraced())
    setups = [first]
    speed = Speed()

    if not args.trace:
        setups += [child_setup_seconds(args) for _ in range(SETUPS - 1)]
        loop = closed_loop(wl, Untraced(), speed, seconds=args.seconds)
        metrics = end_to_end(loop, setups)
    else:
        # end-to-end numbers never come from here; untraced and traced
        # passes alternate so that both see the same machine conditions
        plain, traced = [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < args.seconds:
            plain.append(closed_loop(wl, Untraced(), speed, passes=1))
            traced.append(closed_loop(wl, tracer, speed, passes=1))
        loop = {
            "failures": [f for t in traced for f in t["failures"]],
            "attempted": sum(t["attempted"] for t in traced),
            "raw_busy": sum(t["raw_busy"] for t in traced),
            "passes": len(traced),
            "latencies": [lat for t in traced for lat in t["latencies"]],
        }
        overhead = sum(t["wall"] for t in traced) / sum(p["wall"] for p in plain) - 1
        metrics = per_layer(
            tracer, wl.counters(), workloads.QbfLadder.games_rungs,
            loop["attempted"], overhead,
        )

    failures = loop["failures"]
    correct = all(error in RESOURCE_FAILURES for _, error, _ in failures)
    result = {
        "correct": correct,
        "attempted": loop["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }
    commit, dirty = git_commit()
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "recursion_limit": sys.getrecursionlimit(),
        "items": len(wl.items),
        "passes": loop["passes"],
        "latency_samples": sum(len(lat) for lat in loop["latencies"]),
        "failed_frac": len(failures) / loop["attempted"],
        "failures": failure_summary(failures),
        "setup_samples_s": setups,
        "speed_reading_median_s": statistics.median(speed.readings),
        "raw_busy_s": loop["raw_busy"],
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(
        json.dumps({"provenance": provenance, "result": result}, indent=1) + "\n"
    )
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl.gz")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
