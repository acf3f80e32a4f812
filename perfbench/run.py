"""Benchmark of tddgeom: one named workload, timed end to end.

    python3 perfbench/run.py --workload analytic-curves --seed 1 --seconds 1 --trace 0
    python3 perfbench/run.py --self-test [--workload ase]

Run from the root of a checkout.  Every round and every set-up sample is
a fresh child process (``child.py``), so the package's caches start
empty, as they do for each ``tddgeom run``.  Rounds repeat until
``--seconds`` have passed, and at least one runs.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics setup_s, wall_s and peak_rss_mb (medians
over the run's samples).  With ``--trace 1`` one round runs with spans
around every operation, then the per-layer probes run in a fresh
process, and the last line carries the per-layer metrics.  Spans,
per-round figures and check results go to ``.perfbench/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("analytic-curves", "ase", "monte-carlo")
# set-up-only processes per run, besides the set-up of each round
SETUP_SAMPLES = 6
# every child must end within this many seconds of the run's start
DEADLINE_S = 170.0


class ChildFailed(Exception):
    """A child process failed or ran out of time; the run prints no result."""


def child_env():
    """Numerical thread pools capped at the machine's cores, at most 2."""
    env = dict(os.environ)
    threads = str(min(2, os.cpu_count() or 1))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    return env


def spawn(mode, workload, seed, deadline, trace=False):
    """Run child.py in ``mode`` and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"no time left for the {mode} process")
    cmd = [sys.executable, CHILD, mode, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], stdout=subprocess.PIPE,
                              env=child_env(), cwd=ROOT, timeout=remaining, text=True)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process passed the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _write(name, data):
    with open(os.path.join(WORKDIR, name), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def _report_checks(rounds):
    correct = True
    for r in rounds:
        for name, passed, detail in r["checks"]:
            correct &= passed
            if not passed:
                print(f"perfbench: check {name} failed: {detail}", file=sys.stderr)
        for failure in r["failures"]:
            print(f"perfbench: operation failed: {failure}", file=sys.stderr)
    return correct


def _untraced_walls(workload):
    """wall_s of the untraced runs of ``workload`` recorded in this checkout."""
    walls = []
    for name in os.listdir(WORKDIR):
        if name.startswith(f"result-{workload}-") and name.endswith("-trace0.json"):
            with open(os.path.join(WORKDIR, name), encoding="utf-8") as fh:
                walls += [r["wall_s"] for r in json.load(fh)["rounds"]]
    return walls


def measure(workload, seed, seconds, deadline):
    setups = [spawn("setup", workload, seed, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(spawn("round", workload, seed, deadline))
    setups += [r["setup_s"] for r in rounds]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(r["wall_s"] for r in rounds), "s"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    _write(f"result-{workload}-seed{seed}-trace0.json",
           {"workload": workload, "seed": seed, "setups_s": setups, "rounds": rounds,
            "metrics": metrics})
    for r in rounds:
        print(f"perfbench: {workload} round wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
              f"set-up {r['setup_s']:.3f} s, peak rss {r['peak_rss_mb']:.1f} MB", file=sys.stderr)
    return {"correct": _report_checks(rounds),
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds), "metrics": metrics}


def trace(workload, seed, deadline):
    traced = spawn("round", workload, seed, deadline, trace=True)
    probed = spawn("probes", workload, seed, deadline)
    overhead = {"traced_wall_s": traced["wall_s"], "traced_cpu_s": traced["cpu_s"],
                "round_bookkeeping_s": traced["bookkeeping_s"],
                "round_bookkeeping_share": traced["bookkeeping_s"] / traced["wall_s"],
                "probe_bookkeeping_s": probed["bookkeeping_s"]}
    walls = _untraced_walls(workload)
    if walls:
        untraced = statistics.median(walls)
        overhead.update(untraced_wall_s_median=untraced, untraced_rounds=len(walls),
                        traced_over_untraced=traced["wall_s"] / untraced - 1.0)
    for item in probed["missing"]:
        print(f"perfbench: missing probe {item}", file=sys.stderr)
    for item in probed["failures"]:
        print(f"perfbench: probe failed: {item}", file=sys.stderr)
    _write(f"trace-{workload}-seed{seed}.json",
           {"workload": workload, "seed": seed, "overhead": overhead,
            "checks": traced["checks"], "missing": probed["missing"],
            "round_spans": traced["spans"], "probe_spans": probed["spans"],
            "metrics": probed["metrics"]})
    print(f"perfbench: traced {workload} round {traced['wall_s']:.3f} s, tracer bookkeeping "
          f"{traced['bookkeeping_s'] * 1e3:.3f} ms"
          + (f", {100 * overhead['traced_over_untraced']:+.1f}% against the median untraced "
             f"wall_s of {overhead['untraced_rounds']} rounds" if walls else ""), file=sys.stderr)
    return {"correct": _report_checks([traced]),
            "attempted": traced["attempted"] + probed["attempted"],
            "failed": traced["failed"] + probed["failed"], "metrics": probed["metrics"]}


def self_test(workloads, seed):
    deadline = time.monotonic() + 3600.0
    passed = True
    for workload in workloads:
        result = spawn("self-test", workload, seed, deadline)
        print(f"== {workload}")
        print("\n".join(result["lines"]))
        passed &= result["passed"]
    print("self-test passed" if passed else "self-test FAILED")
    return 0 if passed else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that every correctness check rejects a perturbed output")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isdir(os.path.join(ROOT, "src", "tddgeom")):
        print(f"perfbench: no tddgeom sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        if args.self_test:
            return self_test([args.workload] if args.workload else WORKLOADS, args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        deadline = time.monotonic() + DEADLINE_S
        if args.trace:
            result = trace(args.workload, args.seed, deadline)
        else:
            result = measure(args.workload, args.seed, args.seconds, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
