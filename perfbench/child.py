"""One measured process of the benchmark.

``run.py`` starts this script once per set-up sample, round or probe
pass, so every round begins with empty ``tddgeom`` caches, as a
``tddgeom run`` invocation does.  It prints one JSON object as the last
line of its standard output.

Modes:
  setup     import tddgeom and resolve the workload's configs, then stop
  round     run one round of the workload, then check its outputs
  probes    run the per-layer probes with tracing on
  self-test feed every check of the workload a perturbed copy of the
            output it guards, and see each rejected
"""

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time

import numpy as np

import checks
import probes
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")


def import_tddgeom():
    """The package from this checkout's sources, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "tddgeom", "__init__.py")):
        sys.exit(f"perfbench: no tddgeom sources under {SRC}")
    sys.path.insert(0, SRC)
    import tddgeom

    return tddgeom


class Tracer:
    """Spans (name, layer, start, end, parent, values) held in memory.

    ``enabled=False`` records nothing.  ``bookkeeping_s`` is the time
    spent inside the tracer itself, the tracing overhead of a run.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self.bookkeeping_s = 0.0
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name, layer):
        if not self.enabled:
            yield {}
            return
        t0 = time.perf_counter()
        record = {"id": len(self.spans), "name": name, "layer": layer,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": t0 - self._origin}
        self.spans.append(record)
        self._stack.append(record["id"])
        self.bookkeeping_s += time.perf_counter() - t0
        try:
            yield record
        finally:
            t1 = time.perf_counter()
            record["end"] = t1 - self._origin
            self._stack.pop()
            self.bookkeeping_s += time.perf_counter() - t1


def summarize(value):
    """A JSON-friendly copy of an operation's values; long arrays are
    kept as their size, mean and range."""
    if isinstance(value, dict):
        return {str(k): summarize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        arr = np.asarray(value)
        if arr.dtype.kind in "fiu" and arr.size > 64:
            return {"n": int(arr.size), "mean": float(arr.mean()),
                    "min": float(arr.min()), "max": float(arr.max())}
        return [summarize(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _resolve(tg, workload, seed):
    ops = workloads.operations(workload, seed)
    return [(op, tg.config_from_dict(op.config) if op.config else None) for op in ops]


def _run_op(tg, op, cfg, outdir):
    """Run one operation; returns (done, outcome, failure)."""
    try:
        outcome = tg.run(cfg, out_dir=outdir, label=op.label) if cfg is not None else op.call(tg)
    except Exception as exc:  # an operation's failure is counted, not fatal
        name = type(exc).__name__
        if op.raises == name:
            return True, {"raised": name}, None
        return False, {"raised": name}, f"{op.label}: {name}: {exc}"
    if op.raises:
        return False, {"raised": None}, f"{op.label}: returned instead of raising {op.raises}"
    return True, outcome, None


def _outputs(outcome):
    """An operation's values: a direct call's dict, or its CSV read back."""
    return outcome if isinstance(outcome, dict) else workloads.read_csv(outcome)


def _check_inputs(tg, workload, resolved, outcomes, outdir):
    """The outputs of a round and the references its checks compare against."""
    out = {op.label: _outputs(outcome) for op, outcome in outcomes}
    if workload == "analytic-curves":
        out["omega"] = {"b": list(checks.OMEGA_B), "value": [tg.omega(b) for b in checks.OMEGA_B]}
    configs = {op.label: cfg for op, cfg in resolved}

    def rerun(label):
        return _outputs(tg.run(configs[label], out_dir=outdir, label=f"{label}-rerun"))

    return out, checks.references(workload, out, tg, rerun)


def run_round(tg, workload, seed, spawned, trace):
    resolved = _resolve(tg, workload, seed)
    tracer = Tracer(trace)
    outdir = tempfile.mkdtemp(prefix="csv-", dir=WORKDIR)
    try:
        setup_s = time.monotonic() - spawned
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        outcomes, failures = [], []
        with tracer.span(f"round {workload}", "benchmark"):
            for op, cfg in resolved:
                with tracer.span(op.label, op.layer):
                    done, outcome, failure = _run_op(tg, op, cfg, outdir)
                outcomes.append((op, outcome))
                if not done:
                    failures.append(failure)
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # untimed from here on: read the outputs back and check them
        if failures:
            results = [("all-operations-done", False, "; ".join(failures))]
        else:
            out, ref = _check_inputs(tg, workload, resolved, outcomes, outdir)
            results = checks.run_checks(workload, out, ref)
            for span in tracer.spans:
                if span["name"] in out:
                    span["values"] = summarize(out[span["name"]])
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
        "attempted": len(resolved), "failed": len(failures), "failures": failures,
        "checks": results, "spans": tracer.spans, "bookkeeping_s": tracer.bookkeeping_s,
    }


def run_probes(tg, seed):
    tracer = Tracer(True)
    metrics, missing, failures = {}, [], []
    outdir = tempfile.mkdtemp(prefix="probe-", dir=WORKDIR)
    try:
        for metric, unit, probe in probes.probes(outdir):
            try:
                with tracer.span(metric, metric.split(".")[0]):
                    value = probe(tg, tracer, seed)
            except probes.Missing as exc:
                missing.append(f"{metric}: {exc}")
                continue
            except Exception as exc:  # a failing probe is counted, not fatal
                failures.append(f"{metric}: {type(exc).__name__}: {exc}")
                continue
            metrics[metric] = {"value": value, "unit": unit}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    for span in tracer.spans:
        if "values" in span:
            span["values"] = summarize(span["values"])
    return {"metrics": metrics, "missing": missing, "attempted": len(metrics) + len(failures),
            "failed": len(failures), "failures": failures, "spans": tracer.spans,
            "bookkeeping_s": tracer.bookkeeping_s}


def self_test(tg, workload, seed):
    """Every check passes on the real outputs and rejects its perturbation."""
    outdir = tempfile.mkdtemp(prefix="selftest-", dir=WORKDIR)
    try:
        resolved = _resolve(tg, workload, seed)
        outcomes = []
        for op, cfg in resolved:
            done, outcome, failure = _run_op(tg, op, cfg, outdir)
            if not done:
                return {"passed": False, "lines": [f"operation failed: {failure}"]}
            outcomes.append((op, outcome))
        out, ref = _check_inputs(tg, workload, resolved, outcomes, outdir)
        lines, passed = [], True
        for check in checks.checks_for(workload):
            ok_real, detail_real = check.run(out, ref)
            ok_bad, detail_bad = check.run(check.perturbed(out, ref), ref)
            good = ok_real and not ok_bad
            passed &= good
            lines.append(f"{'ok  ' if good else 'FAIL'} {check.name}: real -> {detail_real}; "
                         f"perturbed -> {detail_bad}")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return {"passed": passed, "lines": lines}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "round", "probes", "self-test"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tg = import_tddgeom()
    os.makedirs(WORKDIR, exist_ok=True)
    if args.mode == "setup":
        _resolve(tg, args.workload, args.seed)
        result = {"setup_s": time.monotonic() - args.spawned}
    elif args.mode == "round":
        result = run_round(tg, args.workload, args.seed, args.spawned, args.trace)
    elif args.mode == "probes":
        result = run_probes(tg, args.seed)
    else:
        result = self_test(tg, args.workload, args.seed)
    print(json.dumps(result, default=summarize))
    return 0


if __name__ == "__main__":
    sys.exit(main())
