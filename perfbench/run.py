"""Benchmark of the `lpainv` commands: table, invariants, classify, monoid.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
`src/`, nothing needs installing).  The run

1. writes the workload's seeded graph files and computes the expected
   answers with `oracle` (sympy, networkx, closed forms), untimed;
2. imports `lpa_invariants.cli` once, untimed, to fill a bytecode cache
   of its own (`.perfbench/pycache`);
3. starts one child process (`worker.py`) that runs the op list in passes
   through `lpa_invariants.cli.run` for `--seconds`, probing the machine's
   speed between ops and, in untraced runs, timing `SETUP_RUNS` fresh
   interpreters that import `lpa_invariants.cli`, spread between passes;
4. checks every op's output against the oracle, then prints a summary and,
   as the last line, one JSON object:
   `{"correct", "attempted", "failed", "metrics"}`.

Every time is scaled to the reference speed (`scaler`): multiplied by
`REFERENCE_S` over the median of the probes taken from `WINDOW_S` before
it starts to `WINDOW_S` after it ends.  The machine this was built on switches between speed levels about
1.5x apart every few seconds to minutes, and the probes follow those
switches.  The unscaled medians are printed in the summary line.

With `--trace 0` the metrics are the end-to-end ones: `wall_s` is the sum
over the ops of each op's median over the untraced passes, `op_p50_ms` /
`op_p90_ms` are percentiles over those per-op times, `setup_s` is the
median import time and `peak_rss_mb` the child's own `ru_maxrss`.  With
`--trace 1` they are the per-layer ones from the traced passes, plus
`trace.overhead_s`, `fail_ratio` and `undecided_ratio`.  Work files live
under `.perfbench/` in the checkout; the spans of a traced run stay there
as JSON lines.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import tracing
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 5
# The worker must end early enough for the whole run to stay under 180 s.
TIME_LIMIT = 160.0
# Probe time (see `worker.probe`) that the reported times are scaled to.
REFERENCE_S = 0.002
# Probes this far on either side of a timed stretch judge its speed.
WINDOW_S = 1.0


class BenchError(Exception):
    pass


def import_env(src: str, pycache: str) -> dict:
    """Environment of the worker and of the timed imports.

    Bytecode goes to a cache of the benchmark's own, so the timed imports
    read fresh bytecode whatever `__pycache__` the checkout holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONPYCACHEPREFIX"] = pycache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(spec: dict, work: str, timeout: float) -> dict:
    """Run the op list in a child process; its first outputs go to `work`."""
    outputs = os.path.join(work, "outputs")
    os.makedirs(outputs, exist_ok=True)
    env = import_env(spec["src"], spec["pycache"])
    # Untimed: fills the bytecode cache for the timed imports.
    worker.time_import(env)
    job = {
        "src": spec["src"],
        "seconds": spec["seconds"],
        "trace": spec["trace"],
        "spans": spec["spans"],
        "setup_runs": 0 if spec["trace"] else SETUP_RUNS,
        "import_env": env,
        "outputs": outputs,
        "warmup": spec["warmup"]["argv"],
        "ops": [op["argv"] for op in spec["ops"]],
    }
    job_path = os.path.join(work, "job.json")
    result_path = os.path.join(work, "result.json")
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), job_path, result_path],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    names = ["warmup", *(f"op{i}" for i in range(len(spec["ops"])))]
    result["first"] = []
    for name in names:
        with open(os.path.join(outputs, name + ".json"), encoding="utf-8") as handle:
            result["first"].append(json.load(handle))
    return result


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def evaluate(spec: dict, result: dict) -> dict:
    """Check every op and fold the passes into metrics and counts."""
    ops = spec["ops"]
    reasons: list[str] = []
    wrong, undecided = set(), set()
    for i, (op, out) in enumerate(zip([spec["warmup"], *ops], result["first"])):
        if out["code"] is None:
            failure, open_verdict = "raised: " + out["stdout"].strip().splitlines()[-1], False
        else:
            failure, open_verdict = checks.check(op, out["code"], out["stdout"])
        if failure is not None:
            wrong.add(i - 1)
            reasons.append(f"op {i - 1} {' '.join(op['argv'])}: {failure}")
        if open_verdict:
            undecided.add(i - 1)
    passes = result["passes"]
    attempted = 1 + len(ops) * len(passes)
    failed = int(-1 in wrong)
    for p in passes:
        failed += sum(1 for i in range(len(ops)) if i in wrong or i in p["changed"])
    plain = [p for p in passes if not p["traced"]]
    per_op = per_op_seconds(plain, result["probes"])
    return {
        "reasons": reasons,
        "attempted": attempted,
        "failed": failed,
        "undecided": len(undecided - {-1}),
        "wall_s": sum(per_op),
        "per_op": per_op,
        "raw_wall_s": sum(statistics.median(lat) for lat in zip(*(p["latencies"] for p in plain))),
        "plain_passes": len(plain),
    }


def scaler(probes: list[list[float]]):
    """Function that brings `seconds`, started at `start`, to the reference
    speed.

    The machine's speed then is the median of the probes taken from
    `WINDOW_S` before the start to `WINDOW_S` after the end; `probes` are
    (time, seconds) pairs in time order."""
    times = [t for t, _ in probes]

    def scaled(seconds: float, start: float) -> float:
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, start + seconds + WINDOW_S)
        near = [p for _, p in probes[lo:hi]] or [probes[min(lo, len(probes) - 1)][1]]
        return seconds * REFERENCE_S / statistics.median(near)

    return scaled


def per_op_seconds(passes: list[dict], probes: list[list[float]]) -> list[float]:
    """Each op's scaled latency, median over `passes`."""
    scaled = scaler(probes)
    return [
        statistics.median(scaled(p["latencies"][i], p["starts"][i]) for p in passes)
        for i in range(len(passes[0]["latencies"]))
    ]


def end_to_end(ev: dict, result: dict) -> dict:
    ms = [x * 1000 for x in ev["per_op"]]
    scaled = scaler(result["probes"])
    setup = [scaled(t["seconds"], t["start"]) for t in result["setup"]]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": ev["wall_s"], "unit": "s"},
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "op_p90_ms": {"value": _p90(ms), "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
    }


RUN_UNITS = {"trace.overhead_s": "s", "fail_ratio": "ratio", "undecided_ratio": "ratio"}


def per_layer(ev: dict, result: dict, n_ops: int) -> dict:
    """Medians over the traced passes (the counts repeat exactly)."""
    layers = result["layers"]
    traced = per_op_seconds([p for p in result["passes"] if p["traced"]], result["probes"])
    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    values["trace.overhead_s"] = sum(traced) - ev["wall_s"]
    values["fail_ratio"] = ev["failed"] / ev["attempted"]
    values["undecided_ratio"] = ev["undecided"] / n_ops
    units = {**tracing.units(), **RUN_UNITS}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
    """Build the inputs, run the worker, check its outputs.

    Returns the op list, the worker's raw result and the evaluation."""
    started = time.perf_counter()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lpa_invariants", "cli.py")):
        raise BenchError(f"no package source at {src}/lpa_invariants")
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=base)
    try:
        spec = workloads.build(workload, seed, work)
        spec.update(
            src=src,
            seconds=seconds,
            trace=trace,
            spans=os.path.join(base, f"spans-{workload}-{seed}.jsonl"),
            pycache=os.path.join(base, "pycache"),
        )
        budget = TIME_LIMIT - (time.perf_counter() - started)
        try:
            result = run_worker(spec, work, budget)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            raise BenchError(str(exc)) from exc
        return spec, result, evaluate(spec, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec, result, ev = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    n_ops = len(spec["ops"])
    for reason in ev["reasons"][:10]:
        print(f"FAIL {reason}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {n_ops} ops x {len(result['passes'])} passes "
        f"({ev['plain_passes']} untraced); latency percentiles over {n_ops} ops, "
        "each the median of its untraced passes; "
        f"failed {ev['failed']}/{ev['attempted']}; undecided {ev['undecided']}/{n_ops}"
    )
    setup = [t["seconds"] for t in result["setup"]]
    print(
        f"unscaled medians: wall_s {ev['raw_wall_s']:.4f}"
        + (f", setup_s {statistics.median(setup):.4f}" if setup else "")
        + f"; probe {statistics.median(p for _, p in result['probes']) * 1000:.3f} ms "
        f"(scaled to {REFERENCE_S * 1000:.1f} ms), {len(result['probes'])} probes"
    )
    if args.trace:
        metrics = per_layer(ev, result, n_ops)
    else:
        metrics = end_to_end(ev, result)
    line = {
        "correct": ev["failed"] == 0,
        "attempted": ev["attempted"],
        "failed": ev["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
