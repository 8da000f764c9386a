"""Child process that runs one workload's ops through `lpa_invariants.cli.run`.

    python3 perfbench/worker.py SPEC.json RESULT.json

One process, one closed-loop client: each op starts when the previous one
has returned.  After a warm-up op the op list is run in passes until the
next pass would end after `seconds`.  With `trace` set, passes alternate
between untraced and traced (wrappers installed only for the traced
ones), so the tracer's overhead is the difference of the two.

Between ops, at most every `PROBE_INTERVAL` seconds, the worker times a
fixed reference workload (`probe`), so the parent can bring each time to a
fixed machine speed; probes, ops and timed imports all record when they
started, on the `time.perf_counter` clock.  In an untraced run it also times
fresh interpreters importing `lpa_invariants.cli` between passes
(`setup_runs` of them, spread over the run).

The first untraced output of every op is written to a file in `outputs`
for the parent to check; only its digest stays in memory, and every later
execution must reproduce it exactly.  Peak RSS comes from this process's
own `ru_maxrss`.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

PROBE_INTERVAL = 0.1
BURST = 7


def _execute(run, argv: list[str]) -> tuple[float, int | None, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        code = run(argv, stdout=out, stderr=err)
    except Exception:  # an op that raises counts as failed, the run goes on
        return time.perf_counter() - start, None, traceback.format_exc(limit=3)
    return time.perf_counter() - start, code, out.getvalue()


def _python_loop() -> int:
    """Small-integer, big-integer and dict work, as in `intlinalg` and `cli`."""
    acc, big, table = 0, 7**300, {}
    for i in range(1500):
        acc += i * i % 7
        big = big * 3 // 2 + i
        table[i % 61] = acc ^ (big & 0xFFFF)
    return acc + len(table)


_ARRAY = np.arange(300_000, dtype=np.int64)


def _array_pass() -> int:
    """Whole-array arithmetic over a few MB, as in `monoid`."""
    return int((_ARRAY * 3 + _ARRAY[::-1]).sum())


def probe(runs: int = 1) -> float:
    """Machine speed now: the time of a pure-Python loop plus a pass over a
    numpy array, in seconds; the median of `runs` such measurements."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        _python_loop()
        _array_pass()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def time_import(env: dict) -> float:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import lpa_invariants.cli"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"import lpa_invariants.cli failed: {proc.stderr.strip()[-500:]}")
    return seconds


def _digest(code: int | None, text: str) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


def _save(path: str, code: int | None, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"code": code, "stdout": text}, handle)


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    from lpa_invariants import cli

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()

    ops, outputs = spec["ops"], spec["outputs"]
    _, code, text = _execute(cli.run, spec["warmup"])
    _save(os.path.join(outputs, "warmup.json"), code, text)
    result = {"passes": [], "layers": [], "probes": [], "setup": []}
    probes = result["probes"]
    digests: list[str] = []
    last_probe = 0.0

    def take_probe(force: bool) -> None:
        # Forced probes stand next to long stretches without probes (a long
        # op, an import), so they take the median of a burst.
        nonlocal last_probe
        now = time.perf_counter()
        if force:
            probes.append((now, probe(BURST)))
        elif now - last_probe >= PROBE_INTERVAL:
            probes.append((now, probe()))
        else:
            return
        last_probe = time.perf_counter()

    def time_setup() -> None:
        take_probe(True)
        start = time.perf_counter()
        result["setup"].append({"start": start, "seconds": time_import(spec["import_env"])})
        take_probe(True)

    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(result["passes"]) % 2 == 1
        if traced:
            tracer.new_pass()
            tracer.install()
            mark = len(tracer.spans)
        latencies, starts, changed = [], [], []
        take_probe(True)
        pass_start = time.perf_counter()
        for i, argv in enumerate(ops):
            starts.append(time.perf_counter())
            if traced:
                tracer.op = i
                seconds, code, text = tracer.span("bench.op", _execute, (cli.run, argv), {})
            else:
                seconds, code, text = _execute(cli.run, argv)
            latencies.append(seconds)
            if len(digests) < len(ops):
                digests.append(_digest(code, text))
                _save(os.path.join(outputs, f"op{i}.json"), code, text)
            elif _digest(code, text) != digests[i]:
                changed.append(i)
            take_probe(i == len(ops) - 1 or seconds >= PROBE_INTERVAL)
        wall = time.perf_counter() - pass_start
        if traced:
            tracer.uninstall()
            result["layers"].append(tracing.layer_metrics(tracer, tracer.spans[mark:], len(ops)))
        result["passes"].append(
            {"traced": traced, "latencies": latencies, "starts": starts, "changed": changed}
        )
        elapsed = time.perf_counter() - begin
        share = min(1.0, elapsed / spec["seconds"]) if spec["seconds"] > 0 else 1.0
        while len(result["setup"]) < spec["setup_runs"] * share:
            time_setup()
        enough = len(result["passes"]) >= (2 if tracer is not None else 1)
        if enough and elapsed + wall > spec["seconds"]:
            break
    while len(result["setup"]) < spec["setup_runs"]:
        time_setup()
    if tracer is not None:
        tracer.write(spec["spans"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
