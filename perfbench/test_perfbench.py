"""Tests of the benchmark itself: run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import copy
import io
import itertools
import json
import math
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lpa_invariants import cli, ktheory  # noqa: E402


def test_self_times_on_a_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S(0, "root", 0.0, 10.0, None, 0),
        S(1, "a", 1.0, 4.0, 0, 0),
        S(2, "c", 2.0, 3.0, 1, 0),
        S(3, "b", 5.0, 7.0, 0, 0),
        S(4, "b", 8.0, 8.5, 0, 0),
        S(5, "other", 20.0, 21.0, None, 1),
    ]
    own = tracing.self_times(spans)
    assert own == {"root": 4.5, "a": 2.0, "c": 1.0, "b": 2.5, "other": 1.0}
    # Self times add up to the root spans' durations.
    assert sum(own.values()) == 11.0


def test_overlapping_children_are_not_counted_twice():
    S = tracing.Span
    spans = [S(0, "p", 0.0, 10.0, None, 0), S(1, "x", 1.0, 5.0, 0, 0), S(2, "y", 3.0, 12.0, 0, 0)]
    assert tracing.self_times(spans)["p"] == 1.0


def test_tracer_sees_calls_between_modules_and_restores_bindings():
    from lpa_invariants import classify, intlinalg

    original = classify.det_exact
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert classify.det_exact is not original
        cli.run(["table", "--max", "6", "--format", "json"], io.StringIO(), io.StringIO())
    finally:
        tracer.uninstall()
    assert classify.det_exact is original
    assert intlinalg.IntMatrix.__init__ is intlinalg.IntMatrix.__dict__["__init__"]
    assert not hasattr(intlinalg.IntMatrix.__init__, "__wrapped__")
    metrics = tracing.layer_metrics(tracer, tracer.spans, 1)
    # Two Smith forms per row; det once per row and again for the four
    # rows (of six) whose K0 is cyclic.
    assert metrics["intlinalg.smith_normal_form.calls"] == 12
    assert metrics["intlinalg.snf_per_graph"] == 2.0
    assert metrics["intlinalg.det_exact.calls"] == 10
    names = {span.name for span in tracer.spans}
    assert {"cli.run", "ktheory.cokernel_pointed", "intlinalg.IntMatrix"} <= names
    by_id = {span.id: span for span in tracer.spans}
    for span in tracer.spans:
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end


def test_ulm_orbits_agree_with_automorphism_enumeration():
    for factors in [(2, 2), (2, 4), (8,), (3, 3), (2, 6), (12,), (2, 2, 2)]:
        group = ktheory.AbelianGroup(factors)
        elements = list(group.elements())
        for x, y in itertools.product(elements, repeat=2):
            want = ktheory.pointed_iso_exists(group, x, group, y) == "YES"
            assert oracle.finite_orbit_equal(factors, x.coords, y.coords) == want, (factors, x, y)


def test_orbits_with_a_free_part():
    # Z/2 + Z: h(f) can absorb the torsion part only when 2 does not
    # divide the free part.
    assert oracle.pointed_orbit_equal((2, 0), (1, 1), (0, 1))
    assert not oracle.pointed_orbit_equal((2, 0), (1, 2), (0, 2))
    assert oracle.pointed_orbit_equal((2, 0), (1, 2), (1, -2))
    assert not oracle.pointed_orbit_equal((2, 0), (0, 2), (0, 4))
    assert oracle.pointed_orbit_equal((0, 0), (2, 4), (0, 2))


def test_cayley_closed_forms_match_the_sympy_oracle():
    for n in range(1, 25):
        row = oracle.cayley_row(n)
        k0 = oracle.k0_data(oracle.b_matrix(workloads.cayley(n)))
        assert row["k0_factors"] == list(k0.factors)
        assert row["det"] == k0.det


def _op_output(op: dict) -> tuple[int, str]:
    out = io.StringIO()
    code = cli.run(op["argv"], out, io.StringIO())
    return code, out.getvalue()


def test_each_check_accepts_the_program_and_rejects_a_planted_answer():
    with tempfile.TemporaryDirectory() as work:
        files = workloads._Files(work)
        rng = random.Random(7)
        g = workloads.random_multigraph(rng, 5, 0.6, 2)
        ops = [
            workloads._table_op(8),
            workloads._invariants_op(files, g),
            workloads._classify_op(files, workloads.cayley(4), workloads.cayley(8), False),
            workloads._monoid_op(files, workloads.cayley(3), 8),
        ]
        plants = [
            lambda e: e["rows"][5].update(det=-1),
            lambda e: e.update(det=e["det"] + 1),
            lambda e: e.update(outcome="NotIsomorphic"),
            lambda e: e.update(k0_factors=[4]),
        ]
        for op, plant in zip(ops, plants):
            code, text = _op_output(op)
            assert checks.check(op, code, text)[0] is None, op["argv"]
            wrong = copy.deepcopy(op)
            plant(wrong["expect"])
            assert checks.check(wrong, code, text)[0] is not None, op["argv"]


def _monoid_report(op: dict) -> dict:
    code, text = _op_output(op)
    assert code == 0 and checks.check(op, code, text) == (None, False)
    return json.loads(text)


def _monoid_failure(op: dict, report: dict) -> str | None:
    return checks.check(op, 0, json.dumps(report))[0]


def test_monoid_check_verifies_the_group_table_against_k0():
    with tempfile.TemporaryDirectory() as work:
        # C_3 has K0 = Z/2 + Z/2; its box closes at bound 8.
        op = workloads._monoid_op(workloads._Files(work), workloads.cayley(3), 8)
        report = _monoid_report(op)
    assert report["group"]["invariant_factors"] == [2, 2]
    swapped = copy.deepcopy(report)
    table = swapped["group"]["table"]
    table[1][2], table[1][3] = table[1][3], table[1][2]
    table[2][1], table[3][1] = table[3][1], table[2][1]
    assert "not their sum in K0" in _monoid_failure(op, swapped)
    relabeled = copy.deepcopy(report)
    reps = relabeled["representatives"]
    reps[1], reps[2] = reps[2], reps[1]
    assert _monoid_failure(op, relabeled) is not None
    merged = copy.deepcopy(report)
    merged.update(classes=2, nonzero_classes=1, representatives=report["representatives"][:2])
    assert "nonzero_classes" in _monoid_failure(op, merged)


def test_monoid_check_fails_not_closed_where_the_box_holds_the_group():
    with tempfile.TemporaryDirectory() as work:
        op = workloads._monoid_op(workloads._Files(work), workloads.cayley(3), 8)
        report = _monoid_report(op)
    report.update(group="NOT_CLOSED", crosscheck="INCONCLUSIVE")
    assert "holds every sum" in _monoid_failure(op, report)
    report["stabilized"] = False
    assert checks.check(op, 0, json.dumps(report)) == (None, True)


def test_times_are_scaled_by_the_median_probe_around_them():
    ref, w = run.REFERENCE_S, run.WINDOW_S
    # (time, seconds) probes: the machine runs at half speed from t = 10.
    probes = [[t, ref] for t in (0.0, 0.5, 1.0, 9.0)] + [[t, 2 * ref] for t in (10.0, 10.5, 11.0)]
    scaled = run.scaler(probes)
    assert math.isclose(scaled(3.0, 0.2), 3.0)
    assert math.isclose(scaled(3.0, 10.0), 1.5)
    # Probes within the window on both sides: 9.0, 10.0 and 10.5 -> 2 * ref.
    assert math.isclose(scaled(0.1, 10.0 - w + 0.5), 0.05)
    # No probe near: the next one (t = 9.0) judges.
    assert math.isclose(scaled(1.0, 5.0), 1.0)
    passes = [
        {"latencies": [1.0, 4.0], "starts": [0.0, 10.0]},
        {"latencies": [5.0, 2.0], "starts": [0.0, 10.0]},
        {"latencies": [2.0, 6.0], "starts": [0.0, 10.0]},
    ]
    per_op = run.per_op_seconds(passes, probes)
    assert all(math.isclose(got, want) for got, want in zip(per_op, [2.0, 2.0]))


def test_planted_wrong_answer_is_counted_as_failed_in_a_run():
    with tempfile.TemporaryDirectory() as work:
        ops = [workloads._table_op(6), workloads._table_op(6)]
        spec = {"warmup": workloads._table_op(3), "ops": ops}
        spec["ops"][1]["expect"]["rows"][2]["class_id"] = "ZxZ"
        pycache = os.path.join(work, "pycache")
        spec.update(src=SRC, seconds=0.0, trace=False, spans=None, pycache=pycache)
        result = run.run_worker(spec, work, 60)
        ev = run.evaluate(spec, result)
    passes = len(result["passes"])
    assert ev["attempted"] == 1 + 2 * passes
    assert ev["failed"] == passes
    assert len(ev["reasons"]) == 1 and ev["reasons"][0].startswith("op 1 ")


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            first = workloads.build(workload, 3, a)
            second = workloads.build(workload, 3, b)
            assert json.dumps(first).replace(a, "") == json.dumps(second).replace(b, "")
            for name in sorted(os.listdir(a)):
                with open(os.path.join(a, name)) as fa, open(os.path.join(b, name)) as fb:
                    assert fa.read() == fb.read()
