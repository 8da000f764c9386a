"""Per-op verification of `lpainv` output against the oracle's answers.

`check(op, code, stdout)` returns `(failure, undecided)`: `failure` is
None for a correct answer or a one-line reason, and `undecided` marks an
honest Unknown / INCONCLUSIVE / NOT_CLOSED verdict.
"""

from __future__ import annotations

import json
import math

import oracle

EXIT_CODES = {"Isomorphic": 0, "NotIsomorphic": 3, "Unknown": 4, "NotApplicable": 5}
PIS_FLAGS = ("sink_free", "condition_L", "cofinal", "has_cycle", "purely_infinite_simple")


def _mismatch(field: str, got, want) -> str:
    text = f"{field}: got {got!r}, expected {want!r}"
    return text if len(text) <= 300 else text[:297] + "..."


def check_table(expect: dict, code: int, stdout: str) -> tuple[str | None, bool]:
    if code != 0:
        return f"exit code {code}", False
    rows = json.loads(stdout)["rows"]
    if len(rows) != len(expect["rows"]):
        return _mismatch("row count", len(rows), len(expect["rows"])), False
    for got, want in zip(rows, expect["rows"]):
        if got != want:
            return _mismatch(f"row {want['n']}", got, want), False
    return None, False


def check_invariants(expect: dict, code: int, stdout: str) -> tuple[str | None, bool]:
    if code != 0:
        return f"exit code {code}", False
    report = json.loads(stdout)
    got_graph = report["graph"]
    for field, got, want in (
        ("schema", report["schema"], 1),
        ("vertices", got_graph["vertices"], expect["vertices"]),
        ("edges", got_graph["edges"], expect["edges"]),
        ("adjacency", report["adjacency"], expect["adjacency"]),
        ("b_matrix", report["b_matrix"], expect["b_matrix"]),
        ("snf_diagonal", report["snf_diagonal"], expect["snf_diagonal"]),
        ("k0_factors", report["k0_factors"], expect["k0_factors"]),
        ("det", report["det"], expect["det"]),
        ("det_sign", report["det_sign"], expect["det_sign"]),
        ("pis", {k: report["pis"][k] for k in PIS_FLAGS}, expect["pis"]),
        ("canonical", (report["canonical"] or {}).get("label"), expect["canonical"]),
    ):
        if got != want:
            return _mismatch(field, got, want), False
    kinds = {kind for kind, _ in report["pis"]["witnesses"]}
    failed = {flag for flag in PIS_FLAGS[:4] if not expect["pis"][flag]}
    if kinds != failed:
        return _mismatch("witness kinds", sorted(kinds), sorted(failed)), False
    factors = expect["k0_factors"]
    images = report["vertex_images"]
    if not oracle.images_present_cokernel(expect["b_matrix"], factors, images):
        return "vertex_images do not present the cokernel of B", False
    total = [sum(col) for col in zip(*images)] if images else []
    unit = [t % d if d else t for t, d in zip(total, factors)]
    if report["distinguished"] != unit:
        return _mismatch("distinguished", report["distinguished"], unit), False
    return None, False


def _parse_classify(stdout: str) -> tuple[str, dict]:
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("outcome: "):
        raise ValueError("no outcome line")
    trace = {}
    for line in lines[1:]:
        key, _, value = line.strip().partition(": ")
        trace[key] = value
    return lines[0][len("outcome: ") :], trace


def check_classify(expect: dict, code: int, stdout: str) -> tuple[str | None, bool]:
    outcome, trace = _parse_classify(stdout)
    if code != EXIT_CODES.get(outcome):
        return f"exit code {code} for outcome {outcome}", False
    got = trace.get("k0_factors_first")
    if expect["factors"] is not None and got != str(expect["factors"]):
        return _mismatch("k0_factors_first", got, str(expect["factors"])), False
    if outcome == expect["outcome"]:
        return None, outcome == "Unknown"
    if outcome == "Unknown" and trace.get("pointed_iso") == "UNSUPPORTED" and expect["infinite"]:
        return None, True
    return _mismatch("outcome", outcome, expect["outcome"]), False


def _reduce(expect: dict, x) -> tuple[int, ...]:
    return tuple(c % d if d else c for c, d in zip(x, expect["k0_factors"]))


def _k0_class(expect: dict, vector: list[int]) -> tuple[int, ...]:
    """Class in K0 of the monoid element `vector` (a sum of vertices)."""
    rank = len(expect["k0_factors"])
    total = [sum(x * img[r] for x, img in zip(vector, expect["images"])) for r in range(rank)]
    return _reduce(expect, total)


def _group_failure(expect: dict, group: dict, reps: list[list[int]]) -> str | None:
    """None when the class representatives map one to one onto K0 and
    the table is K0's addition."""
    ids = group["element_class_ids"]
    images = [_k0_class(expect, reps[c]) for c in ids]
    if len(set(images)) != len(ids):
        return "two group elements have the same class in K0"
    if any(_k0_class(expect, reps[group["identity_class"]])):
        return "identity_class is not the zero of K0"
    position = {image: c for image, c in zip(images, ids)}
    for i, row in enumerate(group["table"]):
        for j, got in enumerate(row):
            total = _reduce(expect, [a + b for a, b in zip(images[i], images[j])])
            if position.get(total) != got:
                return f"table entry for classes {ids[i]} and {ids[j]} is not their sum in K0"
    return None


def check_monoid(expect: dict, code: int, stdout: str) -> tuple[str | None, bool]:
    if code != 0:
        return f"exit code {code}", False
    report = json.loads(stdout)
    n, bound = expect["vertices"], expect["bound"]
    if report["schema"] != 1 or report["bound"] != bound:
        return _mismatch("bound", report["bound"], bound), False
    if not 1 <= report["classes"] <= math.comb(n + bound, n):
        return _mismatch("classes", report["classes"], f"1..C({n}+{bound}, {n})"), False
    if report["classes"] != report["nonzero_classes"] + 1:
        return "classes != nonzero_classes + 1", False
    reps = report["representatives"]
    complete = len(reps) == report["classes"]
    if len(reps) != min(report["classes"], 100) or reps[0] != [0] * n:
        return "representatives do not start with the zero class", False
    if any(len(r) != n or min(r) < 0 or sum(r) > bound for r in reps):
        return "a representative lies outside the box", False
    if len({tuple(r) for r in reps}) != len(reps):
        return "two classes have the same representative", False
    # M_E minus zero is K0 for a PIS graph (Ara-Moreno-Pardo).  The box
    # only joins vectors that are equal in M_E, so its nonzero classes are
    # at least the K0 classes that its vectors reach; and they close into
    # K0 when K0 is finite, unless the report shows that the box cannot
    # hold the group yet.
    finite_k0 = expect["pis"] and not expect["infinite"]
    if finite_k0 and report["nonzero_classes"] < expect["box_classes"]:
        least = f"at least {expect['box_classes']}"
        return _mismatch("nonzero_classes", report["nonzero_classes"], least), False
    group = report["group"]
    if group == "NOT_CLOSED":
        if report["crosscheck"] != "INCONCLUSIVE":
            return _mismatch("crosscheck", report["crosscheck"], "INCONCLUSIVE"), False
        if finite_k0 and report["stabilized"] and complete:
            if 2 * max(sum(r) for r in reps) <= bound:
                return "NOT_CLOSED although the stabilized box holds every sum", False
        return None, True
    if not finite_k0:
        return "a finite group table for a graph whose monoid has no finite K0", False
    got = group["invariant_factors"]
    if got != expect["k0_factors"]:
        return _mismatch("invariant_factors", got, expect["k0_factors"]), False
    if not report["stabilized"] or group["order"] != report["nonzero_classes"]:
        return "group order and nonzero class count differ", False
    if complete:
        failure = _group_failure(expect, group, reps)
        if failure is not None:
            return failure, False
    if report["crosscheck"] != "MATCH":
        return _mismatch("crosscheck", report["crosscheck"], "MATCH"), False
    return None, False


CHECKS = {
    "table": check_table,
    "invariants": check_invariants,
    "classify": check_classify,
    "monoid": check_monoid,
}


def check(op: dict, code: int, stdout: str) -> tuple[str | None, bool]:
    try:
        return CHECKS[op["kind"]](op["expect"], code, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", False
