"""Command-line front end.

Subcommands: `cayley`, `rose`, `stemmed-rose` write graph JSON;
`invariants` reports the full invariant bundle of a graph; `classify`
runs the Kirchberg-Phillips decision on a pair (exit code encodes the
verdict); `table` tabulates the cyclic-Cayley-graph invariants;
`monoid` runs the box-monoid oracle; `validate` checks graph JSON.

Exit codes: 0 success/Isomorphic, 2 malformed input or flags,
3 NotIsomorphic, 4 Unknown, 5 NotApplicable, 6 a `table` row whose
computed K0 factors, det, det sign or canonical form contradict the
closed form of `cayley_class`, 141 stdout closed by its reader before
the command finished, the code a shell gives a process ended by SIGPIPE
(128 + 13), with no `error:` line.  All other errors go to the error
stream as one line prefixed `error:`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import IO

from .classify import EXIT_CODES, _canonical, cayley_class, kp_decide, sign_of
from .graphs import (
    Graph,
    _adjacency_rows,
    cayley_graph,
    graph_from_dict,
    graph_to_dict,
    pis_report,
    rose_graph,
    stemmed_rose_graph,
)
from .ktheory import analyse, circulant_k0

SCHEMA_VERSION = 1
_EXIT_BROKEN_PIPE = 141
_TABLE_CAP = 10_000
_MAX_PRINTED_CLASSES = 100


class _CliError(Exception):
    exit_code = 2


class _ClosedFormMismatch(_CliError):
    exit_code = 6


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliError(message)

    def _print_message(self, message: str, file: IO[str] | None = None) -> None:
        # argparse's own drops write errors, so `--help` into a closed
        # stdout would exit 0
        if message:
            (file or sys.stderr).write(message)


def _load_graph(path: str) -> Graph:
    # One read and one decode.  CR and CRLF become LF, as in text mode, so a
    # JSON fault's offset is the same on a CRLF file.
    try:
        with open(path, "rb", buffering=0) as handle:
            text = handle.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        data = json.loads(text)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _CliError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise _CliError(f"{path} is not valid JSON: nesting too deep") from None
    try:
        return graph_from_dict(data)
    except ValueError as exc:
        raise _CliError(f"{path}: {exc}") from None


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2)`, byte for byte.

    With an indent the json module leaves its C encoder for a pure-Python
    one, which costs about a fifth of an `invariants --json` op.  Here only
    the nesting is walked in Python: dicts, and lists and tuples, each item
    on its own line.  Every leaf is written by what json itself uses: a
    string by its C `encode_basestring_ascii`, a plain int by `int.__repr__`
    (a list of plain ints in one `join`), anything else by `json.dumps`.
    Bools are not plain ints, so they never take the int step.  Dict keys
    must be str (schema 1 has no others); any other key raises TypeError.
    """
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        if set(map(type, value)) == {int}:
            body = ("," + inner).join(map(repr, value))
        else:
            body = ("," + inner).join([_json_text(item, inner) for item in value])
        return "[" + inner + body + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            items.append(_encode_str(key) + ": " + _json_text(item, inner))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, str):
        return _encode_str(value)
    if type(value) is int:
        return repr(value)
    return json.dumps(value)


def invariant_report(g: Graph) -> dict:
    """All invariants of one graph as a JSON-ready dict."""
    analysis = analyse(g)
    k0 = analysis.k0
    det = analysis.det
    pis = pis_report(g)
    canonical = None
    if pis.purely_infinite_simple:
        canonical = _canonical(k0.group, k0.distinguished, det)
    # The printed matrices are plain int lists built from the edges; the
    # elimination above has its own sparse B.  Building them with
    # `adjacency_matrix` and `b_matrix` takes nearly four times as long.
    adjacency = _adjacency_rows(g)
    b = [[-a for a in column] for column in zip(*adjacency)]  # -A^t
    for i in range(g.n_vertices):
        b[i][i] += 1
    return {
        "schema": SCHEMA_VERSION,
        "graph": {"vertices": g.n_vertices, "edges": g.n_edges},
        "adjacency": adjacency,
        "b_matrix": b,
        "snf_diagonal": list(analysis.snf_diagonal),
        "k0_factors": list(k0.group.factors),
        "vertex_images": [list(img.coords) for img in k0.vertex_images],
        "distinguished": list(k0.distinguished.coords),
        "det": det,
        "det_sign": sign_of(det),
        "pis": {
            "sink_free": pis.sink_free,
            "condition_L": pis.condition_L,
            "cofinal": pis.cofinal,
            "has_cycle": pis.has_cycle,
            "purely_infinite_simple": pis.purely_infinite_simple,
            "witnesses": [[kind, _jsonable(w)] for kind, w in pis.witnesses],
        },
        "canonical": (
            {"n": canonical.n, "d": canonical.d, "label": canonical.label}
            if canonical
            else None
        ),
    }


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def _print_invariants_text(report: dict, out: IO[str]) -> None:
    out.write(
        f"graph: {report['graph']['vertices']} vertices, "
        f"{report['graph']['edges']} edges\n"
    )
    out.write(f"adjacency: {report['adjacency']}\n")
    out.write(f"b_matrix: {report['b_matrix']}\n")
    out.write(f"snf_diagonal: {report['snf_diagonal']}\n")
    out.write(f"k0_factors: {_factors_str(report['k0_factors'])}\n")
    out.write(f"vertex_images: {report['vertex_images']}\n")
    out.write(f"distinguished: {report['distinguished']}\n")
    out.write(f"det: {report['det']}  ({report['det_sign']})\n")
    pis = report["pis"]
    out.write(
        "pis: sink_free={sink_free} condition_L={condition_L} cofinal={cofinal} "
        "has_cycle={has_cycle} purely_infinite_simple={purely_infinite_simple}\n".format(
            **pis
        )
    )
    for kind, witness in pis["witnesses"]:
        out.write(f"  witness {kind}: {witness}\n")
    canonical = report["canonical"]
    out.write(f"canonical: {canonical['label'] if canonical else 'NONE'}\n")


def _factors_str(factors) -> str:
    return "(" + ",".join(str(d) for d in factors) + ")"


def _cmd_write(args, out) -> int:
    """Write the graph that the subcommand's `build` makes from `args`."""
    text = _json_text(graph_to_dict(args.build(args))) + "\n"
    if args.out is None:
        out.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def _cmd_invariants(args, out) -> int:
    report = invariant_report(_load_graph(args.file))
    if args.json:
        out.write(_json_text(report) + "\n")
    else:
        _print_invariants_text(report, out)
    return 0


def _cmd_classify(args, out) -> int:
    verdict = kp_decide(_load_graph(args.file_a), _load_graph(args.file_b))
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "outcome": verdict.outcome,
            "trace": [list(item) for item in verdict.trace],
        }
        out.write(_json_text(payload) + "\n")
    else:
        out.write(f"outcome: {verdict.outcome}\n")
        for check, result in verdict.trace:
            out.write(f"  {check}: {result}\n")
    return EXIT_CODES[verdict.outcome]


_CHECKED_COLUMNS = ("k0_factors", "det", "det_sign", "canonical")


def _checked_row(factors, det: int, canonical) -> tuple[str, ...]:
    """The `_CHECKED_COLUMNS` of a table row, as printed."""
    label = canonical.label if canonical else "-"
    return (_factors_str(factors), str(det), sign_of(det), label)


def _table_rows(max_n: int, fmt: str = "md") -> list[str]:
    """Rows 1..max_n as `table` writes them in `fmt`, with no elimination
    and no graph.

    C_n's data depend on n mod 6 alone (x^6 = 1, see `circulant_k0`), and
    so does `cayley_class`.  So the rows r = 1..min(max_n, 6) are read by
    `circulant_k0(r)`, checked against the closed form and their five
    columns after `n` written, in that order, so the first row that fails
    is the smallest failing n.  Every row n is then its n plus the text
    of row n mod 6.
    """
    tails = {
        r % 6: _checked_tail(r, circulant_k0(r), fmt)
        for r in range(1, min(max_n, 6) + 1)
    }
    head = '{\n      "n": ' if fmt == "json" else "| "
    return [head + str(n) + tails[n % 6] for n in range(1, max_n + 1)]


def _checked_tail(n: int, k0, fmt: str) -> str:
    """Row n's columns after `n`, as written in `fmt`, once its
    `_CHECKED_COLUMNS` match the closed form of `cayley_class(n)`; `k0`
    is `circulant_k0(n)`, and C_n's unit class is zero."""
    det, factors = k0.det, k0.group.factors
    canonical = _canonical(k0.group, k0.group.zero(), det)
    expected = cayley_class(n)
    want = _checked_row(expected.k0_factors, expected.det, expected.canonical)
    got = _checked_row(factors, det, canonical)
    if got != want:
        i = next(i for i, (w, c) in enumerate(zip(want, got)) if w != c)
        raise _ClosedFormMismatch(
            f"table: n={n}: closed form class {expected.class_id} has "
            f"{_CHECKED_COLUMNS[i]} {want[i]}, computed {got[i]}"
        )
    if fmt == "json":
        columns = {
            "k0_factors": list(factors),
            "det": det,
            "det_sign": got[2],
            "class_id": expected.class_id,
            "canonical": canonical and canonical.label,
        }
        # The row dict's own "{" is `head`; its first item is "n".
        return "," + _json_text(columns, "\n    ")[1:]
    return " | {factors} | {det} | {sign} | {cls} | {canonical} |\n".format(
        factors=got[0], det=got[1], sign=got[2], cls=expected.class_id, canonical=got[3]
    )


def _cmd_table(args, out) -> int:
    if args.max < 1:
        raise _CliError("--max must be at least 1")
    if args.max > _TABLE_CAP:
        raise _CliError(f"--max {args.max} exceeds the cap of {_TABLE_CAP}")
    rows = _table_rows(args.max, args.format)
    if args.format == "json":
        # `_json_text({"schema": SCHEMA_VERSION, "rows": rows})`, with each
        # row already written at its depth.
        out.write(
            f'{{\n  "schema": {SCHEMA_VERSION},\n  "rows": [\n    '
            + ",\n    ".join(rows)
            + "\n  ]\n}\n"
        )
    else:
        out.write("| n | k0_factors | det | det_sign | class | canonical |\n")
        out.write("|---:|---|---:|---|---|---|\n")
        out.write("".join(rows))
    return 0


def _cmd_monoid(args, out) -> int:
    from .monoid import _crosscheck_classes, default_bound, mstar_group, presentation, saturate

    g = _load_graph(args.file)
    pres = presentation(g)
    bound = args.bound if args.bound is not None else default_bound(pres)
    classes = saturate(pres, bound)
    group = mstar_group(classes)
    shown = min(classes.class_count, _MAX_PRINTED_CLASSES)
    payload = {
        "schema": SCHEMA_VERSION,
        "bound": classes.bound,
        "stabilized": classes.stabilized,
        "classes": classes.class_count,
        "nonzero_classes": classes.nonzero_class_count,
        "representatives": [list(classes.representative(c)) for c in range(shown)],
        "group": (
            "NOT_CLOSED"
            if isinstance(group, str)
            else {
                "order": group.order,
                "element_class_ids": list(group.element_class_ids),
                "identity_class": group.identity_class,
                "invariant_factors": list(group.invariant_factors()),
                "table": [list(row) for row in group.table],
            }
        ),
        "crosscheck": _crosscheck_classes(g, classes, group),
    }
    if args.json:
        out.write(_json_text(payload) + "\n")
    else:
        _print_monoid_text(payload, out)
    return 0


def _print_monoid_text(payload: dict, out: IO[str]) -> None:
    for key in ("bound", "stabilized", "classes"):
        out.write(f"{key}: {payload[key]}\n")
    reps = payload["representatives"]
    for i, rep in enumerate(reps):
        out.write(f"  class {i}: representative {rep}\n")
    if payload["classes"] > len(reps):
        out.write(f"  ... ({payload['classes'] - len(reps)} more classes)\n")
    group = payload["group"]
    if group == "NOT_CLOSED":
        out.write("group: NOT_CLOSED\n")
    else:
        out.write(
            f"group: order {group['order']}, invariant factors "
            f"{_factors_str(group['invariant_factors'])}, "
            f"identity class {group['identity_class']}\n"
        )
        for cid, row in zip(group["element_class_ids"], group["table"]):
            out.write(f"  {cid} + .: {row}\n")
    out.write(f"crosscheck: {payload['crosscheck']}\n")


def _cmd_validate(args, out) -> int:
    g = _load_graph(args.file)
    out.write(f"ok: {g.n_vertices} vertices, {g.n_edges} edges\n")
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and shared by every `run`:
    parsing leaves no state in it, and building it costs more than a small
    command's mathematics."""
    parser = _Parser(prog="lpainv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cayley", help="write the Cayley graph of Z/nZ as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_write, build=lambda a: cayley_graph(a.n))

    p = sub.add_parser("rose", help="write the rose with n petals as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_write, build=lambda a: rose_graph(a.n))

    p = sub.add_parser(
        "stemmed-rose", help="write the stemmed rose (d-1 stem edges, n loops)"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_write, build=lambda a: stemmed_rose_graph(a.n, a.d))

    p = sub.add_parser("invariants", help="report all invariants of a graph")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("classify", help="Kirchberg-Phillips decision for a pair")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("table", help="tabulate cyclic Cayley graph invariants")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--format", choices=("md", "json"), default="md")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("monoid", help="box saturation of the graph monoid")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_monoid)

    p = sub.add_parser("validate", help="check a graph JSON file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    return parser


def run(argv, stdout: IO[str] | None = None, stderr: IO[str] | None = None) -> int:
    """Run one CLI invocation; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(out):
            args = parser.parse_args(argv)
        return args.func(args, out)
    except _CliError as exc:
        err.write(f"error: {exc}\n")
        return exc.exit_code
    except SystemExit as exc:  # --help and argparse-internal exits
        return int(exc.code or 0)
    except BrokenPipeError:
        return _EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        code = _EXIT_BROKEN_PIPE
    if code == _EXIT_BROKEN_PIPE:
        # So that the flush at exit does not raise again (see the note on
        # SIGPIPE in the documentation of `signal`)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
