import ast
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from graph_strategies import graph_from_pairs, permute, random_multigraph
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpa_invariants import cli, ktheory
from lpa_invariants.classify import CanonicalAlgebra, CayleyClass, cayley_class
from lpa_invariants.cli import invariant_report, run
from lpa_invariants.graphs import (
    cayley_graph,
    graph_to_dict,
    pis_report,
    stemmed_rose_graph,
)
from lpa_invariants.ktheory import AbelianGroup, analyse
from lpa_invariants.monoid import crosscheck_cokernel, mstar_group, presentation, saturate


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def c_files(tmp_path):
    paths = {}
    for n in (2, 3, 6, 7, 11):
        path = tmp_path / f"c{n}.json"
        code, _, err = invoke(["cayley", "--n", str(n), "--out", str(path)])
        assert code == 0, err
        paths[n] = str(path)
    return paths


class TestGraphWriters:
    def test_cayley_stdout(self):
        code, out, err = invoke(["cayley", "--n", "3"])
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data == graph_to_dict(cayley_graph(3))

    def test_rose_and_stemmed_rose(self, tmp_path):
        rose_path = tmp_path / "r2.json"
        code, _, _ = invoke(["rose", "--n", "2", "--out", str(rose_path)])
        assert code == 0
        assert json.loads(rose_path.read_text())["vertices"] == ["v1"]

        sr_path = tmp_path / "sr.json"
        code, _, _ = invoke(["stemmed-rose", "--n", "4", "--d", "3", "--out", str(sr_path)])
        assert code == 0
        assert json.loads(sr_path.read_text()) == graph_to_dict(stemmed_rose_graph(4, 3))

    def test_rejects_bad_n(self):
        code, _, err = invoke(["cayley", "--n", "0"])
        assert code == 2
        assert err.startswith("error:")


class TestValidate:
    def test_round_trip(self, c_files):
        for path in c_files.values():
            code, out, _ = invoke(["validate", path])
            assert code == 0
            assert out.startswith("ok:")

    def test_rejects_unknown_fields(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": ["v1"], "edges": [], "extra": true}')
        code, _, err = invoke(["validate", str(bad)])
        assert code == 2
        assert err.startswith("error:")

    def test_rejects_broken_json(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = invoke(["validate", str(bad)])
        assert code == 2
        assert err.startswith("error:")

    def test_missing_file(self):
        code, _, err = invoke(["validate", "/nonexistent/graph.json"])
        assert code == 2
        assert err.startswith("error:")


@pytest.mark.parametrize("command", ["validate", "invariants", "classify", "monoid"])
def test_deeply_nested_json_is_one_error_line(tmp_path, command):
    """Nesting past the interpreter's recursion limit is malformed input:
    exit 2, nothing on stdout, one `error:` line."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    files = [str(deep)] * (2 if command == "classify" else 1)
    code, out, err = invoke([command, *files])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "nesting too deep" in err


@pytest.mark.parametrize("command", ["validate", "invariants", "classify", "monoid"])
def test_non_utf8_file_is_named_in_the_error(tmp_path, command):
    """A file that is not UTF-8 is reported like any other JSON fault:
    exit 2, nothing on stdout, one `error:` line naming the file."""
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"vertices": ["\xff"], "edges": []}')
    files = [str(bad)] * (2 if command == "classify" else 1)
    code, out, err = invoke([command, *files])
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {bad} is not valid JSON: 'utf-8' codec can't decode byte 0xff "
        "in position 15: invalid start byte\n"
    )


def _big_graph_text() -> bytes:
    """A valid graph file of 2,000 vertices, longer than 8 KiB."""
    names = ", ".join(f'"v{i}"' for i in range(2000))
    return f'{{"vertices": [{names}], "edges": []}}'.encode()


def _bad_byte_past_8_kib() -> bytes:
    text = _big_graph_text()
    at = text.index(b'"v1500"') + 2
    assert at > 8192
    return text[:at] + b"\xff" + text[at:]


MALFORMED = '{\n  "vertices": ["v1"],\n  "edges": [\n    {"id": "e"\n  ]\n}\n'
# Each file's `error:` line after "error: ", with {path} for its path.
LOAD_FAULTS = {
    "crlf": (
        MALFORMED.replace("\n", "\r\n").encode(),
        "{path} is not valid JSON: Expecting ',' delimiter: line 5 column 3 (char 54)",
    ),
    "lone-cr": (
        MALFORMED.replace("\n", "\r").encode(),
        "{path} is not valid JSON: Expecting ',' delimiter: line 5 column 3 (char 54)",
    ),
    "bom": (
        '\ufeff{"vertices": ["v1"], "edges": []}'.encode(),
        "{path} is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0)",
    ),
    "bad-byte-past-8-KiB": (
        _bad_byte_past_8_kib(),
        "{path} is not valid JSON: 'utf-8' codec can't decode byte 0xff in "
        "position 12406: invalid start byte",
    ),
    "directory": (None, "cannot read {path}: [Errno 21] Is a directory: '{path}'"),
}


@pytest.mark.parametrize("command", ["validate", "invariants", "classify"])
@pytest.mark.parametrize("fault", sorted(LOAD_FAULTS))
def test_loading_faults_pinned(c_files, tmp_path, command, fault):
    """Reading a file gives the same `error:` line and exit 2 as a text-mode
    `json.load`: newlines are translated before parsing, a BOM is a JSON
    fault, a bad byte's position counts from the start of the file, and a
    directory is an OS error.  `classify` meets the fault in either file."""
    data, message = LOAD_FAULTS[fault]
    path = tmp_path / "faulty"
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    want = (2, "", f"error: {message.format(path=path)}\n")
    if command == "classify":
        assert invoke([command, c_files[7], str(path)]) == want
        assert invoke([command, str(path), c_files[7]]) == want
    else:
        assert invoke([command, str(path)]) == want


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_files_load_as_their_lf_text(c_files, tmp_path, newline):
    lf = Path(c_files[7]).read_text()
    other = tmp_path / "c7-other-newlines.json"
    other.write_bytes(lf.replace("\n", newline).encode())
    assert "\r" in other.read_bytes().decode()
    for argv in (["invariants", "--json"], ["classify", c_files[11]]):
        assert invoke([*argv, str(other)]) == invoke([*argv, c_files[7]])
    big = tmp_path / "big.json"
    big.write_bytes(_big_graph_text())
    assert invoke(["validate", str(big)]) == (0, "ok: 2000 vertices, 0 edges\n", "")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_validate_reads_a_pipe_through_dev_stdin():
    """A path that is not a regular file still loads: `validate /dev/stdin`
    reads what another process writes into the pipe."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    command = [sys.executable, "-m", "lpa_invariants.cli"]
    writer = subprocess.Popen([*command, "cayley", "--n", "7"], env=env, stdout=subprocess.PIPE)
    reader = subprocess.run(
        [*command, "validate", "/dev/stdin"],
        env=env,
        stdin=writer.stdout,
        capture_output=True,
        timeout=120,
    )
    writer.stdout.close()
    assert writer.wait(timeout=120) == 0
    assert (reader.returncode, reader.stdout, reader.stderr) == (
        0,
        b"ok: 7 vertices, 14 edges\n",
        b"",
    )


class TestInvariants:
    def test_json_c3(self, c_files):
        code, out, _ = invoke(["invariants", c_files[3], "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["k0_factors"] == [2, 2]
        assert data["det"] == -4
        assert data["det_sign"] == "NEGATIVE"
        assert data["distinguished"] == [0, 0]
        assert data["pis"]["purely_infinite_simple"] is True
        assert data["canonical"] is None
        assert data["snf_diagonal"] == [1, 2, 2]

    def test_text_output(self, c_files):
        code, out, _ = invoke(["invariants", c_files[7]])
        assert code == 0
        assert "k0_factors: ()" in out
        assert "det: -1" in out
        assert "canonical: L(1,2)" in out

    def test_report_consistency(self):
        report = invariant_report(cayley_graph(9))
        prod = 1
        for d in report["k0_factors"]:
            prod *= d
        if all(d != 0 for d in report["k0_factors"]):
            assert prod == abs(report["det"])
        nontrivial = [d for d in report["snf_diagonal"] if d != 1]
        assert nontrivial == report["k0_factors"]


# Graphs that are not purely infinite simple, with the text `invariants`
# prints for each and the value its `--json` output encodes.
NOT_PIS = {
    "sink": (
        graph_from_pairs(1, []),
        """\
graph: 1 vertices, 0 edges
adjacency: [[0]]
b_matrix: [[1]]
snf_diagonal: [1]
k0_factors: ()
vertex_images: [[]]
distinguished: []
det: 1  (POSITIVE)
pis: sink_free=False condition_L=True cofinal=True has_cycle=False purely_infinite_simple=False
  witness sink_free: v0
  witness has_cycle: ['v0']
canonical: NONE
""",
        {
            "schema": 1,
            "graph": {"vertices": 1, "edges": 0},
            "adjacency": [[0]],
            "b_matrix": [[1]],
            "snf_diagonal": [1],
            "k0_factors": [],
            "vertex_images": [[]],
            "distinguished": [],
            "det": 1,
            "det_sign": "POSITIVE",
            "pis": {
                "sink_free": False,
                "condition_L": True,
                "cofinal": True,
                "has_cycle": False,
                "purely_infinite_simple": False,
                "witnesses": [["sink_free", "v0"], ["has_cycle", ["v0"]]],
            },
            "canonical": None,
        },
    ),
    "2-cycle without exit": (
        graph_from_pairs(2, [(0, 1), (1, 0)]),
        """\
graph: 2 vertices, 2 edges
adjacency: [[0, 1], [1, 0]]
b_matrix: [[1, -1], [-1, 1]]
snf_diagonal: [1, 0]
k0_factors: (0)
vertex_images: [[1], [1]]
distinguished: [2]
det: 0  (ZERO)
pis: sink_free=True condition_L=False cofinal=True has_cycle=True purely_infinite_simple=False
  witness condition_L: ['v0', 'v1']
canonical: NONE
""",
        {
            "schema": 1,
            "graph": {"vertices": 2, "edges": 2},
            "adjacency": [[0, 1], [1, 0]],
            "b_matrix": [[1, -1], [-1, 1]],
            "snf_diagonal": [1, 0],
            "k0_factors": [0],
            "vertex_images": [[1], [1]],
            "distinguished": [2],
            "det": 0,
            "det_sign": "ZERO",
            "pis": {
                "sink_free": True,
                "condition_L": False,
                "cofinal": True,
                "has_cycle": True,
                "purely_infinite_simple": False,
                "witnesses": [["condition_L", ["v0", "v1"]]],
            },
            "canonical": None,
        },
    ),
    "acyclic path": (
        graph_from_pairs(2, [(0, 1)]),
        """\
graph: 2 vertices, 1 edges
adjacency: [[0, 1], [0, 0]]
b_matrix: [[1, 0], [-1, 1]]
snf_diagonal: [1, 1]
k0_factors: ()
vertex_images: [[], []]
distinguished: []
det: 1  (POSITIVE)
pis: sink_free=False condition_L=True cofinal=True has_cycle=False purely_infinite_simple=False
  witness sink_free: v1
  witness has_cycle: ['v0', 'v1']
canonical: NONE
""",
        {
            "schema": 1,
            "graph": {"vertices": 2, "edges": 1},
            "adjacency": [[0, 1], [0, 0]],
            "b_matrix": [[1, 0], [-1, 1]],
            "snf_diagonal": [1, 1],
            "k0_factors": [],
            "vertex_images": [[], []],
            "distinguished": [],
            "det": 1,
            "det_sign": "POSITIVE",
            "pis": {
                "sink_free": False,
                "condition_L": True,
                "cofinal": True,
                "has_cycle": False,
                "purely_infinite_simple": False,
                "witnesses": [["sink_free", "v1"], ["has_cycle", ["v0", "v1"]]],
            },
            "canonical": None,
        },
    ),
    # two roses of two petals each, neither reaching the other
    "not cofinal": (
        graph_from_pairs(2, [(0, 0), (0, 0), (1, 1), (1, 1)]),
        """\
graph: 2 vertices, 4 edges
adjacency: [[2, 0], [0, 2]]
b_matrix: [[-1, 0], [0, -1]]
snf_diagonal: [1, 1]
k0_factors: ()
vertex_images: [[], []]
distinguished: []
det: 1  (POSITIVE)
pis: sink_free=True condition_L=True cofinal=False has_cycle=True purely_infinite_simple=False
  witness cofinal: ['v0', 'v1']
canonical: NONE
""",
        {
            "schema": 1,
            "graph": {"vertices": 2, "edges": 4},
            "adjacency": [[2, 0], [0, 2]],
            "b_matrix": [[-1, 0], [0, -1]],
            "snf_diagonal": [1, 1],
            "k0_factors": [],
            "vertex_images": [[], []],
            "distinguished": [],
            "det": 1,
            "det_sign": "POSITIVE",
            "pis": {
                "sink_free": True,
                "condition_L": True,
                "cofinal": False,
                "has_cycle": True,
                "purely_infinite_simple": False,
                "witnesses": [["cofinal", ["v0", "v1"]]],
            },
            "canonical": None,
        },
    ),
    # v0 -> v1 with a loop at v1, and a loop at v2: the least cycle vertex,
    # v1, misses v2, so the cofinal witness starts at v1, not at v0
    "cofinal witness from the least cycle vertex": (
        graph_from_pairs(3, [(0, 1), (1, 1), (2, 2)]),
        """\
graph: 3 vertices, 3 edges
adjacency: [[0, 1, 0], [0, 1, 0], [0, 0, 1]]
b_matrix: [[1, 0, 0], [-1, 0, 0], [0, 0, 0]]
snf_diagonal: [1, 0, 0]
k0_factors: (0,0)
vertex_images: [[1, 0], [1, 0], [0, 1]]
distinguished: [2, 1]
det: 0  (ZERO)
pis: sink_free=True condition_L=False cofinal=False has_cycle=True purely_infinite_simple=False
  witness condition_L: ['v1']
  witness cofinal: ['v1', 'v2']
canonical: NONE
""",
        {
            "schema": 1,
            "graph": {"vertices": 3, "edges": 3},
            "adjacency": [[0, 1, 0], [0, 1, 0], [0, 0, 1]],
            "b_matrix": [[1, 0, 0], [-1, 0, 0], [0, 0, 0]],
            "snf_diagonal": [1, 0, 0],
            "k0_factors": [0, 0],
            "vertex_images": [[1, 0], [1, 0], [0, 1]],
            "distinguished": [2, 1],
            "det": 0,
            "det_sign": "ZERO",
            "pis": {
                "sink_free": True,
                "condition_L": False,
                "cofinal": False,
                "has_cycle": True,
                "purely_infinite_simple": False,
                "witnesses": [["condition_L", ["v1"]], ["cofinal", ["v1", "v2"]]],
            },
            "canonical": None,
        },
    ),
}


@pytest.mark.parametrize("name", list(NOT_PIS))
class TestInvariantsWitnesses:
    def _path(self, tmp_path, name):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_dict(NOT_PIS[name][0])))
        return str(path)

    def test_text(self, tmp_path, name):
        code, out, err = invoke(["invariants", self._path(tmp_path, name)])
        assert (code, err) == (0, "")
        assert out == NOT_PIS[name][1]

    def test_json(self, tmp_path, name):
        code, out, err = invoke(["invariants", self._path(tmp_path, name), "--json"])
        assert (code, err) == (0, "")
        assert out == json.dumps(NOT_PIS[name][2], indent=2) + "\n"


class TestClassify:
    def test_isomorphic_exit_zero(self, c_files):
        code, out, _ = invoke(["classify", c_files[7], c_files[11]])
        assert code == 0
        assert "outcome: Isomorphic" in out

    def test_not_isomorphic_exit_three(self, c_files):
        code, out, _ = invoke(["classify", c_files[3], c_files[7]])
        assert code == 3
        assert "outcome: NotIsomorphic" in out

    def test_not_applicable_exit_five(self, c_files, tmp_path):
        sink = tmp_path / "sink.json"
        sink.write_text('{"vertices": ["v1"], "edges": []}')
        code, out, _ = invoke(["classify", str(sink), c_files[3]])
        assert code == 5
        assert "outcome: NotApplicable" in out

    def test_unknown_exit_four(self, c_files, tmp_path):
        # positive-determinant graph vs rose with two petals
        pos = tmp_path / "pos.json"
        pos.write_text(
            json.dumps(
                {
                    "vertices": ["v1", "v2"],
                    "edges": [
                        {"id": "a1", "source": "v1", "range": "v1"},
                        {"id": "a2", "source": "v1", "range": "v1"},
                        {"id": "b", "source": "v1", "range": "v2"},
                        {"id": "c", "source": "v2", "range": "v1"},
                        {"id": "d1", "source": "v2", "range": "v2"},
                        {"id": "d2", "source": "v2", "range": "v2"},
                        {"id": "d3", "source": "v2", "range": "v2"},
                    ],
                }
            )
        )
        rose = tmp_path / "rose2.json"
        invoke(["rose", "--n", "2", "--out", str(rose)])
        code, out, _ = invoke(["classify", str(pos), str(rose)])
        assert code == 4
        assert "outcome: Unknown" in out

    def test_json_output(self, c_files):
        code, out, _ = invoke(["classify", c_files[7], c_files[11], "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["outcome"] == "Isomorphic"
        assert ["pointed_iso", "YES"] in data["trace"]

    def test_exit_code_ignores_format(self, c_files):
        plain = invoke(["classify", c_files[3], c_files[7]])
        as_json = invoke(["classify", c_files[3], c_files[7], "--json"])
        assert plain[0] == as_json[0] == 3


class TestTable:
    def test_markdown_deterministic(self):
        first = invoke(["table", "--max", "12"])
        second = invoke(["table", "--max", "12"])
        assert first == second
        assert first[0] == 0
        assert "| 6 | (0,0) | 0 | ZERO | ZxZ | - |" in first[1]

    def test_json_rows(self):
        code, out, _ = invoke(["table", "--max", "6", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert [row["k0_factors"] for row in data["rows"]] == [
            [],
            [3],
            [2, 2],
            [3],
            [],
            [0, 0],
        ]
        assert [row["det"] for row in data["rows"]] == [-1, -3, -4, -3, -1, 0]

    def test_cap_has_no_override(self):
        code, out, err = invoke(["table", "--max", "10001"])
        assert (code, out) == (2, "")
        assert err == "error: --max 10001 exceeds the cap of 10000\n"
        for argv in (
            ["table", "--max", "3", "--force"],
            ["table", "--max", "10001", "--force"],
        ):
            code, out, err = invoke(argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: unrecognized arguments: --force")
            assert err.count("\n") == 1 and err.endswith("\n")

    def test_cap_admits_ten_thousand_rows(self):
        code, out, err = invoke(["table", "--max", "10000", "--format", "json"])
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert [row["n"] for row in rows] == list(range(1, 10001))

    def test_rejects_nonpositive(self):
        code, _, err = invoke(["table", "--max", "0"])
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("fmt", ["md", "json"])
    def test_class_column_checked_against_k0_factors(self, monkeypatch, fmt):
        # The closed form of n + 1 is wrong for every n; n = 1 has trivial K0.
        real = cli.cayley_class
        monkeypatch.setattr(cli, "cayley_class", lambda n: real(n + 1))
        code, out, err = invoke(["table", "--max", "6", "--format", fmt])
        assert (code, out) == (6, "")
        assert err == (
            "error: table: n=1: closed form class Z3 has k0_factors (3), computed ()\n"
        )

    def test_class_column_checked_against_canonical_form(self, monkeypatch):
        real = cli.cayley_class

        def wrong_at_5(n):
            if n == 5:
                return CayleyClass("TRIVIAL_K0", (1, 5), (), -1, CanonicalAlgebra(3, 1))
            return real(n)

        monkeypatch.setattr(cli, "cayley_class", wrong_at_5)
        code, out, err = invoke(["table", "--max", "12"])
        assert (code, out) == (6, "")
        assert err == (
            "error: table: n=5: closed form class TRIVIAL_K0 has canonical L(1,3), "
            "computed L(1,2)\n"
        )

    def test_klein_class_has_no_canonical_form(self, monkeypatch):
        real = cli.cayley_class

        def canonical_at_3(n):
            if n == 3:
                return CayleyClass("KLEIN4", (3,), (2, 2), -4, CanonicalAlgebra(2, 1))
            return real(n)

        monkeypatch.setattr(cli, "cayley_class", canonical_at_3)
        code, _, err = invoke(["table", "--max", "3"])
        assert code == 6
        assert err == (
            "error: table: n=3: closed form class KLEIN4 has canonical L(1,2), "
            "computed -\n"
        )

    @pytest.mark.parametrize("fmt", ["md", "json"])
    @pytest.mark.parametrize(
        "wrong_det, message",
        [
            ({3: 5, 6: 1}, "n=3: closed form class KLEIN4 has det -4, computed 5"),
            ({6: 1}, "n=6: closed form class ZxZ has det 0, computed 1"),
        ],
        ids=["klein4", "zxz"],
    )
    def test_det_column_checked_against_class(
        self, monkeypatch, fmt, wrong_det, message
    ):
        # Neither wrong det changes the canonical column: KLEIN4 and ZxZ
        # have non-cyclic K0, so only the det check can see it.
        real = cli.circulant_k0

        def patched(n):
            k0 = real(n)
            return k0._replace(det=wrong_det[n]) if n in wrong_det else k0

        monkeypatch.setattr(cli, "circulant_k0", patched)
        code, out, err = invoke(["table", "--max", "6", "--format", fmt])
        assert (code, out, err) == (6, "", f"error: table: {message}\n")

    @pytest.mark.parametrize("fmt", ["md", "json"])
    @pytest.mark.parametrize(
        "n, change, canonical, message",
        [
            (
                3,
                {"group": AbelianGroup((4,))},
                None,
                "n=3: closed form class KLEIN4 has k0_factors (2,2), computed (4)",
            ),
            (
                4,
                {"group": AbelianGroup((0,))},
                None,
                "n=4: closed form class Z3 has k0_factors (3), computed (0)",
            ),
            (
                # The unit class read as 1 in Z/3, not 0.
                2,
                {},
                lambda real, group, unit, det: real(group, group.element((1,)), det),
                "n=2: closed form class Z3 has canonical M_3(L(1,4)), computed L(1,4)",
            ),
            (
                # The row read as for a graph that is not PIS.
                5,
                {},
                lambda real, group, unit, det: None,
                "n=5: closed form class TRIVIAL_K0 has canonical L(1,2), computed -",
            ),
        ],
        ids=["klein4-factor", "z3-factor", "unit-class", "pis-flag"],
    )
    def test_k0_and_canonical_columns_checked_against_class(
        self, monkeypatch, fmt, n, change, canonical, message
    ):
        # `circulant_k0` builds a fresh group for every n, so row n's
        # `_canonical` call is the one that gets row n's group.
        real, real_canonical = cli.circulant_k0, cli._canonical
        groups = {}

        def patched(m):
            k0 = real(m)._replace(**change) if m == n else real(m)
            groups[m] = k0.group
            return k0

        def patched_canonical(group, unit, det):
            if canonical and group is groups.get(n):
                return canonical(real_canonical, group, unit, det)
            return real_canonical(group, unit, det)

        monkeypatch.setattr(cli, "circulant_k0", patched)
        monkeypatch.setattr(cli, "_canonical", patched_canonical)
        code, out, err = invoke(["table", "--max", "6", "--format", fmt])
        assert (code, out, err) == (6, "", f"error: table: {message}\n")

    @pytest.mark.parametrize("fmt", ["md", "json"])
    def test_det_of_a_companion_power_checked_at_its_first_row(
        self, monkeypatch, fmt
    ):
        # x^n = -1 at n = 3 (and again at n = 9, 15, ...): its one
        # reading, of C^3 - I = -2I, gets a wrong det.  Every row of the
        # residue reuses it, so its first row is the one the error names.
        real = ktheory._circulant_read

        def corrupted(power):
            result = real(power)
            if power == (-1, 0):
                return result._replace(det=result.det - 1)
            return result

        monkeypatch.setattr(ktheory, "_circulant_read", corrupted)
        code, out, err = invoke(["table", "--max", "12", "--format", fmt])
        assert (code, out) == (6, "")
        assert err == (
            "error: table: n=3: closed form class KLEIN4 has det -4, computed -5\n"
        )

    def test_closed_form_matches_analyse(self):
        for n in range(1, 61):
            analysis = analyse(cayley_graph(n))
            cls = cayley_class(n)
            computed = (analysis.k0.group.factors, analysis.det)
            assert (cls.k0_factors, cls.det) == computed, n

    @staticmethod
    def reference_stdout(max_n, fmt):
        """`table`'s stdout, written row by row from `cayley_class`."""
        classes = [(n, cayley_class(n)) for n in range(1, max_n + 1)]

        def sign(det):
            return {-1: "NEGATIVE", 0: "ZERO", 1: "POSITIVE"}[(det > 0) - (det < 0)]

        if fmt == "json":
            rows = [
                {
                    "n": n,
                    "k0_factors": list(cls.k0_factors),
                    "det": cls.det,
                    "det_sign": sign(cls.det),
                    "class_id": cls.class_id,
                    "canonical": cls.canonical.label if cls.canonical else None,
                }
                for n, cls in classes
            ]
            return json.dumps({"schema": 1, "rows": rows}, indent=2) + "\n"
        lines = [
            "| n | k0_factors | det | det_sign | class | canonical |\n",
            "|---:|---|---:|---|---|---|\n",
        ]
        for n, cls in classes:
            factors = ",".join(map(str, cls.k0_factors))
            label = cls.canonical.label if cls.canonical else "-"
            lines.append(
                f"| {n} | ({factors}) | {cls.det} | {sign(cls.det)} | "
                f"{cls.class_id} | {label} |\n"
            )
        return "".join(lines)

    @pytest.mark.parametrize("fmt", ["md", "json"])
    @pytest.mark.parametrize("max_n", [*range(1, 14), 100, 500, 10_000])
    def test_bytes_match_the_closed_form(self, fmt, max_n):
        code, out, err = invoke(["table", "--max", str(max_n), "--format", fmt])
        assert (code, err) == (0, "")
        assert out == self.reference_stdout(max_n, fmt)

    def test_closed_form_reads_n_mod_6_alone(self):
        # `table` checks and writes the row of each residue n mod 6 once
        # and reuses its text for every n, which is sound only while this
        # holds (and while `circulant_k0` reads n mod 6 alone, which
        # tests/test_circulant.py checks against a walk and a recursion).
        def read(cls):
            return (cls.class_id, cls.k0_factors, cls.det, cls.canonical)

        for n in range(1, 10_001):
            assert read(cayley_class(n)) == read(cayley_class((n - 1) % 6 + 1)), n

    @pytest.mark.parametrize("fmt", ["md", "json"])
    @pytest.mark.parametrize(
        "r, change, message",
        [
            (
                1,
                {"group": AbelianGroup((3,))},
                "n=1: closed form class TRIVIAL_K0 has k0_factors (), computed (3)",
            ),
            (0, {"det": 1}, "n=6: closed form class ZxZ has det 0, computed 1"),
        ],
        ids=["trivial-factor", "zxz-det"],
    )
    def test_later_row_of_a_checked_residue_is_checked(
        self, monkeypatch, fmt, r, change, message
    ):
        # A wrong reading for every n = r mod 6, the later rows 13 or 18
        # among them, exits 6 at the residue's first row, whatever --max.
        real = cli.circulant_k0

        def patched(m):
            k0 = real(m)
            return k0._replace(**change) if m % 6 == r else k0

        monkeypatch.setattr(cli, "circulant_k0", patched)
        for max_n in ("24", "10000"):
            code, out, err = invoke(["table", "--max", max_n, "--format", fmt])
            assert (code, out, err) == (6, "", f"error: table: {message}\n"), max_n


# The first 100 of the 218 classes of C_6 in the box of bound 8, each
# representative written as its six digits.
C6_BOUND8_REPRESENTATIVES = [
    [int(x) for x in digits]
    for digits in (
        "000000 000001 000002 000003 000004 000005 000006 000007 000008 000010 "
        "000011 000012 000013 000014 000015 000016 000017 000020 000021 000022 "
        "000023 000024 000025 000026 000030 000031 000032 000033 000034 000035 "
        "000040 000041 000042 000043 000044 000050 000051 000052 000053 000060 "
        "000061 000062 000070 000071 000080 000100 000110 000120 000130 000140 "
        "000150 000160 000170 000200 000210 000220 000230 000240 000250 000260 "
        "000300 000310 000320 000330 000340 000350 000400 000410 000420 000430 "
        "000440 000500 000510 000520 000530 000600 000610 000620 000700 000710 "
        "000800 001000 001001 001100 001200 001300 001400 001500 001600 001700 "
        "002000 002100 002200 002300 002400 002500 002600 003000 003100 003200"
    ).split()
]


class TestMonoid:
    def test_empty_graph_has_no_group(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"vertices": [], "edges": []}')
        code, out, err = invoke(["monoid", str(path)])
        assert (code, err) == (0, "")
        assert out == (
            "bound: 8\n"
            "stabilized: True\n"
            "classes: 1\n"
            "  class 0: representative []\n"
            "group: NOT_CLOSED\n"
            "crosscheck: INCONCLUSIVE\n"
        )

    def test_c3_json(self, c_files):
        code, out, _ = invoke(["monoid", c_files[3], "--bound", "8", "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["classes"] == 5
        assert data["stabilized"] is True
        assert data["group"]["invariant_factors"] == [2, 2]
        assert data["crosscheck"] == "MATCH"

    def test_c6_not_closed(self, c_files):
        code, out, _ = invoke(["monoid", c_files[6], "--bound", "8"])
        assert code == 0
        assert "group: NOT_CLOSED" in out
        assert "crosscheck: INCONCLUSIVE" in out

    def test_c3_text_pinned(self, c_files):
        code, out, err = invoke(["monoid", c_files[3], "--bound", "8"])
        assert (code, err) == (0, "")
        assert out == (
            "bound: 8\n"
            "stabilized: True\n"
            "classes: 5\n"
            "  class 0: representative [0, 0, 0]\n"
            "  class 1: representative [0, 0, 1]\n"
            "  class 2: representative [0, 0, 2]\n"
            "  class 3: representative [0, 1, 0]\n"
            "  class 4: representative [0, 1, 1]\n"
            "group: order 4, invariant factors (2,2), identity class 2\n"
            "  1 + .: [2, 1, 4, 3]\n"
            "  2 + .: [1, 2, 3, 4]\n"
            "  3 + .: [4, 3, 2, 1]\n"
            "  4 + .: [3, 4, 1, 2]\n"
            "crosscheck: MATCH\n"
        )

    def test_c6_text_prints_the_first_classes_only(self, c_files):
        code, out, err = invoke(["monoid", c_files[6], "--bound", "8"])
        assert (code, err) == (0, "")
        assert out == (
            "bound: 8\n"
            "stabilized: False\n"
            "classes: 218\n"
            + "".join(
                f"  class {i}: representative {rep}\n"
                for i, rep in enumerate(C6_BOUND8_REPRESENTATIVES)
            )
            + "  ... (118 more classes)\n"
            "group: NOT_CLOSED\n"
            "crosscheck: INCONCLUSIVE\n"
        )

    def test_c6_json_prints_the_first_classes_only(self, c_files):
        code, out, err = invoke(["monoid", c_files[6], "--bound", "8", "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "schema": 1,
            "bound": 8,
            "stabilized": False,
            "classes": 218,
            "nonzero_classes": 217,
            "representatives": C6_BOUND8_REPRESENTATIVES,
            "group": "NOT_CLOSED",
            "crosscheck": "INCONCLUSIVE",
        }

    def test_default_bound_applies(self, c_files):
        code, out, _ = invoke(["monoid", c_files[2]])
        assert code == 0
        assert "bound: 8" in out  # max(8, 2*2*2)

    def test_bound_too_small(self, c_files):
        code, _, err = invoke(["monoid", c_files[3], "--bound", "1"])
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "n, bound",
        [
            (11, 40),  # C(51, 11) vectors
            (1, 40_000),  # past the int16 coordinates
        ],
    )
    def test_oversized_box_is_an_error(self, tmp_path, n, bound):
        path = tmp_path / f"c{n}.json"
        assert invoke(["cayley", "--n", str(n), "--out", str(path)])[0] == 0
        code, out, err = invoke(["monoid", str(path), "--bound", str(bound)])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "n, bound, reps, group",
        [
            (7, 11, [[0] * 7, [0] * 6 + [1]], ([1], 1, [], [[1]])),
            (
                9,
                9,
                [[0] * 9, [0] * 8 + [1], [0] * 8 + [2], [0] * 7 + [1, 0], [0] * 7 + [1, 1]],
                ([1, 2, 3, 4], 2, [2, 2], [[2, 1, 4, 3], [1, 2, 3, 4], [4, 3, 2, 1], [3, 4, 1, 2]]),
            ),
            (11, 8, [[0] * 11, [0] * 10 + [1]], ([1], 1, [], [[1]])),
        ],
    )
    def test_benchmark_cayley_shapes_pinned(self, tmp_path, n, bound, reps, group):
        """`monoid --json` on the largest Cayley boxes of the `monoid-box`
        benchmark, as the whole-box translation rounds computed them."""
        path = tmp_path / f"c{n}.json"
        assert invoke(["cayley", "--n", str(n), "--out", str(path)])[0] == 0
        code, out, err = invoke(["monoid", str(path), "--bound", str(bound), "--json"])
        assert (code, err) == (0, "")
        ids, identity, factors, table = group
        assert json.loads(out) == {
            "schema": 1,
            "bound": bound,
            "stabilized": True,
            "classes": len(reps),
            "nonzero_classes": len(reps) - 1,
            "representatives": reps,
            "group": {
                "order": len(ids),
                "element_class_ids": ids,
                "identity_class": identity,
                "invariant_factors": factors,
                "table": table,
            },
            "crosscheck": "MATCH",
        }

    @pytest.mark.parametrize("n, bound", [(3, 8), (6, 10), (7, 11)])
    def test_json_agrees_with_public_api(self, c_files, n, bound):
        """The command's own crosscheck gives what the public calls give."""
        code, out, _ = invoke(["monoid", c_files[n], "--bound", str(bound), "--json"])
        assert code == 0
        g = cayley_graph(n)
        classes = saturate(presentation(g), bound)
        group = mstar_group(classes)
        assert json.loads(out) == {
            "schema": 1,
            "bound": bound,
            "stabilized": classes.stabilized,
            "classes": classes.class_count,
            "nonzero_classes": classes.nonzero_class_count,
            "representatives": [list(r) for r in classes.representatives()[:100]],
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
            "crosscheck": crosscheck_cokernel(g, bound),
        }


# sha256 of the `monoid --json` stdout on C_n at `--bound b`, for every box
# of C_3..C_12 at bounds 8..12 with at most 200,000 vectors.  The
# saturation may change how it reaches its classes, not a byte of this.
MONOID_JSON_SHA256 = {
    (3, 8): "fc8757056d3c431ebb4253079ecdbfaf35fe0bf987ca8f895aff3132217af011",
    (3, 9): "f3f4731e184daaf84e2563da2c4acc2006c72fd513f07367b70190691544ac78",
    (3, 10): "ceb1005bba80ed9e02fe0d8ab961985de644fa6c074a2cb033c2e9c06df0a2a0",
    (3, 11): "7beba6a1277d98b6f0b73513cac984b5a47ae6ee01fab380f2bdb9292d73571c",
    (3, 12): "4290100db6fe527799cfff8a2c1b6e2f9df3335846de9ebc9bc99fb3d0b14c3d",
    (4, 8): "9f340b81e92cceeafe7e133d23a114233aabb42c04bb4af46c1fb07d19af981b",
    (4, 9): "ffbf093108b874b8d5c965df077dbd8d9866ccafca581bd2f1431b04608cd369",
    (4, 10): "34f22b132c6344ff41a7379d7249dd18f61f08c38cfcfd2a387be2b8c3b97aaa",
    (4, 11): "1006b2a3039385b8ecea17d516508c4227ba223b6a2a21b8933b46fbd3631cca",
    (4, 12): "1ea63f364fa9f4ee9985e3d5dc66d466b5c3d47a0ee862b7d32c66e3e4670b19",
    (5, 8): "c0877877683c2a49b07046645d9044d89372829ec49d7c6d47b665196ef7de3e",
    (5, 9): "7c0a7ccc40f91e26bd1ea8dba16c0a8cd76c5c9e21954037550785cba105ce48",
    (5, 10): "bdf5775d45523083acbcf69fe365518221278d254aec72b508c1eac8b32dc666",
    (5, 11): "9df006a0b312574b88fbd859c1dd5ff65e248851aa38010ded01a64cae126363",
    (5, 12): "a8cf4340c7b9c0eeba5471cc56c9c75454bc8e70f41c20d3f49a345effbb0c5f",
    (6, 8): "a6107a59bf5f203812caf4eb95d07607fc7fb455327d15eb9113867928612097",
    (6, 9): "107974d877bff9ef29ac1b1178862c9dd32bcdbb5ab3ac8aac2537f7d6075823",
    (6, 10): "19db79f19a624f46c2daa6ce7754067830951623f0940de1977d1d920f4fc859",
    (6, 11): "b09c8ed9332b8bd18b488045a59e3cd474b991a41db6090432beda88d1de610a",
    (6, 12): "6e68a305a2b572382f0113f2d2484f5ffcd22ab8ae38bc134068a475a620e9d9",
    (7, 8): "508f46ff593f40ab04adf6869bf68ea6092ce4cd3dea60666af969bcf4c8d931",
    (7, 9): "38bfceef4e35c79bc51dfc68c964a8bc92c61204b41c44cc59e9e2f20a65141b",
    (7, 10): "1efc638d751bbdd292d7bd19a035bb8ae6772952f55982afbfb6594851d76ac5",
    (7, 11): "bba0bc8fc8ad6e49487809ec21b9431043bd50335fd9007517e9e530362a6b8d",
    (7, 12): "25e410f95e7c771ff4c4b8626b26fab26c8e85cb8246d538249f496e87683ec3",
    (8, 8): "eb61ad89b56bac9ea929ccb804f2e0adbaefa24f206a6036978d43db2cf9f7e7",
    (8, 9): "b450e02bc564d89bc6caf2245083058f6509033099b2ed65015ce6c3b676f8a8",
    (8, 10): "b3aa2855cc135bcb54bba662c23edc586e83062e9c7d3ab6ad72b0cd5075107e",
    (8, 11): "aff96ba5f0e778b367baeb6572b7283e8e4bd11d5a7cb304918f2812774c8c88",
    (8, 12): "9410b8ada09a2a67718c38745f15182c3fd4820d7cb6d267e9272be9d6c69e95",
    (9, 8): "0ec1eaf33fe2b1e35e3d55e983b04fddf0391836f671a5a95e1aa23367669754",
    (9, 9): "55af31551904d6cc6168cd99d27b786a997cdae34563a4856fa20a8fb0fe02b6",
    (9, 10): "b3646e1e7a663fc4a496e198907d7633d9d3b727c7f5eb25f871cba244328092",
    (9, 11): "0d6760bf368b9171a156368c0368070053566510c67744e1091caf5f65ce1039",
    (10, 8): "93e6b391ccad87cc63a945213d704a30203e44cd1174e011e22590500a143ece",
    (10, 9): "a8ef245fe6e015cbada8181d88eb5c9e774817aedc365a80f9d4a75ecf8b1e21",
    (10, 10): "ff5e911851711cd40af2b25e10560446cfb18cac2f0154152213ac621f175db3",
    (11, 8): "245585d5dbb4c763756adfa15c593d878ac03aee410029774da33ac36e61424a",
    (11, 9): "a86395d4b58d1ed2eeb86a419a8a67e2acd1373a1357652cf6b0e68b4594a7f1",
    (12, 8): "6afcc40f25032da0a08508df6173d99422a5e293cb54b1991168b36ec5765299",
}


@pytest.mark.parametrize("n, bound", sorted(MONOID_JSON_SHA256))
def test_monoid_json_bytes_pinned(tmp_path, n, bound):
    assert math.comb(n + bound, n) <= 200_000
    path = tmp_path / f"c{n}.json"
    assert invoke(["cayley", "--n", str(n), "--out", str(path)])[0] == 0
    code, out, err = invoke(["monoid", str(path), "--bound", str(bound), "--json"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == MONOID_JSON_SHA256[n, bound]


def _invariants_cases():
    """(id, graph) for the pinned `invariants --json` outputs: C_1..C_24,
    40 seeded dense multigraphs drawn as the `invariants-dense` workload
    draws them, and the first 20 purely infinite simple 3-6-vertex
    multigraphs of seeds 0, 1, ..."""
    cases = [(f"cayley-{n}", cayley_graph(n)) for n in range(1, 25)]
    for seed in range(40):
        rng = random.Random(seed)
        g = random_multigraph(rng, rng.randint(12, 28), rng.uniform(0.2, 0.8))
        cases.append((f"dense-{seed}", g))
    for seed in itertools.count():
        rng = random.Random(seed)
        g = random_multigraph(rng, rng.randint(3, 6), rng.uniform(0.2, 0.6))
        if pis_report(g).purely_infinite_simple:
            cases.append((f"pis-{seed}", g))
            if len(cases) == 84:
                return cases


INVARIANTS_CASES = _invariants_cases()
# sha256 of the JSON list [exit code, stdout, stderr] of `invariants --json`
# on each case.  The vertex images and the distinguished element are read
# off the elimination's row log, so a change to its pivots changes them
# (and these hashes) on purpose; nothing else may.
INVARIANTS_JSON_SHA256 = {
    "cayley-1": "2a473584f61a2547587ffc186c93c7ccbbf693a2c41bef6f503cc01aabfd0d88",
    "cayley-2": "fc078bf5c183b9d03d024a881fd3c19453a0649bb0dcd359670de33e4dd18fe3",
    "cayley-3": "1883d716cafb2e75da624f4b78c063ad3e5579adad45d4f5440a230ac0672f52",
    "cayley-4": "45418e47d6596bf10b769b903212d431ee1c7c6cfc45825bbd092cb4cddce730",
    "cayley-5": "e3649d398a7144ee8f4b1c8554bbefc2f46b3e8851585dcef041e361fb773288",
    "cayley-6": "b38ba1ad51bf029e91fd86ccabed7602574e1b5115b48b7386d4ebb6aaacd1b2",
    "cayley-7": "f60012f28058dba1e8699406c2513d09e1d551ef4d45ccff819387d98bd79613",
    "cayley-8": "123c46c6cae5fdf532332f64e422a0f50c27c5b30a92961df0d1f833cc614684",
    "cayley-9": "1404876ecbf9d5e2cabcdbdcb2aa9fe32729a5bb53c6d52fbbbdac7d92672597",
    "cayley-10": "7cd0929c6ef63236022ef7fdc568ebe82d83f40618aa90bd3fe1af5d27d8d685",
    "cayley-11": "56f2f1d1f81e1022bf9a848ad84c44e2c3589c3f368b3058a994feb91da56f57",
    "cayley-12": "f37620c4348770b903b381a45fcd7acd25a54e467cb74e3b61d822ff37dc5719",
    "cayley-13": "2263ed14b5362c82cfeb14c67d9ec051349c94e7683cb93b20bb975e8c2f864a",
    "cayley-14": "018692d9d63e58f8a8e6aeaca12e2cfdb99819390a67f475515960a0a540ea9d",
    "cayley-15": "250886f70e5a9bbd4fd22493900fb134dcc60ddb65e7e827b46b505f795bc27a",
    "cayley-16": "a1c000a602bc9933c9851523f99bfd2748af50b1d1be86abb2961b40aca6a9a2",
    "cayley-17": "cdb14f91a6b85617923bb7b648dfd01ea7760a213c4c51dbf2280788387f75d4",
    "cayley-18": "d31d85d1a7765cc42e973e5d7bc1ee4273c1996bf5bdbcbab7f4cba935b90b89",
    "cayley-19": "f7cae0bb0d92f4f21cb9ae1d91101ff43a4ff653c02dfd0a0b8097ed2f662428",
    "cayley-20": "780b2c6246d5e8eb6a391061eae347f705cd2c39fe20f9c642456bc74b419a2e",
    "cayley-21": "0c4d7fd1ba1d47388bb638293226dd4c1ceac07e0c75a09440cfafb26e066b53",
    "cayley-22": "ae20c5b6356cee599c75d9165b3069595e20d589cbca7d9739b02564cdc07ef4",
    "cayley-23": "814984962a823c97ed29ae2613ee9ef227dbfcdf1a1c2afb13c6963a661e40b4",
    "cayley-24": "ee9e65479989db4b41a4a3dec3a6d51da4e6ee6595f4c31461cd6160d8edc7a6",
    "dense-0": "a7de01f927d81c79379e8e80ba05150f725cb3c639a652a706eee0216bc499a5",
    "dense-1": "6c41dd4c05e565a7fafd6ef310789a88b6d37108787dae011b0543c86224a08b",
    "dense-2": "8785076fea0219a3550c02ec17923e6e118a85ae12f2d8d4d26ad625a2d4b449",
    "dense-3": "8d419b2a4e58833636104f5f94ddef56584b4caaf964f3ac98d6b8cd1a333497",
    "dense-4": "a955d5f55d0783516da43b647decc98a81f80e2cee9bff6a1d3758c1cb395566",
    "dense-5": "b10394cf8ce2b07da759e5cdd3dc91ffea6662e8d3eb9af6b36150abed7accf5",
    "dense-6": "f52e3aedd7e033d66a5772c64eee4c055d9287da0d1a6f0acf7735660ba54265",
    "dense-7": "0a8f992b8a40c5867ee4b0eb4f7612d1566a60a900d83438fcd3d488f4fa0f44",
    "dense-8": "39e27f11b9d2a9b6824edc30ee5853d0580b54df64c953db42d793fd5a27a57e",
    "dense-9": "d56e7eed869a8ecdd55a9d06158eb3ab7be9bbf04ad07e988e60f14c1ba73de5",
    "dense-10": "1f702fd96dd05eb049a00b650b18993dbe22199f2a5ade8992508d2a13040a62",
    "dense-11": "b1120171f852300c8b751015e107b40d439ed9bc200c1896d0e86cc5c356cea4",
    "dense-12": "46803811aef0163c5fa978c3c536fe3478fa53619d1667cf11719bc830f6955b",
    "dense-13": "f14ad005879fe94c0d0778c66cae73fd08c521a62e7ec327253751c47ddc617e",
    "dense-14": "a659244ceb322bfa2d87be89139ef7d91037c14a45b4ba04ffe9718af53e1373",
    "dense-15": "b7e25e9bfce6447f34176883499b68e1eea8956cfbdf43a0ed054de6bf0475c1",
    "dense-16": "63213f10f009d2f4b5fa23053409d1f22019d026c32afb501f9b30039f645be3",
    "dense-17": "44a83bade5a0c7bf267db476239110fc02be0c5f4ca04e9531dd688b9f0c4da4",
    "dense-18": "96b1ecbdd26b547e28f033fa0040dc20edcf55674d97dfc9b0bfa2a31781a123",
    "dense-19": "f9c6493944ee486ba87dfff5bdb3b9734b692340adf123553ee56644f5c82b8b",
    "dense-20": "6743bfba006d64102f10e53d93d61d071d82593858c28d0b606d372fc8a0c7be",
    "dense-21": "6a8c720568db480bf36cea7280845323c70d8c3d4e92e49c73f952135fe3f23e",
    "dense-22": "5b92a447cb72e00ba96ad6cb3825a47f294e7941fec7472403eceda1e8cd129b",
    "dense-23": "73683fa3799258be1d4631fa1da1a7586cd3719036973e712414124292641c00",
    "dense-24": "5091c4dca438137c9c280201a2f9fd2f5f5893d9649b7699f2052a0a911b0b05",
    "dense-25": "b9f5c77f5787299e44984b545ab4291abd7753b387162ea13ec1677d4093695a",
    "dense-26": "8d163c0000f21a7e7bff216148ac88c9817e7ca1f7a16e7fc76070535eba6378",
    "dense-27": "03a7690255882d452d8ed2f992d6a5e24ecbad84f357a50bcff15a7577a6f3b4",
    "dense-28": "6d6fbdace6faf081251e250e044c60a744aa8c74428c91a670e7838d0b978750",
    "dense-29": "c692babf64e5b65aaae9fc65fd3c0eba5b443a086395dc53d6a979d1c40443fa",
    "dense-30": "86a639a56c6d6bb00f506764ce9b4231ceecaf9b7d510520677fc82241b72f08",
    "dense-31": "32c3954b08a7efa15d065b916abf42d19737892e5bbcec0705382a2f9cbef3c2",
    "dense-32": "465e0f941565e4d09aea7f911052f071e25293df80c036408bccc470d662a811",
    "dense-33": "05ffd8519347ac6dd207e190be47446542c758e3c010e4c33771193778a34bc6",
    "dense-34": "ba1ee2c1fd0aef2faf00fea1dbdb964a16b2300bcaafeaa26f1b81df0d3ff86b",
    "dense-35": "49b37df88ff6aedbec8fcc5d875ec33e305774b9bd65f8b3298491ba3c08c6a8",
    "dense-36": "7dc4a995b4e6f36a717b03766e2198a8de57f4879c7b9dc8c76ad9fb413584d8",
    "dense-37": "de311845340158904a2b1250c90deba50e33ecf689cea02f4fd271f61adf0a8f",
    "dense-38": "0ba308a7ab776c825741facc5c43489071b0b0aec52a2d823be24178e8d251ae",
    "dense-39": "4a9a888a172c4feef7a5a652be5a23d04a22e4107822950a91a4c18ff11ffca7",
    "pis-0": "8391b065b5c1f663a3e560d2cbb19abb16501f146baca00b16a82441bca74c60",
    "pis-5": "d13b5ac9a0f5e61880df6698d406216a2633e1aa142602f839256f778d3bcfcf",
    "pis-7": "1f97a134ffa59f1569272b247ba8f41a76570b3edee64fc1988e7a32580a1105",
    "pis-9": "278ec270f602b6b8b38f547e718936f5d49c1b165736d7c9be83cc2154a8b6c7",
    "pis-11": "6d16455a6cc9a89eda3cf49b3440b6b463fd3c8976ffdb300e6da96096183807",
    "pis-14": "47f168d575ca3a72bfb76b121996a5da1267d0a9e1cac968eedad897ae17a05d",
    "pis-16": "010ee303d5c4b14c9c9be9c51fd3464121a821a14882ae15c6689d2880df1aa9",
    "pis-17": "f3ab82bbe35a98b4c7f6eb298461f314277ef7da69f53dfb13ae13d0385bd959",
    "pis-19": "55384c9c324f986baf136990954275e27f4df3b13350035a053dc3dce65935e7",
    "pis-24": "83f0a2263a1bf5aecc3e11f621f90f82bef2f7e6c079b18ce99ca3448c8d7274",
    "pis-27": "f9472d125062cab82768332bebebf08ec8d321fcc59203d6301c255a082132a6",
    "pis-28": "6650ee4707842a5355d72baa0f9a296fb34635ed5076ffa028b0bc085f657a4b",
    "pis-30": "8edcca7efa1f38c27b1649367dd005df03038da2bf93178ef7ca1d4b70ddb1b1",
    "pis-31": "3004aedbc0e4da41aee10abbc24e6d20b2c1b90286f2e58adb12cf55adfb3319",
    "pis-32": "213ce7f504ecfc0f5f9b1e13c03285e920e6ce6fea9f512f3e56ea56b5ead48b",
    "pis-34": "574fc27f1c5ae3f0715535f609f7a4d2f68c6bb37e2b35f7813e2d2ff13f8869",
    "pis-35": "bac1184eb71aa0903ebe135b6adb34b89f6a86d3cb3b2e393a38498983291fcb",
    "pis-38": "563b60092d57b70966ece0094a87557c915167d032a559656e425777c2ad2248",
    "pis-40": "76550012b608f3665f4a1b2e379581a3f5db1e2172a335383100b9a9ff3bb8a8",
    "pis-50": "5db34ebc3b8f5acc18285141f045b499d130113b0d46c71e1eb7e1d14e2769f8",
}


@pytest.mark.parametrize(
    "name, g", INVARIANTS_CASES, ids=[name for name, _ in INVARIANTS_CASES]
)
def test_invariants_json_bytes_pinned(tmp_path, name, g):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_dict(g)))
    result = invoke(["invariants", str(path), "--json"])
    digest = hashlib.sha256(json.dumps(result).encode()).hexdigest()
    assert digest == INVARIANTS_JSON_SHA256[name]


def _monoid_summary(g, bound, path):
    path.write_text(json.dumps(graph_to_dict(g)))
    code, out, err = invoke(["monoid", str(path), "--bound", str(bound), "--json"])
    assert code == 0, err
    data = json.loads(out)
    group = data["group"]
    return {
        "classes": data["classes"],
        "nonzero_classes": data["nonzero_classes"],
        "stabilized": data["stabilized"],
        "order": None if group == "NOT_CLOSED" else group["order"],
        "invariant_factors": None if group == "NOT_CLOSED" else group["invariant_factors"],
        "crosscheck": data["crosscheck"],
    }


# A source feeding a three-petal rose that shares a 2-cycle with a third
# vertex: purely infinite simple, with K0 = Z/3.
SOURCE_INTO_ROSE = graph_from_pairs(3, [(0, 1), (1, 1), (1, 1), (1, 1), (1, 2), (2, 1)])


@pytest.mark.parametrize(
    "g, bound, orders",
    [
        (cayley_graph(5), 10, [(4, 3, 2, 1, 0), (1, 3, 0, 4, 2), (2, 0, 1, 4, 3)]),
        (SOURCE_INTO_ROSE, 10, list(itertools.permutations(range(3)))[1:]),
    ],
    ids=["C5", "source_into_rose"],
)
def test_monoid_ignores_vertex_order(tmp_path, g, bound, orders):
    expected = _monoid_summary(g, bound, tmp_path / "g.json")
    assert expected["crosscheck"] == "MATCH"
    for k, order in enumerate(orders):
        assert _monoid_summary(permute(g, order), bound, tmp_path / f"p{k}.json") == expected


class TestArgumentErrors:
    def test_unknown_subcommand(self):
        code, _, err = invoke(["frobnicate"])
        assert code == 2
        assert err.startswith("error:")

    def test_missing_required_flag(self):
        code, _, err = invoke(["cayley"])
        assert code == 2
        assert err.startswith("error:")

    def test_bad_flag_value(self):
        code, _, err = invoke(["cayley", "--n", "seven"])
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [["--help"], ["table", "--help"]])
    def test_help_goes_to_the_given_stdout(self, argv, capsys):
        code, out, err = invoke(argv)
        assert code == 0 and err == ""
        assert out.startswith("usage: lpainv")
        assert capsys.readouterr() == ("", "")


class ClosedPipe(io.StringIO):
    """An output stream whose reader has gone: every write fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [["table", "--max", "12"], ["cayley", "--n", "3"], ["--help"], ["table", "--help"]],
)
def test_closed_output_is_not_an_input_error(argv):
    # No `error:` line, and not exit 2, which means malformed input
    err = io.StringIO()
    assert run(argv, stdout=ClosedPipe(), stderr=err) == 141
    assert err.getvalue() == ""


@pytest.mark.parametrize("table_max, lines_read", [(10_000, 1), (12, 0)])
def test_reader_closing_early_ends_the_process_quietly(table_max, lines_read):
    """The reader takes one line of a long table and closes the pipe, or
    closes it before the command starts, so that a short table fails only
    when stdout is flushed at exit.  Either way the process exits 141 and
    writes nothing to stderr, not even from the interpreter's last flush."""
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    read, write = os.pipe()
    if not lines_read:
        os.close(read)
    process = subprocess.Popen(
        [sys.executable, "-m", "lpa_invariants.cli", "table", "--max", str(table_max)],
        env=env,
        stdout=write,
        stderr=subprocess.PIPE,
    )
    os.close(write)
    if lines_read:
        with open(read, "rb") as reader:
            assert reader.readline().startswith(b"| n | k0_factors |")
    _, err = process.communicate(timeout=120)
    assert process.returncode == 141
    assert err == b""


WRITER_HELP = {
    "cayley": (
        "usage: lpainv cayley [-h] --n N [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --n N\n"
        "  --out OUT\n"
    ),
    "rose": (
        "usage: lpainv rose [-h] --n N [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --n N\n"
        "  --out OUT\n"
    ),
    "stemmed-rose": (
        "usage: lpainv stemmed-rose [-h] --n N --d D [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --n N\n"
        "  --d D\n"
        "  --out OUT\n"
    ),
}

MAIN_HELP = """\
usage: lpainv [-h]
              {cayley,rose,stemmed-rose,invariants,classify,table,monoid,validate}
              ...

Command-line front end. Subcommands: `cayley`, `rose`, `stemmed-rose` write
graph JSON; `invariants` reports the full invariant bundle of a graph;
`classify` runs the Kirchberg-Phillips decision on a pair (exit code encodes
the verdict); `table` tabulates the cyclic-Cayley-graph invariants; `monoid`
runs the box-monoid oracle; `validate` checks graph JSON. Exit codes: 0
success/Isomorphic, 2 malformed input or flags, 3 NotIsomorphic, 4 Unknown, 5
NotApplicable, 6 a `table` row whose computed K0 factors, det, det sign or
canonical form contradict the closed form of `cayley_class`, 141 stdout closed
by its reader before the command finished, the code a shell gives a process
ended by SIGPIPE (128 + 13), with no `error:` line. All other errors go to the
error stream as one line prefixed `error:`.

positional arguments:
  {cayley,rose,stemmed-rose,invariants,classify,table,monoid,validate}
    cayley              write the Cayley graph of Z/nZ as JSON
    rose                write the rose with n petals as JSON
    stemmed-rose        write the stemmed rose (d-1 stem edges, n loops)
    invariants          report all invariants of a graph
    classify            Kirchberg-Phillips decision for a pair
    table               tabulate cyclic Cayley graph invariants
    monoid              box saturation of the graph monoid
    validate            check a graph JSON file

options:
  -h, --help            show this help message and exit
"""


@pytest.mark.parametrize(
    "argv, expected",
    [(["--help"], MAIN_HELP)]
    + [([command, "--help"], text) for command, text in WRITER_HELP.items()],
    ids=["lpainv", *WRITER_HELP],
)
def test_help_text_pinned(monkeypatch, argv, expected):
    # argparse wraps help to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    assert invoke(argv) == (0, expected, "")


class TestParserReuse:
    """One parser serves every `run` call of the process."""

    def test_parse_error_leaves_next_call_unchanged(self, c_files):
        argv = ["invariants", c_files[3], "--json"]
        first = invoke(argv)
        assert first[0] == 0 and first[2] == ""
        for bad in (
            ["frobnicate"],
            ["invariants"],
            ["invariants", c_files[3], "--json", "--bound", "3"],
            ["table", "--max", "seven"],
            ["table", "--max", "3", "--format", "xml"],
            ["monoid", c_files[3], "--bound"],
        ):
            code, out, err = invoke(bad)
            assert code == 2 and out == ""
            assert err.startswith("error:")
            assert invoke(argv) == first

    def test_flags_of_one_call_do_not_stick(self):
        code, as_json, _ = invoke(["table", "--max", "3", "--format", "json"])
        assert code == 0 and json.loads(as_json)["schema"] == 1
        code, as_md, _ = invoke(["table", "--max", "3"])
        assert code == 0 and as_md.startswith("| n |")
        code, _, err = invoke(["table", "--max", "10001", "--force"])
        assert code == 2 and err.count("\n") == 1
        assert "unrecognized arguments: --force" in err  # no override flag
        code, _, err = invoke(["table", "--max", "10001"])
        assert code == 2 and err.count("\n") == 1
        assert cli._build_parser() is cli._build_parser()


def test_import_leaves_heavy_dependencies_unloaded(c_files, tmp_path):
    """The package needs numpy alone, and only the monoid box uses it:
    the CLI's other commands run without importing it, and `monoid`
    imports it.  The package serves the monoid names from `.monoid` on
    first access.  sympy, networkx and scipy serve tests only and never
    load, not even when the CLI runs the monoid box.  `invariants` on a
    dense 28-vertex graph, whose B the elimination's core phase takes,
    keeps numpy unloaded too."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    graph = random_multigraph(random.Random(28), 28, 0.6)
    assert 2 * sum(map(len, ktheory._b_rows(graph))) >= 28 * 28
    dense = tmp_path / "dense28.json"
    dense.write_text(json.dumps(graph_to_dict(graph)))
    numpy_free = [
        ["validate", c_files[3]],
        ["invariants", c_files[6], "--json"],
        ["invariants", str(dense), "--json"],
        ["classify", c_files[3], c_files[7]],
        ["table", "--max", "12"],
    ]
    monoid = ["monoid", c_files[3], "--bound", "8", "--json"]
    probe = textwrap.dedent(
        f"""
        import io, sys, lpa_invariants, lpa_invariants.cli as cli
        for argv in {numpy_free!r}:
            code = cli.run(argv, stdout=io.StringIO())
            assert code == (3 if argv[0] == "classify" else 0), argv
        assert "numpy" not in sys.modules
        assert "lpa_invariants.monoid" not in sys.modules
        assert set(lpa_invariants.__all__) <= set(dir(lpa_invariants))
        assert "numpy" not in sys.modules
        assert cli.run({monoid!r}, stdout=io.StringIO()) == 0
        assert "numpy" in sys.modules
        assert lpa_invariants.saturate is lpa_invariants.monoid.saturate
        try:
            lpa_invariants.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("unknown attribute resolved")
        print(sorted(m for m in ("scipy", "sympy", "networkx") if m in sys.modules))
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_commands_leave_dataclasses_and_inspect_unloaded(c_files):
    """The package's value classes are `record`s, so neither importing the
    CLI nor running a command loads `dataclasses`, or `inspect`, which it
    pulls in and which costs more than the rest of the import.  numpy
    imports `inspect` itself, so after `monoid` only `dataclasses` is
    checked."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    commands = [
        ["validate", c_files[3]],
        ["invariants", c_files[6], "--json"],
        ["classify", c_files[3], c_files[7]],
        ["table", "--max", "12"],
    ]
    monoid = ["monoid", c_files[3], "--bound", "8", "--json"]
    probe = textwrap.dedent(
        f"""
        import io, sys
        import lpa_invariants.cli as cli
        heavy = ("dataclasses", "inspect")
        print(sorted(m for m in heavy if m in sys.modules))
        for argv in {commands!r}:
            cli.run(argv, stdout=io.StringIO())
            print(sorted(m for m in heavy if m in sys.modules))
        assert cli.run({monoid!r}, stdout=io.StringIO()) == 0
        print("dataclasses" in sys.modules)
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]"] * 5 + ["False"]


def test_runtime_imports_match_declared_dependencies():
    """The third-party modules the package imports are exactly the
    distributions `pyproject.toml` declares."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    imported = set()
    for path in (root / "src" / "lpa_invariants").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"lpa_invariants"}
    with open(root / "pyproject.toml", "rb") as handle:
        specs = tomllib.load(handle)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in specs}
    assert third_party == declared == {"numpy"}


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.sampled_from([2**64, -(2**64), 2**64 + 1, -(2**100) - 7]),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf]),
    st.text(),
    st.text(alphabet='"\\/\x00\x01\x1f\x7f\n\t\u00e9\u2028\U0001f600 a'),
    st.lists(st.integers()),
    st.lists(st.one_of(st.booleans(), st.integers())),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=20,
)


class TestJsonText:
    """`cli._json_text` writes the bytes of `json.dumps(value, indent=2)`."""

    @settings(max_examples=400, deadline=None)
    @given(_JSON_VALUES)
    @example([True, 1])
    @example([1, True, 2**64, -(2**70)])
    @example((1,))
    @example([(), [], {}, [[]], {"a": {}}, [[{}], ()]])
    @example({"s": "\"\\\x00\u00e9\U0001f600", "f": [-0.0, 1e300, math.nan, -math.inf]})
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value", [{1: 2}, {None: 1}, {("a",): 1}, [{"a": {2.5: "x"}}], {"a": 1, True: 2}]
    )
    def test_rejects_non_str_keys(self, value):
        with pytest.raises(TypeError, match="JSON keys must be str"):
            cli._json_text(value)


@pytest.mark.parametrize(
    "argv",
    [
        ["cayley", "--n", "5"],
        ["rose", "--n", "3"],
        ["stemmed-rose", "--n", "4", "--d", "3"],
        ["invariants", "C6", "--json"],
        ["invariants", "C7", "--json"],
        ["classify", "C3", "C7", "--json"],
        ["classify", "C6", "C6", "--json"],
        ["table", "--max", "13", "--format", "json"],
        ["monoid", "C3", "--bound", "8", "--json"],
        ["monoid", "C6", "--bound", "8", "--json"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_json_outputs_have_the_indent_2_layout(c_files, tmp_path, argv):
    argv = [c_files[int(a[1:])] if re.fullmatch(r"C\d+", a) else a for a in argv]
    code, out, err = invoke(argv)
    assert code == 0 or argv[0] == "classify", err
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    if argv[0] == "monoid" and argv[1] == c_files[6]:
        assert json.loads(out)["group"] == "NOT_CLOSED"
    if argv[0] in ("cayley", "rose", "stemmed-rose"):
        path = tmp_path / "graph.json"
        assert invoke(argv + ["--out", str(path)]) == (0, "", "")
        assert path.read_text(encoding="utf-8") == out


def test_no_json_call_passes_an_indent():
    """An indent sends json to its pure-Python encoder; JSON output goes
    through `cli._json_text` instead."""
    root = Path(__file__).resolve().parent.parent
    offenders = []
    for path in sorted((root / "src" / "lpa_invariants").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dump", "dumps")
                and any(k.arg == "indent" for k in node.keywords)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
