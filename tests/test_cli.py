"""Command surface: JSON shapes, exit codes, stdin handling."""

from __future__ import annotations

import enum
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermix import (
    ALPHA_GAMMA,
    ALPHA_ONE,
    MixedGraph,
    build_hermitian,
    eigen_decomposition,
    serialize_graph,
    transfer_eigenvectors,
    verify_eigenpair,
)
from hermix.cli import _json, _parse_basis, main

from conftest import complete_mixed, reference_json


@pytest.fixture
def dc3_file(tmp_path, dc3):
    path = tmp_path / "dc3.mg"
    path.write_text(serialize_graph(dc3))
    return str(path)


@pytest.fixture
def uc3_file(tmp_path, uc3):
    path = tmp_path / "uc3.mg"
    path.write_text(serialize_graph(uc3))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestSpectrum:
    def test_dc3_gamma(self, capsys, dc3_file):
        data = run_json(capsys, ["spectrum", "--alpha", "gamma", dc3_file])
        assert data["alpha"] == "root:1/3"
        assert data["eigenvalues"] == [2.0, -1.0, -1.0]
        assert data["char_poly"] == [-0.0, -3.0, -2.0]
        assert data["spectral_radius"] == 2.0

    def test_twelve_digit_rounding(self, capsys, dc3_file):
        data = run_json(capsys, ["spectrum", "--alpha", "i", dc3_file])
        assert data["eigenvalues"][0] == 1.73205080757

    def test_stdin(self, capsys, monkeypatch, dc3):
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_graph(dc3)))
        data = run_json(capsys, ["spectrum", "--alpha", "gamma", "-"])
        assert data["eigenvalues"] == [2.0, -1.0, -1.0]


class TestCharpoly:
    def test_both_methods_agree(self, capsys, dc3_file):
        plain = run_json(capsys, ["charpoly", "--alpha", "i", dc3_file])
        oracle = run_json(capsys, ["charpoly", "--alpha", "i", "--oracle", dc3_file])
        assert plain["method"] == "faddeev-leverrier"
        assert oracle["method"] == "expansion"
        assert plain["char_poly"] == pytest.approx(oracle["char_poly"], abs=1e-8)
        assert set(plain) == set(oracle)

    def test_oracle_beyond_its_guard_is_input_error(self, capsys, tmp_path):
        # dense enough that the trace recursion fails its residue check on it;
        # the oracle must not run it, so the size guard decides the exit code
        path = tmp_path / "k16.mg"
        path.write_text(serialize_graph(complete_mixed(16, random.Random(0))))
        assert main(["charpoly", "--oracle", "--alpha", "gamma", str(path)]) == 2
        assert "limited to 12 vertices" in capsys.readouterr().err


class TestMonograph:
    def test_verdict_true(self, capsys, dc3_file):
        data = run_json(capsys, ["monograph", "--alpha", "gamma", "--kind", "1", dc3_file])
        assert data["is_monograph"] is True
        assert data["potential"] == {"0": "0", "1": "1/3", "2": "2/3"}
        assert data["violation"] is None

    def test_verdict_false(self, capsys, dc3_file):
        data = run_json(capsys, ["monograph", "--alpha", "i", "--kind", "1", dc3_file])
        assert data["is_monograph"] is False
        assert data["potential"] is None
        assert data["violation"] == [0, 1, 2, 0]

    def test_angle_potentials_and_classes_print_turns(self, capsys, tmp_path):
        # arcs 0->1->2 and 0->3->2 close a balance-0 cycle; 4->0 hangs off it
        path = tmp_path / "g5.mg"
        path.write_text("5\n0 -> 1\n1 -> 2\n0 -> 3\n3 -> 2\n4 -> 0\n")
        r, r2, minus_r = "0.159154943092", "0.318309886184", "0.840845056908"
        mono = run_json(capsys, ["monograph", "--alpha", "angle:1.0", "--kind", "1", str(path)])
        assert mono["alpha"] == "angle:1"
        assert mono["potential"] == {"0": "0", "1": r, "2": r2, "3": r, "4": minus_r}
        part = run_json(capsys, ["partition", "--alpha", "angle:1.0", "--kind", "1", str(path)])
        assert part["classes"] == {"0": [0], r: [1, 3], r2: [2], minus_r: [4]}


class TestPartition:
    def test_classes(self, capsys, dc3_file):
        data = run_json(capsys, ["partition", "--alpha", "omega", "--kind", "2", dc3_file])
        assert data["classes"] == {"0": [0], "2/3": [1], "1/3": [2]}

    def test_not_monograph_is_input_error(self, capsys, dc3_file):
        code = main(["partition", "--alpha", "i", "--kind", "1", dc3_file])
        assert code == 2
        assert "not a monograph" in capsys.readouterr().err


class TestTransfer:
    def test_default_basis(self, capsys, dc3_file, dc3):
        data = run_json(capsys, ["transfer", "--alpha", "gamma", dc3_file])
        assert data["max_residual"] <= 1e-8
        # the reported residual is the worst one over the printed pairs
        _, basis = eigen_decomposition(build_hermitian(dc3, ALPHA_ONE))
        moved, _ = transfer_eigenvectors(dc3, ALPHA_GAMMA, basis)
        worst = max(verify_eigenpair(dc3, ALPHA_GAMMA, p) for p in moved)
        assert data["max_residual"] == float(f"{worst:.12g}")
        assert len(data["pairs"]) == 3
        lams = [p["lambda"] for p in data["pairs"]]
        assert lams == [2.0, -1.0, -1.0]
        for p in data["pairs"]:
            assert len(p["vector"]) == 3
            assert all(len(entry) == 2 for entry in p["vector"])

    def test_explicit_basis_file(self, capsys, tmp_path, dc3_file):
        basis = [
            {"lambda": 2.0, "vector": [[1 / math.sqrt(3), 0.0]] * 3},
        ]
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps(basis))
        data = run_json(
            capsys,
            ["transfer", "--alpha", "gamma", "--basis", str(basis_path), dc3_file],
        )
        assert data["pairs"][0]["lambda"] == 2.0

    def test_real_vector_entries_accepted(self, capsys, tmp_path, uc3_file):
        s = 1 / math.sqrt(3)
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps([{"lambda": 2.0, "vector": [s, s, s]}]))
        data = run_json(
            capsys, ["transfer", "--alpha", "1", "--basis", str(basis_path), uc3_file]
        )
        assert data["max_residual"] <= 1e-9

    @pytest.mark.parametrize(
        "basis, message",
        [
            ('[{"lambda": 2, "vector": 5}]', "basis entry 0: vector is not an array: 5.0"),
            (
                '[{"lambda": 2, "vector": [1, null, 1]}]',
                "basis entry 0: vector entry 1 is neither a number nor a [re, im] pair "
                "of numbers: null",
            ),
            ('[{"lambda": [2], "vector": [1, 1, 1]}]', "basis entry 0: lambda is not a number: [2.0]"),
            ('[{"lambda": 2, "vector": [NaN, 1, 1]}]', "basis entry 0: eigenvector entries must be finite"),
            (
                '[{"lambda": 1, "vector": [1, 0, 0]}, {"lambda": 2, "vector": [[1, 0], [0, true], 1]}]',
                "basis entry 1: vector entry 1 is neither a number nor a [re, im] pair "
                "of numbers: [0.0, true]",
            ),
            (
                '[{"lambda": 2, "vector": [1, [1, 2, 3], 1]}]',
                "basis entry 0: vector entry 1 is neither a number nor a [re, im] pair "
                "of numbers: [1.0, 2.0, 3.0]",
            ),
            (
                '[{"lambda": 2, "vector": [1, 1, "1"]}]',
                'basis entry 0: vector entry 2 is neither a number nor a [re, im] pair '
                'of numbers: "1"',
            ),
            ('[{"lambda": 2, "vector": [1, 1]}]', "vector length 2 does not match n=3"),
            ('[{"lambda": 2, "vector": [0, [0, 0], 0]}]', "basis entry 0: eigenvector must be nonzero"),
            ('[{"lambda": 2}]', "each basis entry needs 'lambda' and 'vector'"),
        ],
    )
    def test_basis_error_messages(self, basis, message):
        with pytest.raises(ValueError) as err:
            _parse_basis(basis, 3)
        assert str(err.value) == message

    def test_basis_entries_read_exactly(self):
        # numbers and [re, im] pairs mixed; unit norm, so normalising leaves
        # every entry as it was read
        pairs = _parse_basis('[{"lambda": 1, "vector": [[0.6, 0], 0, [0, -0.8]]}]', 3)
        assert pairs[0].eigenvalue == 1.0
        assert list(pairs[0].vector) == [0.6, 0.0, -0.8j]

    def test_bad_basis_is_input_error(self, capsys, tmp_path, dc3_file):
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps([{"lambda": 9.0, "vector": [[1, 0]] * 3}]))
        code = main(["transfer", "--alpha", "gamma", "--basis", str(basis_path), dc3_file])
        assert code == 2
        assert "fails verification" in capsys.readouterr().err

    def test_basis_entries_near_the_float_limit(self, capsys, tmp_path, uc3_file):
        # the entries' sum of squares overflows; the vector is scaled, not
        # taken for zero, and then verified like any other
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps([{"lambda": 2.0, "vector": [1e308] * 3}]))
        path_file = tmp_path / "p3.mg"
        path_file.write_text("3\n0 -- 1\n1 -- 2\n")
        argv = ["transfer", "--alpha", "gamma", "--basis", str(basis_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moved = run_json(capsys, argv + [uc3_file])
            code = main(argv + [str(path_file)])
        assert moved["pairs"][0]["vector"] == [[0.57735026919, 0.0]] * 3
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: basis pair with eigenvalue 2 fails verification against the "
            "underlying graph (residual 5.774e-01)"
        ]

    def test_malformed_basis_json(self, capsys, tmp_path, dc3_file):
        basis_path = tmp_path / "basis.json"
        basis_path.write_text("not json")
        assert main(["transfer", "--alpha", "gamma", "--basis", str(basis_path), dc3_file]) == 2

    @pytest.mark.parametrize(
        "basis",
        [
            '[{"lambda": 2, "vector": 5}]',
            '[{"lambda": 2, "vector": [1, null, 1]}]',
            '[{"lambda": [2], "vector": [1, 1, 1]}]',
            '[{"lambda": 2, "vector": [NaN, 1, 1]}]',
        ],
        ids=["vector-not-array", "null-entry", "lambda-not-number", "nan-entry"],
    )
    def test_malformed_basis_value_is_one_error_line(self, tmp_path, uc3_file, basis):
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(basis)
        proc = subprocess.run(
            [sys.executable, "-m", "hermix", "transfer", "--alpha", "1",
             "--basis", str(basis_path), uc3_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: basis entry 0: ")
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


def gamma_monograph(seed: int, n: int) -> MixedGraph:
    """A connected first-kind monograph for gamma with 2n edges: every vertex
    gets a level mod 3, a digon joins equal levels and an arc runs from
    level l to level l + 1, so every cycle has arc balance 0 mod 3."""
    rng = random.Random(seed)
    level = [rng.randrange(3) for _ in range(n)]
    digons: list[tuple[int, int]] = []
    arcs: list[tuple[int, int]] = []
    taken: set[tuple[int, int]] = set()

    def link(u: int, v: int) -> None:
        taken.add((min(u, v), max(u, v)))
        step = (level[v] - level[u]) % 3
        if step == 0:
            digons.append((u, v))
        else:
            arcs.append((u, v) if step == 1 else (v, u))

    for v in range(1, n):
        link(rng.randrange(v), v)
    while len(taken) < 2 * n:
        u, v = rng.sample(range(n), 2)
        if (min(u, v), max(u, v)) not in taken:
            link(u, v)
    return MixedGraph.from_edges(n, digons, arcs)


class TestEmitter:
    """Floats print as ``float(f"{x:.12g}")`` would under ``json.dumps``, and
    transfer output is pinned byte for byte.  The pins come from numpy's
    LAPACK on x86-64: the basis of a repeated eigenvalue, and the last digits
    of ``max_residual``, may differ on another LAPACK build."""

    def test_round_floats(self):
        xs = [-0.0, 1e-300, 5e-324, 0.1 + 0.2, np.float64(1 / 3)]
        got = json.loads(_json({"xs": xs, "nested": (1 / 7, (2 / 3, [True, False, 3]))}))
        assert got["xs"] == [float(f"{x:.12g}") for x in xs]
        assert all(type(v) is float for v in got["xs"])
        assert math.copysign(1.0, got["xs"][0]) == -1.0
        assert got["xs"][2] == 5e-324
        assert got["nested"] == [float(f"{1 / 7:.12g}"), [float(f"{2 / 3:.12g}"), [True, False, 3]]]
        assert [type(v) for v in got["nested"][1][1]] == [bool, bool, int]

    @settings(max_examples=1000, deadline=None)
    @given(st.floats())
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-2.2250738585072014e-308)  # smallest normal, negated
    @example(2.225073858507201e-308)  # largest subnormal
    @example(1e-4)
    @example(9.99999999999995e-05)
    @example(99999999999.95)
    @example(999999999999.5)
    @example(1e12)
    @example(-1e12)
    @example(9999999999999998.0)
    @example(1e16)
    @example(1.7976931348623157e308)
    @example(math.inf)
    @example(-math.inf)
    @example(math.nan)
    def test_float_text_matches_reference(self, x):
        assert _json(x) == reference_json(x)
        assert _json(np.float64(x)) == reference_json(x)
        assert _json([x]) == reference_json([x])

    def test_nested_payload_matches_reference(self):
        class Kind(enum.IntEnum):
            SECOND = 2

        class Count(int):
            def __repr__(self):
                return "Count()"

            __str__ = __repr__

        vector = np.array([0.5 + 0.25j, -0.0 - 1e-7j, 3.0, 1 / 3 - 1e13j, 1.5e13 + 5e-324j])
        payload = {
            "naïve \"key\"\n": [1 / 3, (2.0, -0.0), {"empty": [], "none": None}],
            "flags": {"yes": True, "no": False},
            "ints": [0, -7, 2**70, Kind.SECOND, Count(3)],
            "text": "γ → ω",
            "vector": vector,
            "pairs": [{"lambda": 1e-5, "vector": vector[::-2]}],
        }
        assert _json(payload) == reference_json(payload)
        assert _json(Kind.SECOND) == "2"
        with pytest.raises(TypeError):
            _json({"set": {1}})

    def test_transfer_dc3_gamma_pinned(self, capsys, dc3_file):
        assert main(["transfer", "--alpha", "gamma", dc3_file]) == 0
        assert capsys.readouterr().out == (
            '{"alpha": "root:1/3", "pairs": ['
            '{"lambda": 2.0, "vector": [[-0.57735026919, 0.0], '
            '[0.288675134595, 0.5], [0.288675134595, -0.5]]}, '
            '{"lambda": -1.0, "vector": [[0.422503311877, 0.0], '
            '[0.40816434353, 0.706961380831], [-0.196912687591, 0.341062779563]]}, '
            '{"lambda": -1.0, "vector": [[0.698682773596, 0.0], '
            '[-0.00827860723526, -0.0143389683474], [0.357619994033, -0.619415999468]]}], '
            '"max_residual": 3.14018491737e-16}\n'
        )

    def test_transfer_monograph_n40_pinned(self, capsys, tmp_path):
        path = tmp_path / "m40.mg"
        path.write_text(serialize_graph(gamma_monograph(40, 40)))
        assert main(["transfer", "--alpha", "gamma", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.endswith('.0514066408156, 0.0]]}], "max_residual": 2.58946281966e-15}\n')
        assert len(out) == 54213
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f35fdff8d174163bbe190358585c9848d59c5887b37f08b6e1a9db18ece0f6e4"
        )


class TestExtend:
    def test_attach_out(self, capsys, uc3_file):
        data = run_json(
            capsys,
            [
                "extend",
                "--alpha",
                "i",
                "--subgraph",
                "0,1",
                "--attach",
                "x: 0,1 out",
                uc3_file,
            ],
        )
        assert data["n"] == 4
        assert ["arc", 3, 0] in data["edges"]
        assert ["arc", 3, 1] in data["edges"]
        assert data["text"].startswith("4\n")

    def test_attach_without_label(self, capsys, uc3_file):
        data = run_json(
            capsys,
            ["extend", "--alpha", "i", "--subgraph", "0", "--attach", "0 in", uc3_file],
        )
        assert ["arc", 0, 3] in data["edges"]

    def test_bad_direction(self, capsys, uc3_file):
        code = main(
            ["extend", "--alpha", "i", "--subgraph", "0", "--attach", "0 sideways", uc3_file]
        )
        assert code == 2

    def test_non_monograph_input_error(self, capsys, dc3_file):
        code = main(
            ["extend", "--alpha", "i", "--subgraph", "0", "--attach", "0 out", dc3_file]
        )
        assert code == 2

    def test_arc_in_base_named_independent_of_hash_seed(self, tmp_path):
        # the edge set is a frozenset, whose order follows the string hash
        # of the edge kinds; the error must name the lowest pair all the same
        path = tmp_path / "arcs.mg"
        path.write_text("4\n0 -> 1\n1 -> 2\n2 -> 3\n0 -> 3\n0 -> 2\n")
        argv = [sys.executable, "-m", "hermix", "extend", "--alpha", "1",
                "--subgraph", "0,1,2,3", "--attach", "0 out", str(path)]
        errors = set()
        for seed in ("1", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(argv, capture_output=True, text=True, env=env)
            assert proc.returncode == 2
            errors.add(proc.stderr)
        assert errors == {
            "error: base subgraph must be undirected, found arc (0, 1) inside it\n"
        }


class TestRadius:
    def test_report_fields(self, capsys, dc3_file):
        data = run_json(capsys, ["radius", "--alpha", "omega", dc3_file])
        assert data == {
            "alpha": "root:1/6",
            "rho": 2.0,
            "delta": 2,
            "equal": True,
            "regular": True,
            "mono1": False,
            "mono2": True,
            "theorem_consistent": True,
        }


class TestCospectral:
    def test_report(self, capsys, dc3_file):
        data = run_json(
            capsys, ["cospectral", "--alpha", "gamma", "--alpha", "omega", dc3_file]
        )
        assert data["cospectral"] is False
        assert set(data["flags"]) == {
            "even_arc_condition",
            "oriented_bipartite",
            "tree",
            "monograph_both",
        }

    def test_alphas_do_not_leak_between_calls(self, capsys, dc3_file):
        first = run_json(capsys, ["cospectral", "--alpha", "gamma", "--alpha", "omega", dc3_file])
        second = run_json(capsys, ["cospectral", "--alpha", "i", "--alpha", "1", dc3_file])
        assert (first["alpha1"], first["alpha2"]) == ("root:1/3", "root:1/6")
        assert (second["alpha1"], second["alpha2"]) == ("root:1/4", "root:0/1")

    def test_requires_two_alphas(self, capsys, dc3_file):
        assert main(["cospectral", "--alpha", "gamma", dc3_file]) == 2

    def test_tol_override(self, capsys, dc3_file):
        data = run_json(
            capsys,
            ["cospectral", "--alpha", "gamma", "--alpha", "omega", "--tol", "10", dc3_file],
        )
        assert data["cospectral"] is True


class TestSearch:
    def test_stream_shape(self, capsys):
        code = main(
            [
                "search-cospectral",
                "--n",
                "3",
                "--alpha",
                "gamma",
                "--alpha",
                "omega",
                "--mode",
                "random",
                "--count",
                "30",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines
        for item in lines:
            assert set(item) == {"code", "n", "edges", "report"}
            assert item["report"]["cospectral"] is True

    def test_random_needs_seed(self, capsys):
        code = main(
            [
                "search-cospectral",
                "--n",
                "3",
                "--alpha",
                "i",
                "--alpha",
                "gamma",
                "--mode",
                "random",
                "--count",
                "5",
            ]
        )
        assert code == 2


class TestErrorPaths:
    def test_unknown_alpha(self, capsys, dc3_file):
        assert main(["spectrum", "--alpha", "nope", dc3_file]) == 2

    def test_missing_file(self, capsys):
        assert main(["spectrum", "--alpha", "i", "/nonexistent/g.mg"]) == 2

    def test_bad_graph_text(self, capsys, tmp_path):
        path = tmp_path / "bad.mg"
        path.write_text("2\n0 -- 9\n")
        assert main(["spectrum", "--alpha", "i", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_scale_guard_maps_to_input_error(self, capsys):
        assert main(
            ["search-cospectral", "--n", "9", "--alpha", "i", "--alpha", "gamma"]
        ) == 2

    def test_random_search_scale_guard(self, capsys):
        argv = ["search-cospectral", "--n", "9", "--alpha", "i", "--alpha", "gamma"]
        assert main(argv + ["--mode", "random", "--count", "5", "--seed", "1"]) == 2
        assert "capped at 8 vertices" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "tiny"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["cospectral", "--alpha", "i", "--alpha", "gamma", "GRAPH"],
            ["radius", "--alpha", "i", "GRAPH"],
            ["search-cospectral", "--n", "3", "--alpha", "gamma", "--alpha", "omega"],
        ],
        ids=["cospectral", "radius", "search-cospectral"],
    )
    def test_bad_tol_is_usage_error(self, capsys, dc3_file, argv, tol):
        argv = [dc3_file if a == "GRAPH" else a for a in argv]
        assert main(argv + [f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
        assert len(errors) == 1
        assert errors[0].endswith(
            f"error: argument --tol: must be a finite number >= 0, got {tol!r}"
        )

    def test_zero_tol_accepted(self, capsys, dc3_file):
        argv = ["cospectral", "--alpha", "i", "--alpha", "i", "--tol", "0", dc3_file]
        assert run_json(capsys, argv)["cospectral"] is True

    def test_negative_search_count(self, capsys):
        argv = ["search-cospectral", "--n", "3", "--alpha", "i", "--alpha", "gamma"]
        assert main(argv + ["--mode", "random", "--count", "-1", "--seed", "1"]) == 2
        assert capsys.readouterr().err == "error: count must be nonnegative, got -1\n"

    @pytest.mark.parametrize("extra", [["--count", "5"], ["--seed", "1"]])
    def test_exhaustive_search_refuses_count_and_seed(self, capsys, extra):
        argv = ["search-cospectral", "--n", "3", "--alpha", "i", "--alpha", "gamma"]
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: count and seed apply to random mode only\n"

    @pytest.mark.parametrize(
        "argv, alpha",
        [
            (["spectrum", "--alpha", "gamma"], "alpha root:1/3"),
            (["charpoly", "--alpha", "angle:0.7"], "alpha angle:0.7"),
            (["cospectral", "--alpha", "i", "--alpha", "gamma"], "alpha root:1/4"),
        ],
    )
    def test_numerical_error_names_the_graph(
        self, capsys, monkeypatch, dc3_file, argv, alpha
    ):
        # a negative budget fails the residue check of every polynomial
        monkeypatch.setattr("hermix.spectra.COEFF_TOL", -1.0)
        assert main(argv + [dc3_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: char-poly residue failed on the graph (n=3, 3 edges, {alpha}): "
        )



def test_closed_stdout_ends_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "hermix", "search-cospectral", "--n", "4",
         "--alpha", "gamma", "--alpha", "omega"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout is not None and proc.stderr is not None
    # about 480 kB follow this line, far more than a pipe buffers
    assert json.loads(proc.stdout.readline())["n"] == 4
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 0
    assert err == b""


def test_module_entry_point(tmp_path, k4x):
    path = tmp_path / "k4x.mg"
    path.write_text(serialize_graph(k4x))
    proc = subprocess.run(
        [sys.executable, "-m", "hermix", "spectrum", "--alpha", "i", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["eigenvalues"] == [1.0, 1.0, 1.0, -3.0]
