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
    EigenBasis,
    MixedGraph,
    build_hermitian,
    eigen_decomposition,
    make_alpha,
    serialize_graph,
    transfer_eigenvectors,
    verify_eigenpair,
)
from hermix.cli import _emit, _json, _pair_texts, _parse_basis, main

from conftest import (
    complete_mixed,
    level_monograph,
    random_connected_mixed_graph,
    reference_json,
)


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

    def test_empty_graph(self, capsys, tmp_path):
        path = tmp_path / "empty.mg"
        path.write_text("0\n")
        assert main(["spectrum", "--alpha", "i", str(path)]) == 0
        assert capsys.readouterr().out == (
            '{"alpha": "root:1/4", "eigenvalues": [], "char_poly": [], "spectral_radius": 0.0}\n'
        )


class TestCharpoly:
    def test_both_methods_agree(self, capsys, dc3_file):
        plain = run_json(capsys, ["charpoly", "--alpha", "i", dc3_file])
        oracle = run_json(capsys, ["charpoly", "--alpha", "i", "--oracle", dc3_file])
        assert plain["method"] == "faddeev-leverrier"
        assert oracle["method"] == "expansion"
        assert plain["char_poly"] == pytest.approx(oracle["char_poly"], abs=1e-8)
        assert set(plain) == set(oracle)

    def test_oracle_n10_pinned(self, capsys, tmp_path):
        # twelve independent cycles, as dense as the benchmark's n = 10 oracle
        # inputs.  The oracle's own text is pinned byte for byte; the
        # eigenvalues come from LAPACK, so their last digits may differ on
        # another build.
        path = tmp_path / "g10.mg"
        path.write_text(
            "10\n0 -> 1\n0 -> 8\n1 -> 2\n1 -- 3\n1 -- 7\n9 -> 1\n2 -- 9\n3 -> 4\n"
            "6 -> 3\n3 -> 9\n4 -- 5\n6 -> 4\n7 -> 4\n4 -- 9\n5 -- 6\n9 -> 5\n6 -> 7\n"
            "6 -> 8\n6 -- 9\n7 -> 8\n7 -- 9\n"
        )
        assert main(["charpoly", "--oracle", "--alpha", "root:2/5", str(path)]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert list(data) == ["alpha", "eigenvalues", "char_poly", "spectral_radius", "method"]
        assert (data["alpha"], data["method"]) == ("root:2/5", "expansion")
        assert out[out.index('"char_poly"') : out.index(', "spectral_radius"')] == (
            '"char_poly": [-0.0, -21.0, 12.3262379212, 111.381966011, -79.1033255612, '
            "-193.291796068, 134.519733426, 104.763932023, -61.88854382, -9.472135955]"
        )
        assert data["eigenvalues"] == pytest.approx([
            3.10421805102, 2.22923337677, 1.42951043372, 0.958237774678, 0.785912952859,
            -0.130042051138, -0.877166776113, -1.31476314608, -2.05044432586, -4.13469628985,
        ], abs=1e-9)
        assert data["spectral_radius"] == pytest.approx(4.13469628985, abs=1e-9)

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

    def test_angle_classes_of_equal_potential_merge(self, capsys, tmp_path):
        # the path's tree balances 0, 1, 2 are distinct keys; under angle 0
        # all three potentials are 1, under angle pi the ends are
        path = tmp_path / "path.mg"
        path.write_text("3\n0 -> 1\n1 -> 2\n")
        for angle, classes in (
            ("angle:0", {"0": [0, 1, 2]}),
            (f"angle:{math.pi!r}", {"0": [0, 2], "0.5": [1]}),
        ):
            data = run_json(capsys, ["partition", "--alpha", angle, "--kind", "1", str(path)])
            assert data["classes"] == classes

    def test_classes_printed_alike_merge(self, capsys, tmp_path):
        # a third of a turn: the tree balances 1 and 4 give the float
        # potentials 0.3333333333333333 and 0.33333333333333326, two classes
        # of the library that print as one key
        path = tmp_path / "path5.mg"
        path.write_text("5\n0 -> 1\n1 -> 2\n2 -> 3\n3 -> 4\n")
        alpha = "angle:2.0943951023931953"
        data = run_json(capsys, ["partition", "--alpha", alpha, "--kind", "1", str(path)])
        assert data["classes"] == {"0": [0, 3], "0.333333333333": [1, 4], "0.666666666667": [2]}

    def test_not_monograph_is_input_error(self, capsys, dc3_file):
        code = main(["partition", "--alpha", "i", "--kind", "1", dc3_file])
        assert code == 2
        assert "not a monograph" in capsys.readouterr().err


class TestTransfer:
    def test_default_basis(self, capsys, dc3_file, dc3):
        data = run_json(capsys, ["transfer", "--alpha", "gamma", dc3_file])
        assert data["max_residual"] <= 1e-8
        # the reported residual is the worst one over the printed pairs
        basis = eigen_decomposition(build_hermitian(dc3, ALPHA_ONE))
        moved, _ = transfer_eigenvectors(dc3, ALPHA_GAMMA, basis)
        worst = verify_eigenpair(dc3, ALPHA_GAMMA, moved.values, moved.vectors).max()
        assert data["max_residual"] == float(f"{worst:.12g}")
        assert len(data["pairs"]) == 3
        lams = [p["lambda"] for p in data["pairs"]]
        assert lams == [2.0, -1.0, -1.0]
        for p in data["pairs"]:
            assert len(p["vector"]) == 3
            assert all(len(entry) == 2 for entry in p["vector"])

    def test_computed_basis_verified_once(self, capsys, monkeypatch, tmp_path, dc3_file, dc3):
        # the eigensolve checks the basis it computes, so the CLI and the
        # library call without a basis check only the moved basis; a basis
        # file and a basis handed to the library call check both
        alphas = []

        def counted(graph, alpha, values, vectors):
            alphas.append(str(alpha))
            return verify_eigenpair(graph, alpha, values, vectors)

        monkeypatch.setattr("hermix.monographs.verify_eigenpair", counted)
        run_json(capsys, ["transfer", "--alpha", "gamma", dc3_file])
        assert alphas == ["root:1/3"]
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps([{"lambda": 2.0, "vector": [1.0, 1.0, 1.0]}]))
        alphas.clear()
        run_json(capsys, ["transfer", "--alpha", "gamma", "--basis", str(basis_path), dc3_file])
        assert alphas == ["root:0/1", "root:1/3"]
        alphas.clear()
        basis = eigen_decomposition(build_hermitian(dc3, ALPHA_ONE))
        given, _ = transfer_eigenvectors(dc3, ALPHA_GAMMA, basis)
        assert alphas == ["root:0/1", "root:1/3"]
        alphas.clear()
        computed, _ = transfer_eigenvectors(dc3, ALPHA_GAMMA)
        assert alphas == ["root:1/3"]
        assert computed.values.tobytes() == given.values.tobytes()
        assert computed.vectors.tobytes() == given.vectors.tobytes()

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
        basis = _parse_basis('[{"lambda": 1, "vector": [[0.6, 0], 0, [0, -0.8]]}]', 3)
        assert list(basis.values) == [1.0]
        assert list(basis.vectors[:, 0]) == [0.6, 0.0, -0.8j]

    @staticmethod
    def _path_basis(tmp_path, shift):
        """The arc path 0 -> 1 -> ... -> 59 and its underlying eigenbasis with
        ``shift`` added to the first eigenvalue, as files; and the largest
        residual of that basis against the underlying graph."""
        g = MixedGraph.from_edges(60, [], [(v, v + 1) for v in range(59)])
        basis = eigen_decomposition(build_hermitian(g, ALPHA_ONE))
        values = basis.values.copy()
        values[0] += shift
        pairs = [
            {"lambda": lam, "vector": [[z.real, z.imag] for z in col]}
            for lam, col in zip(values.tolist(), basis.vectors.T.tolist())
        ]
        graph_path, basis_path = tmp_path / "path60.mg", tmp_path / "basis.json"
        graph_path.write_text(serialize_graph(g))
        basis_path.write_text(json.dumps(pairs))
        worst = verify_eigenpair(g, ALPHA_ONE, values, basis.vectors).max()
        return ["transfer", "--alpha", "gamma", "--basis", str(basis_path), str(graph_path)], worst

    def test_basis_within_the_eigen_budget(self, capsys, tmp_path):
        # the gauge keeps every vertex's residual modulus, so a basis the
        # input check accepts moves to one within the same budget of 1e-9 * n
        argv, worst = self._path_basis(tmp_path, 2.5e-7)
        assert 1e-8 < worst <= 1e-9 * 60
        data = run_json(capsys, argv)
        assert data["max_residual"] == pytest.approx(worst, rel=1e-6)

    def test_basis_above_the_eigen_budget(self, capsys, tmp_path):
        argv, worst = self._path_basis(tmp_path, 1e-6)
        assert worst > 1e-9 * 60
        assert main(argv) == 2
        # the first eigenvalue, 2 cos(pi/61), names the pair
        assert capsys.readouterr().err == (
            "error: basis pair with eigenvalue 1.99735 fails verification against the "
            f"underlying graph (residual {worst:.3e})\n"
        )

    def test_nan_lambda_names_the_pair(self, capsys, tmp_path, dc3_file):
        basis_path = tmp_path / "basis.json"
        basis_path.write_text('[{"lambda": 2, "vector": [1, 1, 1]}, {"lambda": NaN, "vector": [1, 0, 0]}]')
        code = main(["transfer", "--alpha", "gamma", "--basis", str(basis_path), dc3_file])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: basis pair with eigenvalue nan fails verification against the "
            "underlying graph (residual nan)\n"
        )

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

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_basis_byte_is_a_json_error(
        self, capsys, tmp_path, monkeypatch, uc3_file, source
    ):
        # the same bytes give the same error from a file and from stdin
        data = b'[{"lambda": 2, "vector": [1, 1, 1]}]\xe9'
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            basis = "-"
        else:
            basis = str(tmp_path / "basis.json")
            (tmp_path / "basis.json").write_bytes(data)
        assert main(["transfer", "--alpha", "1", "--basis", basis, uc3_file]) == 2
        assert capsys.readouterr().err == (
            "error: basis is not valid JSON: Extra data: line 1 column 37 (char 36)\n"
        )

    def test_later_type_fault_reported_before_earlier_zero_vector(self):
        # entries are checked for type and length first, then normalised
        basis = '[{"lambda": 1, "vector": [0, 0, 0]}, {"lambda": 2, "vector": 5}]'
        with pytest.raises(ValueError, match=r"^basis entry 1: vector is not an array: 5.0$"):
            _parse_basis(basis, 3)

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


# the floats at which {:.12} text and _json text part ways, or nearly:
# signed zeros, subnormals, near-integers, 12-digit ties on both sides of
# 1e-4, 1e10, 1e11, 1e12 and 1e16, and non-finite values
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -3e-320, 1.23456789012345e-315,
    -2.2250738585072014e-308, 2.225073858507201e-308,
    1e-4, -1e-4, 9.99999999999995e-05, 9.999999999999949e-05, 1.00000000000005e-4,
    0.9999999999995, 0.99999999999949, 1.0000000000005, 1.9999999999999,
    2.0000000000001, -2.0000000000001, 123456.0000004,
    9999999999.95, 9999999999.949, 10000000000.0,
    99999999999.95, 99999999999.96, -99999999999.99, 1e11, -1e11, 100000000000.5,
    999999999999.4, 999999999999.5, 1e12, -1e12, 1000000000000.5,
    9999999999999998.0, 1e16, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan,
]


@st.composite
def raw_bases(draw):
    """m eigenvalues and the re, im of an n x m basis, row by row, as floats
    no ``EigenBasis`` would normalise: any float, or one of ``EDGE_FLOATS``."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    number = st.floats() | st.sampled_from(EDGE_FLOATS)
    values = draw(st.lists(number, min_size=m, max_size=m))
    return values, draw(st.lists(number, min_size=2 * n * m, max_size=2 * n * m)), n


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

        payload = {
            "naïve \"key\"\n": [1 / 3, (2.0, -0.0), {"empty": [], "none": None}, {}],
            "flags": {"yes": True, "no": False},
            "ints": [0, -7, 2**70, Kind.SECOND, Count(3)],
            "text": "γ → ω",
        }
        assert _json(payload) == reference_json(payload)
        assert _json(Kind.SECOND) == "2"
        with pytest.raises(TypeError):
            _json({"set": {1}})
        # a complex vector is no JSON value of its own: a basis prints whole
        with pytest.raises(TypeError):
            _json(np.array([0.5 + 0.25j]))

    @staticmethod
    def pairs_json(values, vectors):
        return "".join(_pair_texts(values, vectors))

    @staticmethod
    def reference_pairs(values, vectors):
        pairs = [{"lambda": float(lam), "vector": vectors[:, j]} for j, lam in enumerate(values)]
        return reference_json(pairs)

    def test_basis_pairs_match_reference(self, capsys):
        vector = np.array([0.5 + 0.25j, -0.0 - 1e-7j, 3.0, 1 / 3 - 1e13j, 1.5e13 + 5e-324j])
        vectors = np.column_stack([vector, vector[::-1], -vector])
        values = np.array([1e-5, -2.0, 99999999999.95])
        text = self.pairs_json(values, vectors)
        assert text == self.reference_pairs(values, vectors)
        # a payload prints an EigenBasis as its pairs list
        basis = EigenBasis(values, vectors)
        _emit({"pairs": basis, "empty": EigenBasis(values[:0], vectors[:, :0])})
        assert capsys.readouterr().out == '{"pairs": ' + self.reference_pairs(
            basis.values, basis.vectors
        ) + ', "empty": []}\n'
        # a strided view prints as its values do
        assert self.pairs_json(values[::-2], vectors[::-1, ::-2]) == self.reference_pairs(
            values[::-2], vectors[::-1, ::-2]
        )

    @settings(max_examples=300, deadline=None)
    @given(raw_bases())
    @example(([], [], 0))
    @example(([], [], 3))
    @example(([1.0], [0.5, -0.5], 1))
    @example((EDGE_FLOATS, [x for x in EDGE_FLOATS for _ in range(2)], 1))
    @example((EDGE_FLOATS[:2], EDGE_FLOATS * 4, len(EDGE_FLOATS)))
    def test_basis_pairs_float_text(self, basis):
        values, flat, n = basis
        vectors = np.array(flat, dtype=np.float64).view(np.complex128).reshape(n, len(values))
        assert self.pairs_json(np.array(values), vectors) == self.reference_pairs(values, vectors)

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

    def test_transfer_monograph_n40_root_3_7_pinned(self, capsys, tmp_path):
        # seven distinct potentials, so the gauge takes seven phases
        path = tmp_path / "m40.mg"
        path.write_text(serialize_graph(level_monograph(random.Random(37), 40, 7)))
        assert main(["transfer", "--alpha", "root:3/7", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.endswith('0.0548545908957]]}], "max_residual": 3.23397123828e-15}\n')
        assert len(out) == 55016
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "896d33951aa5df03270085769955d79a3001e9040c0ea7c92c35d76adaca70e7"
        )

    def test_transfer_monograph_n134_pinned(self, capsys, tmp_path):
        path = tmp_path / "m134.mg"
        path.write_text(serialize_graph(gamma_monograph(134, 134)))
        assert main(["transfer", "--alpha", "gamma", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.endswith('0.00932304023952]]}], "max_residual": 1.82492909673e-15}\n')
        assert len(out) == 609433
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f5e98cac0127bac89dca8a0cfa291405084edc06282d3b39e6ce1b636f42feca"
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

    def test_sixty_vertex_verdict(self, capsys, tmp_path):
        # a connected graph of about 2n edges at the smallest benchmark size,
        # where the trace recursion has lost its digits: the verdict reads
        # the two spectra only, so the command succeeds and reports their gap
        g = random_connected_mixed_graph(random.Random(60), 60, extra_prob=1 / 30)
        path = tmp_path / "g60.mg"
        path.write_text(serialize_graph(g))
        alphas = ("gamma", "angle:0.7")
        data = run_json(
            capsys, ["cospectral", "--alpha", alphas[0], "--alpha", alphas[1], str(path)]
        )
        spectra = [eigen_decomposition(build_hermitian(g, make_alpha(a))).values for a in alphas]
        gap = max(abs(x - y) for x, y in zip(*spectra))
        assert data["max_gap"] == float(f"{gap:.12g}")
        assert data["cospectral"] is False


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

    def test_non_ascii_count_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "bad.mg"
        path.write_text("²\n", encoding="utf-8")
        assert main(["spectrum", "--alpha", "i", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 1: expected a vertex count, got '²'\n"

    @staticmethod
    def _spectrum_of_bytes(data, source, tmp_path, monkeypatch):
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            return main(["spectrum", "--alpha", "i", "-"])
        path = tmp_path / "latin1.mg"
        path.write_bytes(data)
        return main(["spectrum", "--alpha", "i", str(path)])

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_byte_in_a_comment_is_skipped(self, capsys, tmp_path, monkeypatch, source):
        data = b"3\n0 -> 1 # caf\xe9\n1 -- 2\n"
        assert self._spectrum_of_bytes(data, source, tmp_path, monkeypatch) == 0
        out = capsys.readouterr().out
        plain = tmp_path / "plain.mg"
        plain.write_text("3\n0 -> 1\n1 -- 2\n")
        assert main(["spectrum", "--alpha", "i", str(plain)]) == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_byte_elsewhere_names_its_line(self, capsys, tmp_path, monkeypatch, source):
        data = b"3\n0 -> 1\n1 -\xe9- 2\n"
        assert self._spectrum_of_bytes(data, source, tmp_path, monkeypatch) == 2
        assert capsys.readouterr().err == "error: line 3: malformed edge '1 -\ufffd- 2'\n"

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
        # a negative budget fails the check of every matrix at its stage: the
        # polynomial's residue, or for the spectra-only verdict the eigen residual
        budget, stage = {
            "spectrum": ("COEFF_TOL", "char-poly residue"),
            "charpoly": ("COEFF_TOL", "char-poly residue"),
            "cospectral": ("EIGEN_RESIDUAL_TOL", "eigen residual"),
        }[argv[0]]
        monkeypatch.setattr(f"hermix.spectra.{budget}", -1.0)
        assert main(argv + [dc3_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {stage} failed on the graph (n=3, 3 edges, {alpha}): "
        )


def test_closed_stdout_ends_quietly():
    with subprocess.Popen(
        [sys.executable, "-m", "hermix", "search-cospectral", "--n", "4",
         "--alpha", "gamma", "--alpha", "omega"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout is not None and proc.stderr is not None
        # about 480 kB follow this line, far more than a pipe buffers
        assert json.loads(proc.stdout.readline())["n"] == 4
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
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
