"""Command surface: JSON shapes, exit codes, stdin handling."""

from __future__ import annotations

import io
import json
import math
import random
import subprocess
import sys

import pytest

from hermix import (
    ALPHA_GAMMA,
    ALPHA_ONE,
    build_hermitian,
    eigen_decomposition,
    serialize_graph,
    transfer_eigenvectors,
    verify_eigenpair,
)
from hermix.cli import main

from conftest import complete_mixed


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

    def test_bad_basis_is_input_error(self, capsys, tmp_path, dc3_file):
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps([{"lambda": 9.0, "vector": [[1, 0]] * 3}]))
        code = main(["transfer", "--alpha", "gamma", "--basis", str(basis_path), dc3_file])
        assert code == 2
        assert "fails verification" in capsys.readouterr().err

    def test_malformed_basis_json(self, capsys, tmp_path, dc3_file):
        basis_path = tmp_path / "basis.json"
        basis_path.write_text("not json")
        assert main(["transfer", "--alpha", "gamma", "--basis", str(basis_path), dc3_file]) == 2


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
