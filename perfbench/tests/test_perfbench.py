"""Tests of the benchmark itself: generator, checker, tracer and entry point.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import hermix.cli  # noqa: E402
from hermix import cospectral, make_alpha, parse_graph  # noqa: E402
from perfbench import harness, reference, tracer, workloads  # noqa: E402
from perfbench.workloads import Workload  # noqa: E402


def _rounds(name: str, seed: int, workdir: Path, count: int) -> list[tuple]:
    w = Workload(name, seed, workdir)
    out = []
    for _ in range(count):
        for cmd in w.next_round():
            argv = tuple(a for a in cmd.argv if not a.endswith(".mg"))
            out.append((argv, cmd.graph, cmd.codes))
    return out


def _run(cmd: workloads.Command) -> str:
    rc, out, err, _ = harness.run_command(hermix.cli.main, cmd)
    assert rc == 0, err
    return out


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name: str, tmp_path: Path) -> None:
    a = _rounds(name, 7, tmp_path / "a", 6)
    b = _rounds(name, 7, tmp_path / "b", 6)
    c = _rounds(name, 8, tmp_path / "c", 6)
    assert a == b
    assert a != c


@pytest.mark.parametrize("name", ["desk", "large"])
def test_inputs_are_distinct_within_a_run(name: str, tmp_path: Path) -> None:
    w = Workload(name, 3, tmp_path)
    for _ in range(10):
        w.next_round()
    summary = w.summary()
    assert summary["repeated_share"] == 0.0
    assert summary["inputs"] > 0


def test_sweep_calls_scan_distinct_codes_and_report_repeats(tmp_path: Path) -> None:
    w = Workload("sweep5", 3, tmp_path)
    rounds = [w.next_round() for _ in range(4)]
    for (cmd,) in rounds:
        assert len(set(cmd.codes)) == cmd.units == workloads.SWEEP_COUNT
    distinct = len({c for (cmd,) in rounds for c in cmd.codes})
    summary = w.summary()
    assert summary["inputs"] == 4 * workloads.SWEEP_COUNT
    assert summary["repeated_share"] == pytest.approx(1 - distinct / summary["inputs"])
    # two calls share about SWEEP_COUNT**2 / SWEEP_CODES codes
    assert 0 < summary["repeated_share"] < 0.05


def test_desk_graphs_are_connected_and_density_bounded(tmp_path: Path) -> None:
    w = Workload("desk", 5, tmp_path)
    for _ in range(10):
        for cmd in w.next_round():
            g = cmd.graph
            assert g is not None and g.n in workloads.DESK_SIZES
            assert reference._components(g) == 1
            table = (
                workloads.DESK_ORACLE_CYCLES
                if cmd.op == "charpoly-oracle"
                else workloads.DESK_CYCLES
            )
            want = table[workloads.DESK_SIZES.index(g.n)]
            cycles = g.edge_count - g.n + 1
            assert cycles == want or g.edge_count == g.n * (g.n - 1) // 2


@pytest.mark.parametrize("alpha", workloads.LARGE_MONO_ALPHAS)
def test_monographs_by_construction(alpha: str) -> None:
    import random

    rng = random.Random(alpha)
    g = workloads.first_kind_monograph(rng, 40, 90, alpha)
    assert reference._components(g) == 1
    assert g.edge_count > 60
    assert reference.is_monograph(g, workloads.alpha_rotation(alpha), 1)
    # the program agrees through its own structural test
    cert = hermix.monographs.is_monograph(
        parse_graph(g.text()), make_alpha(alpha), hermix.monographs.MonographKind.FIRST
    )
    assert cert.verdict


def test_sweep_sample_matches_the_program(tmp_path: Path) -> None:
    hits = cospectral.search_cospectral(
        5, make_alpha("gamma"), make_alpha("omega"), mode="random", count=30, seed=11
    )
    sampled = set(workloads.sweep_sample(11, 30))
    assert {code for code, _, _ in hits} <= sampled


# -- checker -----------------------------------------------------------------


def _first(name: str, op: str, tmp_path: Path, seed: int = 1) -> workloads.Command:
    w = Workload(name, seed, tmp_path)
    for _ in range(20):
        for cmd in w.next_round():
            if cmd.op == op:
                return cmd
    raise AssertionError(f"no {op} command")


@pytest.mark.parametrize(
    "op",
    ["spectrum", "charpoly", "charpoly-oracle", "cospectral", "monograph", "radius"],
)
def test_checker_accepts_desk_outputs(op: str, tmp_path: Path) -> None:
    cmd = _first("desk", op, tmp_path)
    assert reference.check(cmd, _run(cmd)) == []


@pytest.mark.parametrize("op", ["transfer", "partition", "monograph", "radius"])
def test_checker_accepts_large_outputs(op: str, tmp_path: Path) -> None:
    cmd = _first("large", op, tmp_path)
    assert reference.check(cmd, _run(cmd)) == []


def test_checker_rejects_a_perturbed_spectrum(tmp_path: Path) -> None:
    cmd = _first("desk", "spectrum", tmp_path)
    data = json.loads(_run(cmd))
    data["eigenvalues"][2] += 1e-6
    problems = reference.check(cmd, json.dumps(data))
    assert any("eigenvalues" in p for p in problems)


def test_checker_rejects_a_wrong_c2(tmp_path: Path) -> None:
    cmd = _first("desk", "charpoly-oracle", tmp_path)
    data = json.loads(_run(cmd))
    data["char_poly"][1] -= 1.0
    problems = reference.check(cmd, json.dumps(data))
    assert any(p.startswith("c2") for p in problems)


def test_checker_rejects_a_wrong_monograph_verdict(tmp_path: Path) -> None:
    cmd = _first("desk", "monograph", tmp_path)
    data = json.loads(_run(cmd))
    data["is_monograph"] = not data["is_monograph"]
    assert reference.check(cmd, json.dumps(data))


def test_checker_rejects_a_perturbed_transfer_vector(tmp_path: Path) -> None:
    cmd = _first("large", "transfer", tmp_path)
    data = json.loads(_run(cmd))
    data["pairs"][0]["vector"][0][0] += 1e-4
    assert any("residual" in p or "orthonormal" in p for p in reference.check(cmd, json.dumps(data)))


def test_checker_rejects_a_wrong_alpha_echo(tmp_path: Path) -> None:
    cmd = _first("desk", "spectrum", tmp_path)
    data = json.loads(_run(cmd))
    data["alpha"] = "root:1/5" if data["alpha"] != "root:1/5" else "root:1/7"
    assert any("alpha echoed" in p for p in reference.check(cmd, json.dumps(data)))


def _radius_command(tmp_path: Path, graph: workloads.Graph, alpha: str) -> workloads.Command:
    return Workload("desk", 1, tmp_path)._graph_cmd("radius", graph, (alpha,), None, "radius")


def test_checker_rejects_wrong_radius_equality_and_theorem_flags(tmp_path: Path) -> None:
    # a cycle of digons is 2-regular and a first-kind monograph for any alpha
    ring = workloads.Graph(5, tuple((v, v + 1) for v in range(4)) + ((0, 4),), ())
    cmd = _radius_command(tmp_path, ring, "gamma")
    data = json.loads(_run(cmd))
    assert data["equal"] is True and data["theorem_consistent"] is True
    assert reference.check(cmd, json.dumps(data)) == []
    for key in ("equal", "theorem_consistent"):
        bad = dict(data, **{key: False})
        assert any(p.startswith(key) for p in reference.check(cmd, json.dumps(bad)))


def test_checker_rejects_a_dropped_search_hit(tmp_path: Path) -> None:
    for seed in range(50):
        cmd = workloads.search_command(seed, 40)
        lines = _run(cmd).splitlines()
        if lines:
            break
    else:
        raise AssertionError("no search call with a hit")
    assert reference.check(cmd, "\n".join(lines)) == []
    problems = reference.check(cmd, "\n".join(lines[1:]))
    code = json.loads(lines[0])["code"]
    assert any(f"code {code} is cospectral" in p for p in problems)


def test_checker_rejects_a_hit_outside_the_sample() -> None:
    cmd = workloads.search_command(2, 40)
    stranger = next(c for c in range(workloads.SWEEP_CODES) if c not in cmd.codes)
    line = json.dumps({"code": stranger, "n": 5, "edges": [], "report": {"cospectral": True}})
    assert any("not in the sampled set" in p for p in reference.check(cmd, line))


def test_reference_monograph_matches_known_cases() -> None:
    dc3 = workloads.Graph(3, (), ((0, 1), (1, 2), (2, 0)))
    # the directed triangle has balance 3: trivial exactly for thirds of a turn
    assert reference.is_monograph(dc3, Fraction(1, 3), 1)
    assert not reference.is_monograph(dc3, Fraction(1, 4), 1)
    # second kind adds a half turn per edge: 3 * 1/6 + 3/2 = 2
    assert reference.is_monograph(dc3, Fraction(1, 6), 2)


# -- tracer ------------------------------------------------------------------


@pytest.fixture
def fake_package(tmp_path: Path):
    pkg = tmp_path / "tracedpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .outer import outer\n")
    (pkg / "inner.py").write_text(
        "__all__ = ['inner', 'boom']\n"
        "import time\n"
        "def inner(x):\n"
        "    time.sleep(0.002)\n"
        "    return x + 1\n"
        "def boom():\n"
        "    raise ValueError('boom')\n"
    )
    (pkg / "outer.py").write_text(
        "__all__ = ['outer']\n"
        "from .inner import inner, boom\n"
        "def outer(x, fail=False):\n"
        "    if fail:\n"
        "        try:\n"
        "            boom()\n"
        "        except ValueError:\n"
        "            pass\n"
        "    return inner(inner(x))\n"
    )
    sys.path.insert(0, str(tmp_path))
    import tracedpkg

    yield tracedpkg
    sys.path.remove(str(tmp_path))
    for name in [m for m in sys.modules if m.startswith("tracedpkg")]:
        del sys.modules[name]


def test_tracer_attributes_nested_calls_to_their_parent(fake_package) -> None:
    t = tracer.Tracer()
    t.install("tracedpkg", ("inner", "outer"))
    try:
        t.op = 1
        assert fake_package.outer(1) == 3
        t.op = 2
        fake_package.outer(5, fail=True)
    finally:
        t.uninstall()
    spans = t.spans()
    names = [t.names[i] for i in spans["name_id"]]
    assert names == [
        "outer.outer", "inner.inner", "inner.inner",
        "outer.outer", "inner.boom", "inner.inner", "inner.inner",
    ]
    assert list(spans["parent"]) == [-1, 0, 0, -1, 3, 3, 3]
    assert list(spans["op"]) == [1, 1, 1, 2, 2, 2, 2]
    assert list(spans["failed"]) == [0, 0, 0, 0, 1, 0, 0]
    own = tracer.self_times(spans)
    assert own[0] < own[1] and own[0] < own[2]
    summary = tracer.summarize(t.names, spans)
    assert summary["inner.inner"]["calls"] == 4
    assert summary["inner.boom"]["failed"] == 1
    # uninstall puts the originals back in every namespace
    assert not hasattr(fake_package.outer, "__wrapped__")
    assert not hasattr(sys.modules["tracedpkg.outer"].inner, "__wrapped__")


def test_self_time_report_reconciles(fake_package) -> None:
    t = tracer.Tracer()
    t.install("tracedpkg", ("inner", "outer"))
    try:
        import time

        t0 = time.perf_counter()
        fake_package.outer(1)
        wall = time.perf_counter() - t0
    finally:
        t.uninstall()
    report = tracer.self_time_report(t.names, t.spans(), wall)
    assert report["consistent"]
    assert report["unattributed_ms"] >= 0
    assert abs(report["self_ms"] + report["unattributed_ms"] - report["wall_ms"]) < 1e-6
    assert list(report["modules"])[0] == "inner"


def test_tracer_rebinds_hermix_globals(tmp_path: Path) -> None:
    """cospectral calls is_monograph through its own global; the span of that
    call must sit under numeric_cospectral."""
    g = parse_graph("4\n0 -> 1\n1 -> 2\n2 -- 3\n3 -> 0\n")
    t = tracer.Tracer()
    t.install()
    try:
        cospectral.numeric_cospectral(g, make_alpha("gamma"), make_alpha("omega"))
    finally:
        t.uninstall()
    spans = t.spans()
    names = [t.names[i] for i in spans["name_id"]]
    top = names.index("cospectral.numeric_cospectral")
    mono = [i for i, n in enumerate(names) if n == "monographs.is_monograph"]
    assert mono
    for i in mono:
        p = int(spans["parent"][i])
        while p >= 0 and p != top:
            p = int(spans["parent"][p])
        assert p == top
    assert cospectral.is_monograph is hermix.monographs.is_monograph


# -- benchmark definition and entry point ------------------------------------


def test_per_layer_metrics_are_per_attempt(tmp_path: Path) -> None:
    """Calls and self time are divided by the traced attempts, so they do not
    grow with the amount of work a run fits in."""
    cmds = Workload("desk", 6, tmp_path).next_round()[:3]
    t = tracer.Tracer()
    traced = harness.Tally()
    t.install()
    try:
        harness.run_round(cmds, lambda: hermix.cli.main, traced, t)
    finally:
        t.uninstall()
    spans = t.spans()
    metrics = harness.per_layer(t, spans, traced, traced)
    assert list(metrics) == list(harness.PER_LAYER)
    assert metrics["cli.main.calls"] == {"value": 1.0, "unit": "calls/op"}
    summary = tracer.summarize(t.names, spans)
    eig = summary["spectra.eigen_decomposition"]
    assert metrics["spectra.eigen_decomposition.calls"]["value"] == eig["calls"] / 3
    assert metrics["spectra.eigen_decomposition.self_ms"]["value"] == pytest.approx(
        eig["self_ms"] / 3
    )
    assert metrics["trace.overhead_ratio"]["value"] == 1.0


def test_run_fails_without_sources(tmp_path: Path) -> None:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "4",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expect = harness.END_TO_END if trace == 0 else harness.PER_LAYER
    assert list(result["metrics"]) == list(expect)
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
