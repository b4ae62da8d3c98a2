"""Closed-loop measurement of one workload through ``hermix.cli.main``.

One client sends one command at a time and the next only after the previous
returned and its output was checked.  Only the call to ``cli.main`` is
timed; generating inputs and checking outputs happen between calls.  A run
ends at the first boundary of a whole rotation (every slot has seen every
vertex count) after the timed busy time reaches its budget, so every run
measures the same composition whatever its length.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import reference
from .tracer import Tracer, self_time_report, summarize
from .workloads import Command, Workload

# metric names and units, in the order the result line gives them
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# failures and wrong outputs listed in the report
LISTED = 20
# ok_per_s is the median of the rates of blocks of whole rotations, each at
# least this long, so that a burst of load on a shared host moves one block
BLOCK_S = 2.0


@dataclass
class Tally:
    """Outcome of a stretch of closed-loop commands."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    busy_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    scanned: int = 0
    hits: int = 0
    failures: list[dict[str, Any]] = field(default_factory=list)
    blocks: list[tuple[int, float]] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed


def _describe(cmd: Command) -> dict[str, Any]:
    entry: dict[str, Any] = {"argv": " ".join(cmd.argv[:-1] if cmd.graph else cmd.argv)}
    if cmd.graph is not None:
        entry.update(n=cmd.graph.n, edges=cmd.graph.edge_count)
        if cmd.graph.n <= 12:
            entry["graph"] = cmd.graph.text()
    return entry


def run_command(main: Callable[[list[str]], int], cmd: Command) -> tuple[int, str, str, float]:
    """Call the CLI in process with stdout and stderr captured; time the call only."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(list(cmd.argv))
        except Exception:  # a crash is a failed attempt, not the end of the run
            rc = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), elapsed


def run_round(
    cmds: list[Command],
    main_of: Callable[[], Callable[[list[str]], int]],
    tally: Tally,
    tracer: Tracer | None = None,
) -> None:
    """Send each command after the previous one returned and was checked."""
    for cmd in cmds:
        if tracer is not None:
            tracer.op += 1
        rc, out, err, elapsed = run_command(main_of(), cmd)
        tally.busy_s += elapsed
        tally.attempted += cmd.units
        if rc != 0:
            reason = err.strip().splitlines()[-1] if err.strip() else f"exit {rc}"
            _fail(tally, cmd, f"exit {rc}: {reason}")
            continue
        problems = reference.check(cmd, out)
        if problems:
            tally.wrong += cmd.units
            _fail(tally, cmd, "wrong output: " + "; ".join(problems[:3]))
            continue
        tally.latencies_ms.append(elapsed * 1e3)
        if cmd.op == "search-cospectral":
            tally.scanned += cmd.units
            tally.hits += sum(1 for ln in out.splitlines() if ln.strip())


def measure(
    workload: Workload,
    main_of: Callable[[], Callable[[list[str]], int]],
    budget_s: float,
    tally: Tally,
) -> None:
    """Run whole rotations until the timed busy time reaches ``budget_s``,
    closing a block of (completions, busy seconds) every ``BLOCK_S``."""
    ok0, busy0 = tally.ok, tally.busy_s
    while tally.busy_s < budget_s or workload.rounds % workload.period:
        run_round(workload.next_round(), main_of, tally)
        if workload.rounds % workload.period == 0 and tally.busy_s - busy0 >= BLOCK_S:
            tally.blocks.append((tally.ok - ok0, tally.busy_s - busy0))
            ok0, busy0 = tally.ok, tally.busy_s
    if tally.busy_s > busy0:
        # fold a short last block into the one before it
        ok, busy = tally.blocks.pop() if tally.blocks else (0, 0.0)
        tally.blocks.append((ok + tally.ok - ok0, busy + tally.busy_s - busy0))


def _fail(tally: Tally, cmd: Command, reason: str) -> None:
    tally.failed += cmd.units
    if len(tally.failures) < LISTED:
        tally.failures.append({**_describe(cmd), "reason": reason})


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(tally: Tally, setup_s: float) -> dict[str, dict[str, Any]]:
    """The end-to-end metrics; a run without one successful command has none."""
    if not tally.latencies_ms:
        raise RuntimeError("no command succeeded, so there is no latency to report")
    lat = np.asarray(tally.latencies_ms)
    values = {
        "setup_s": setup_s,
        "ok_per_s": statistics.median(ok / busy for ok, busy in tally.blocks),
        "p50_ms": float(np.percentile(lat, 50)),
        "p95_ms": float(np.percentile(lat, 95)),
        "ok_ratio": tally.ok / tally.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    return with_units(values, END_TO_END)


def per_layer(
    tracer: Tracer, spans: dict[str, np.ndarray], traced: Tally, plain: Tally
) -> dict[str, dict[str, Any]]:
    """Per-module metrics of the traced rounds.

    Calls, failed calls and self time are divided by the traced attempts (a
    graph scanned for a search, a CLI command otherwise), so they measure
    what one unit of work costs, not how much work fitted into the run.
    """
    summary = summarize(tracer.names, spans)
    values: dict[str, float] = {}
    for metric in PER_LAYER:
        func, stat = metric.rsplit(".", 1)
        if metric == "trace.overhead_ratio":
            values[metric] = (traced.busy_s / traced.attempted) / (plain.busy_s / plain.attempted)
        elif stat == "hit_ratio":
            values[metric] = traced.hits / traced.scanned if traced.scanned else 0.0
        else:
            values[metric] = summary.get(func, {}).get(stat, 0) / traced.attempted
    return with_units(values, PER_LAYER)


def with_units(values: dict[str, float], units: dict[str, str]) -> dict[str, dict[str, Any]]:
    """Every metric of ``units``, in its order; a missing value is an error."""
    return {k: {"value": values[k], "unit": unit} for k, unit in units.items()}


def trace_run(
    workload: Workload,
    main_of: Callable[[], Callable[[list[str]], int]],
    seconds: float,
    spans_path: Path,
) -> tuple[Tally, Tally, dict[str, dict[str, Any]], dict[str, Any]]:
    """Rounds alternate untraced and traced, in pairs of equal composition.

    The per-layer metrics come from the traced rounds; the overhead ratio
    compares the busy time per completion of the two halves, which saw the
    same mix at the same time.
    """
    plain, traced = Tally(), Tally()
    tracer = Tracer()
    rotation = 0
    while plain.busy_s + traced.busy_s < seconds or rotation % workload.period:
        run_round(workload.next_round(rotation), main_of, plain)
        cmds = workload.next_round(rotation)
        tracer.install()
        try:
            run_round(cmds, main_of, traced, tracer)
        finally:
            tracer.uninstall()
        rotation += 1
    spans = tracer.spans()
    tracer.save(spans_path)
    report = self_time_report(tracer.names, spans, traced.busy_s)
    if not report["consistent"]:
        raise RuntimeError(f"span self times do not reconcile: {report['self_ms']} ms")
    return plain, traced, per_layer(tracer, spans, traced, plain), report
