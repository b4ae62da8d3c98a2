"""Span tracer wrapped around the public functions of the hermix modules.

``Tracer.install`` replaces every public function of each traced module
with a wrapper that records one span per call: its name, start, end, the
span that was open when it was called (its parent) and the operation id the
benchmark set for the current CLI command.  A name is rebound in every
``hermix.*`` namespace that imported it, because modules call each other
through their own globals (``cospectral`` calls ``is_monograph`` that way).

Spans live in compact in-memory arrays and are written out once, at the
end.  A span's self time is its duration minus the durations of its
children; self times of all spans add up to the durations of the root
spans, which the benchmark compares with the wall time it measured.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

MODULES = ("graphs", "phases", "spectra", "expansion", "monographs", "cospectral", "cli")

# the CLI reports failure through its exit code, not an exception
NONZERO_FAILS = {"cli.main"}


class Tracer:
    """Records spans for wrapped calls; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.failed = array("b")
        self.op = 0
        self._stack: list[int] = []
        self._wrappers: dict[int, tuple[Any, Any]] = {}
        self._rebound: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A wrapper of ``fn`` recording one span named ``name`` per call."""
        nid = len(self.names)
        self.names.append(name)
        nonzero_fails = name in NONZERO_FAILS
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        op_id, failed, stack = self.op_id, self.failed, self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            failed.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                failed[idx] = 1
                stack.pop()
                raise
            end[idx] = clock()
            stack.pop()
            if nonzero_fails and result:
                failed[idx] = 1
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self, package: str = "hermix", modules: tuple[str, ...] = MODULES) -> None:
        """Wrap the public functions of ``modules`` and rebind them everywhere.

        The wrappers are made on the first call and reused after an
        ``uninstall``, so a run can switch tracing on and off per round.
        """
        wrappers = self._wrappers
        if not wrappers:
            for short in modules:
                mod = importlib.import_module(f"{package}.{short}")
                for attr in getattr(mod, "__all__", ()):
                    fn = getattr(mod, attr)
                    if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                        wrappers[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._rebound.append((mod, attr, value))

    def uninstall(self) -> None:
        """Put every original function back."""
        for mod, attr, value in reversed(self._rebound):
            setattr(mod, attr, value)
        self._rebound.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def save(self, path: Path) -> None:
        """Write every span and the name table to one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Per span: duration minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    return dur - child


def summarize(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per function: calls, self time in ms and failed calls."""
    own = self_times(spans)
    k = len(names)
    calls = np.bincount(spans["name_id"], minlength=k)
    self_ms = np.bincount(spans["name_id"], weights=own, minlength=k) * 1e3
    failed = np.bincount(spans["name_id"], weights=spans["failed"], minlength=k)
    return {
        name: {"calls": int(calls[i]), "self_ms": float(self_ms[i]), "failed": int(failed[i])}
        for i, name in enumerate(names)
    }


def self_time_report(
    names: list[str], spans: dict[str, np.ndarray], wall_s: float, top: int = 3
) -> dict[str, Any]:
    """Self time per module with its top functions, and the attribution check.

    ``wall_s`` is the wall time the benchmark measured around the traced
    commands.  Self times add up to the root spans' durations; the rest of
    the wall time is the unattributed remainder, spent between the
    benchmark's clock and the outermost wrapper.  The check fails when a
    span's children outlast it or when the sum does not reconcile.
    """
    own = self_times(spans)
    roots = spans["parent"] < 0
    root_s = float(np.sum(spans["end"][roots] - spans["start"][roots]))
    total_self = float(np.sum(own))
    unattributed = wall_s - total_self
    slack = 1e-9 * max(len(own), 1) + 1e-9 * wall_s
    ok = (
        bool(np.all(own >= -1e-9))
        and abs(total_self - root_s) <= slack
        and -slack <= unattributed <= wall_s
    )
    summary = summarize(names, spans)
    modules: dict[str, dict[str, Any]] = {}
    for name, stats in summary.items():
        mod = name.split(".", 1)[0]
        entry = modules.setdefault(mod, {"self_ms": 0.0, "functions": []})
        entry["self_ms"] += stats["self_ms"]
        if stats["calls"]:
            entry["functions"].append((name, stats))
    for entry in modules.values():
        entry["share"] = entry["self_ms"] / (total_self * 1e3) if total_self else 0.0
        entry["functions"] = [
            {"name": name, **stats}
            for name, stats in sorted(entry["functions"], key=lambda t: -t[1]["self_ms"])[:top]
        ]
    ordered = dict(sorted(modules.items(), key=lambda kv: -kv[1]["self_ms"]))
    return {
        "wall_ms": wall_s * 1e3,
        "self_ms": total_self * 1e3,
        "unattributed_ms": unattributed * 1e3,
        "spans": int(len(own)),
        "consistent": ok,
        "modules": ordered,
    }
