"""Benchmark entry point.

    python3 perfbench/run.py --workload sweep5|desk|large --seed N \
        --seconds S --trace 0|1

Runs from the root of a source checkout and uses the package under
``src/`` as it is.  The process pins BLAS and OpenMP to one thread before
numpy loads, so each run is the single-threaded baseline.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-module metrics of a traced run; either way the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run details (environment, input summary, failures, self-time report) go to
stderr and to ``.perfbench_work/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# set-up is timed in fresh processes, this many times after one untimed
# start that leaves the byte-code cache warm; the median is reported
SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 60
# a run ends at the first round boundary past --seconds; stop a wedged one
RUN_LIMIT_S = 170


def _parse(argv: list[str] | None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def _setup_seconds(argv: tuple[str, ...]) -> list[float]:
    """Wall time of fresh ``python -m hermix`` processes answering one command."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "hermix", *argv],
            env=env,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=SETUP_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up command failed: {proc.stderr.decode()[-500:]}")
        if i:
            times.append(elapsed)
    return times


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "hermix" / "cli.py").is_file():
        print(f"error: no hermix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    args = _parse(argv)

    def _overrun(signum, frame):  # noqa: ARG001
        raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")

    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(RUN_LIMIT_S)

    import hermix.cli
    from perfbench import harness
    from perfbench.workloads import Workload

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = WORK / tag
    shutil.rmtree(workdir, ignore_errors=True)
    WORK.mkdir(exist_ok=True)
    env = _environment(args.seed)
    print("env " + json.dumps(env), file=sys.stderr)

    workload = Workload(args.workload, args.seed, workdir)
    warmup = workload.warmup()
    setup = _setup_seconds(warmup.argv) if args.trace == 0 else []
    main_of = lambda: hermix.cli.main  # noqa: E731  (rebound while tracing)
    rc, _, err, _ = harness.run_command(main_of(), warmup)
    if rc != 0:
        print(f"error: warm-up command failed: {err}", file=sys.stderr)
        return 1

    report: dict = {"workload": args.workload, "env": env}
    if args.trace == 0:
        tally = harness.Tally()
        harness.measure(workload, main_of, args.seconds, tally)
        tallies = [tally]
        metrics = harness.end_to_end(tally, statistics.median(setup))
        report["setup_samples_s"] = setup
        report["ok_per_s_blocks"] = tally.blocks
        report["latency_samples"] = len(tally.latencies_ms)
    else:
        plain, traced, metrics, selftime = harness.trace_run(
            workload, main_of, args.seconds, WORK / f"spans-{args.workload}.npz"
        )
        tallies = [plain, traced]
        report["self_time"] = selftime
        print("self-time " + json.dumps(_brief(selftime)), file=sys.stderr)
    signal.alarm(0)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    wrong = sum(t.wrong for t in tallies)
    report.update(
        inputs=workload.summary(),
        attempted=attempted,
        failed=failed,
        wrong=wrong,
        fail_ratio=failed / attempted,
        busy_s=sum(t.busy_s for t in tallies),
        failures=[f for t in tallies for f in t.failures],
        metrics=metrics,
    )
    (WORK / f"report-{tag}.json").write_text(json.dumps(report, indent=1))
    shutil.rmtree(workdir, ignore_errors=True)
    print("inputs " + json.dumps(report["inputs"]), file=sys.stderr)
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}", file=sys.stderr)
    for f in report["failures"][:5]:
        print(f"failed: {f['argv']} (n={f.get('n')}): {f['reason'][:200]}", file=sys.stderr)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _brief(selftime: dict) -> dict:
    return {
        "wall_ms": selftime["wall_ms"],
        "unattributed_ms": selftime["unattributed_ms"],
        "consistent": selftime["consistent"],
        "modules": {
            m: [round(e["share"], 4), [f["name"] for f in e["functions"]]]
            for m, e in selftime["modules"].items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
