"""Benchmark for the hermix CLI: workloads, reference checker and tracer.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see README.md.
"""
