"""Layer-budget benchmark of repro-pipelines.

Run one workload with ``python3 perfbench/run.py --workload NAME``; see
``perfbench/README.md`` for the workloads and what each one measures.
"""
