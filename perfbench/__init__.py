"""Production-path benchmark of the E-Sharing serving runtime.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` drives one workload through the public serving API and
prints its metrics; see ``perfbench/README.md``.
"""
