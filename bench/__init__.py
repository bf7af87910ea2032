"""The repo benchmark: six workloads timed from outside the program.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1`` is
the contract ``BENCHMARK.json`` names; ``python -m bench run`` runs every
workload and prints a table, ``python -m bench compare A.json B.json``
judges one set of runs against another.  See ``bench/README.md``.
"""
