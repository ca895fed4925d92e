"""Pins BLAS to one thread for the whole test run, before numpy loads.

The model's matrices are small: a second BLAS thread does not shorten a
training run, but it spins on the other core and doubles the CPU time the
suite takes, which slows every test when the host is busy.  perfbench/run.py
pins the same variables for the benchmark.  Values already set in the
environment win.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
