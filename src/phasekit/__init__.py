"""phasekit: surgical phase inference on logit streams.

Calibrated-confidence switching between a 7-class baseline classifier and six
2-class transition models, plus temperature-scaling calibration, a buffer-
majority inference strategy, and a synthetic workflow simulator for
desk-scale verification. Import each name from its module.
"""

import os

# before numpy's first import, so OpenBLAS starts no worker thread and each
# fork of the job queue forks a one-thread process; a value already set stays
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# bench/test_bench.py patches phasekit.load_logits; this line goes with
# ROADMAP item 2's bench change
from .logits import load_logits

__version__ = "0.1.0"
