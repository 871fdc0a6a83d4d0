"""Host-speed calibration task for a shared, unsteady host.

On the measuring host the speed of a core drifts by up to +-30% over 5-15 s
(process time tracks wall time, and steal time stays near 0, so the cause is
the shared host, not scheduling).  Medians over more passes cannot remove a
drift that lasts longer than a run.  The benchmark therefore times this
fixed task right before and after every command and reports each command's
wall time in units of the task's wall time ("cal").

The task mixes the kinds of work ``toplax`` does: a Python loop of complex
exponentials (like the theta series), small complex numpy products (like
the tensor contractions) and dict, list and string work (like the CLI's
config and report handling).  On the measuring host this mix tracked the
commands' speed better than any one of its parts.  It is benchmark code and
never changes with the program, so a faster program reads as fewer cal.
"""

import cmath
import json
import time

import numpy as np

# typical wall seconds of the task on the measuring host (2 vCPUs, Intel
# Xeon, python 3.11); a time in cal times this is a time in seconds at that
# host's reference speed
CAL_REFERENCE_S = 0.007

_A = (np.arange(64).reshape(8, 8) % 7 - 3) * (0.1 + 0.05j)


def _task():
    s = 0j
    for i in range(2000):
        z = complex(i * 1e-3, 0.5)
        s += cmath.exp(1j * z) * z
    for _ in range(300):
        s += np.einsum("ij,ji->", _A, _A @ _A)
    table = {f"k{i}": [i, i * 0.5, str(i)] for i in range(500)}
    table = json.loads(json.dumps(table))
    rows = sorted(table.items(), key=lambda kv: -kv[1][1])
    return s, "".join(f"{k}:{v[0]}" for k, v in rows)


def cal_seconds(repeats=3):
    """Wall seconds of the calibration task, best of ``repeats``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _task()
        best = min(best, time.perf_counter() - t0)
    return best
