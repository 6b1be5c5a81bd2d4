"""The machine's current speed, from a fixed reference computation.

The benchmark runs on shared hosts whose speed drifts by up to about 2x
over minutes as other tenants load the same cores. A fixed computation of
the same kind as the package's work (interpreter-bound Python with tiny
numpy calls) slows down with it: on such a host, the median time of one
figures job over windows of 12 runs varied by 22% (coefficient of
variation), while the job time divided by the reference time varied by 6%.
So every timing the benchmark reports is scaled to the reference speed:

    scaled = measured * REFERENCE_S / (reference time measured around it)

The reference computation is the benchmark's own code, so a change to the
package never moves it; the raw wall times are kept in the result file.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Wall time of one reference computation on an unloaded core of the host
# the benchmark was defined on (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).
REFERENCE_S = 0.016
_ITERATIONS = 2000
_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
_STATE = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]])


def reference_seconds() -> float:
    """Wall time of one fixed reference computation, now."""
    started = time.perf_counter()
    total = 0.0
    for i in range(_ITERATIONS):
        x = math.cos(i * 1e-3)
        v = np.array([x, 1.0 - x, 0.5])
        total += float(v @ v) + float(np.trace(_STATE @ _PAULIS[i % 3]).real)
    elapsed = time.perf_counter() - started
    if not math.isfinite(total):
        raise ArithmeticError("reference computation went non-finite")
    return elapsed


def scale(measured_s: float, reference_before_s: float, reference_after_s: float) -> float:
    """``measured_s`` at the reference speed, from the references on either side."""
    return measured_s * REFERENCE_S / (0.5 * (reference_before_s + reference_after_s))
