"""Host-speed probe: a fixed pure-Python loop that runs no package code.

On a shared 2-CPU x86-64 machine the host's speed drifts by tens of
percent over tens of seconds, and CPU time drifts with wall time, so the
drift is the machine, not scheduling.  The probe does the kinds of work the engine
does (small integer and Fraction arithmetic on short vectors, object and
dict churn, tokenizing and JSON) so that it slows down together with the
jobs.  A job time times ``scale`` of the probe readings around it reads as
the job time on a host where one probe takes ``REFERENCE_MS``.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

# About the tenth-percentile probe time on a quiet shared 2-CPU x86-64 host
# with CPython 3.11; normalized times are milliseconds of that host.
REFERENCE_MS = 2.0

# Job time grows as probe time to this power: a log-log fit of job time
# against the probe around it, per job, on the three workloads of that
# host while its speed drifted by 3x, gave 0.79-0.88 (correlation 0.9).
EXPONENT = 0.85


def scale(probe_readings_ms) -> float:
    """Factor taking a time measured next to these probe readings to the
    reference host."""
    mean = sum(probe_readings_ms) / len(probe_readings_ms)
    return (REFERENCE_MS / mean) ** EXPONENT


class _Term:
    __slots__ = ("coeffs", "low")

    def __init__(self, coeffs, low):
        self.coeffs = coeffs
        self.low = low


_INTS_A = tuple(range(1, 13))
_INTS_B = tuple(range(3, 15))
_FRACS_A = tuple(Fraction(k, k + 1) for k in range(1, 9))
_FRACS_B = tuple(Fraction(k + 2, 2 * k + 1) for k in range(1, 9))
_RECORD = {"record": "degree", "degree": 1, "free_rank": 0, "delta": "1 - t - t^3 + t^4",
           "divisors": ["-1 + t", "-1 + t^3"]}


def _work() -> int:
    # Three kernels, each shaped like a part of the engine: cyclic
    # convolution of integer tuples into slotted objects (field and Laurent
    # multiplication) with dict and tuple churn (words, group rings);
    # Fraction convolution (inverses, scalar parsing); tokenizing and JSON
    # (job parsing, reports).
    terms = []
    for rep in range(40):
        out = [0] * 12
        for i, x in enumerate(_INTS_A):
            for j, y in enumerate(_INTS_B):
                out[(i + j + rep) % 12] += x * y
        terms.append(_Term(tuple(out), rep))
    seen = {}
    acc = 0
    for i in range(1500):
        key = (i % 37, i % 11)
        seen[key] = seen.get(key, 0) + i
        acc += (i * 7919) % 104729
    for rep in range(3):
        out = [Fraction(0)] * 8
        for i, x in enumerate(_FRACS_A):
            for j, y in enumerate(_FRACS_B):
                out[(i + j + rep) % 8] += x * y
        acc += sum(v.numerator % 97 for v in out)
    lines = []
    for i in range(60):
        line = f"rho x{i} = [[z^{i % 12}, 1/2 - z^3], [0, -z^{(i * 5) % 12}]]"
        tokens = line.replace("[", " ").replace("]", " ").replace(",", " ").split()
        lines.append(" ".join(tokens))
        lines.append(json.dumps(_RECORD, sort_keys=True))
    return acc + len(seen) + len(terms) + len("\n".join(lines))


def probe_ms() -> float:
    """Median time of three probe loops, in milliseconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2] * 1000.0
