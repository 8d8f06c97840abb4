"""Host-speed probes: fixed work, independent of spineid, timed between operations.

The benchmark runs on shared hosts whose speed changes by up to half within
seconds, as other tenants' load comes and goes, and stays changed for tens
of seconds at a time. Raw wall times then spread across runs by more than
any useful bound. So the timed loop runs a probe at least every
``INTERVAL_S`` seconds, between operations and outside their timers. A probe
never calls spineid, so a change to spineid cannot move it. There are two
kinds, each matched to the work it stands for:

- ``cpu`` times, in this process, a fixed mix of the kinds of work spineid
  does in process (JSON parsing, small numpy products, Python loops). It
  scales operations that run in the benchmark's own process.
- ``spawn`` times a fresh ``python -c "import numpy"`` process. It scales
  work done in fresh processes (CLI calls and set-ups), whose interpreter
  start and imports slow down on a busy host by less than the ``cpu`` mix
  does, and in step with this probe.

An operation's adjusted time is its wall time times the probe's reference
time over the mean of the probe just before it and the probe just after it:
the time it would take on a host where the probe takes its reference time.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np

INTERVAL_S = 0.25

_DOC = json.dumps({"rows": [{"i": i, "p": [i * 0.5, i * 0.25, 1.0 / (i + 1)], "tag": f"v{i}"} for i in range(40)]})
_M = np.arange(576.0).reshape(24, 24) / 576


def _cpu_ms() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(40):
        doc = json.loads(_DOC)
        acc += sum(r["p"][2] for r in doc["rows"])
        m = _M @ _M
        acc += float(np.log1p(m).sum()) + float(np.argmax(m[k % 24]))
        acc += sum(i * i for i in range(300))
    return (time.perf_counter() - t0) * 1e3


def _spawn_ms() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, check=True, timeout=120)
    return (time.perf_counter() - t0) * 1e3


# kind: (kernel, kernel calls averaged per probe, reference time in ms)
KINDS = {"cpu": (_cpu_ms, 4, 2.5), "spawn": (_spawn_ms, 1, 150.0)}


class HostProbe:
    """Probe times in ms, in the order they were taken."""

    def __init__(self, kind: str):
        self.kind = kind
        self._kernel, self._repeats, self.reference_ms = KINDS[kind]
        self.ms: list[float] = []
        self._last = float("-inf")
        self._kernel()  # warm-up, not recorded

    def sample(self) -> int:
        """Take a probe now; return its index."""
        self.ms.append(sum(self._kernel() for _ in range(self._repeats)) / self._repeats)
        self._last = time.perf_counter()
        return len(self.ms) - 1

    def tick(self) -> int:
        """Take a probe if ``INTERVAL_S`` has passed since the last; return the latest index."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            return self.sample()
        return len(self.ms) - 1

    def adjust(self, raw: float, before: int) -> float:
        """``raw`` scaled to the reference speed, by probes ``before`` and ``before + 1``."""
        return raw * self.reference_ms * 2 / (self.ms[before] + self.ms[before + 1])

    def summary(self) -> dict:
        return {"kind": self.kind, "reference_ms": self.reference_ms, "median_ms": statistics.median(self.ms),
                "min_ms": min(self.ms), "max_ms": max(self.ms), "probes": len(self.ms)}
