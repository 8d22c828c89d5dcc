"""Reference kernels that measure how fast the machine is running right now.

CPU throughput on a shared machine drifts by tens of percent over
minutes.  Each timed unit of work is therefore bracketed by a reference
kernel that does the same kind of work from numpy or the interpreter
alone, never from vitalchirp, and the gated metrics are normalized by
it:

    normalized_s = wall_s * NOMINAL_S[kind] / mean(reference runs during the unit)

which reads as the unit's wall time on a machine where the reference
takes its nominal time.  Raw wall times are reported next to them.

* ``process``: a fresh interpreter importing numpy (process start,
  bytecode unmarshal, shared-library loading), for fresh-process work.
  A CLI iteration runs it after each of its four commands and is
  normalized by the mean of the five runs around and inside it.
* ``frames``: a windowed fast-time FFT over a frame matrix and a
  beat-tone cosine, for in-process work.  It writes into preallocated
  buffers, so the heap state the workload leaves behind does not change
  its cost.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Fixed times the normalized figures are scaled to.  Only their constancy
# matters; they are of the order of each reference's time on a 2-core
# x86-64 VM (Python 3.11, numpy 2.4).
NOMINAL_S = {"process": 0.15, "frames": 0.07}


class Reference:
    """Times one reference kind and turns wall times into normalized times.

    Run ``measure`` once before the first timed unit and again after each
    unit.  ``mark`` before a unit and ``scale(mark)`` after it give the
    factor for that unit: the nominal time over the mean of the reference
    runs from just before the unit to just after it.
    """

    def __init__(self, kind: str, env: dict | None = None):
        if kind not in NOMINAL_S:
            raise ValueError(f"unknown reference kind {kind!r}")
        self.kind = kind
        self.env = env
        self.samples: list[float] = []
        if kind == "frames":
            rows, cols = 1000, 600
            self._frames = np.random.default_rng(20240515).standard_normal((rows, cols))
            self._hann = np.hanning(cols)[None, :]
            self._work = np.empty((rows, cols))
            self._spectra = np.empty((rows, cols // 2 + 1), dtype=complex)

    def _run_frames(self) -> None:
        for _ in range(4):
            np.multiply(self._frames, self._hann, out=self._work)
            np.fft.rfft(self._work, axis=1, out=self._spectra)
            np.abs(self._spectra).mean(axis=0)
            np.multiply.outer(self._frames[:, 0], self._frames[0, :], out=self._work)
            np.cos(self._work, out=self._work)

    def _run_process(self) -> None:
        subprocess.run([sys.executable, "-c", "import numpy"], env=self.env, check=True,
                       stdout=subprocess.DEVNULL)

    def measure(self) -> float:
        start = time.perf_counter()
        if self.kind == "process":
            self._run_process()
        else:
            self._run_frames()
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def mark(self) -> int:
        return len(self.samples) - 1

    def scale(self, mark: int) -> float:
        runs = self.samples[mark:]
        return NOMINAL_S[self.kind] * len(runs) / sum(runs)
