import json
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from vitalchirp import (
    AcquisitionParams,
    FbgProfile,
    IfLfmParams,
    RadarTarget,
    derive_chirp,
)
from vitalchirp.physio import PRESET_SUBJECTS


def dft_magnitude(series, sample_rate, freq):
    """Independent single-frequency DFT oracle (explicit correlation)."""
    x = np.asarray(series, dtype=float)
    t = np.arange(x.size) / sample_rate
    return abs(np.sum(x * np.exp(-2j * np.pi * freq * t)))


def sos_response(sos, freqs, sample_rate):
    """Independent cascade evaluation H(e^{j w}) via direct polynomial math."""
    z = np.exp(-2j * np.pi * np.asarray(freqs) / sample_rate)
    h = np.ones_like(z, dtype=complex)
    for b0, b1, b2, _a0, a1, a2 in np.asarray(sos):
        h *= (b0 + b1 * z + b2 * z**2) / (1.0 + a1 * z + a2 * z**2)
    return h


def traced_peak(call):
    """``call()``'s result and the peak bytes allocated while it ran.

    tracemalloc sees numpy's data buffers, so the peak counts every
    temporary array as well as the result."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def within(timeout, call):
    """``call()``'s result, or the exception it raised, run on a daemon thread; fails
    if the call has not returned after ``timeout`` seconds."""
    outcome = []

    def run():
        try:
            outcome.append(call())
        except Exception as exc:
            outcome.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout)
    assert not caller.is_alive(), f"still running after {timeout} s"
    return outcome[0]


def frames_header(path):
    """The parsed JSON header of the frames file at ``path``, and the payload bytes after it."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[:4])
    return json.loads(raw[4:4 + hlen]), raw[4 + hlen:]


def edit_frames_header(path, edit):
    """Rewrite the header of the frames file at ``path`` as ``edit(header)`` leaves it."""
    header, payload = frames_header(path)
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(struct.pack("<I", len(blob)) + blob + payload)


@pytest.fixture()
def rfft_2d_calls(monkeypatch):
    """Shapes of the 2-D ``numpy.fft.rfft`` calls (frame transforms) made from now on."""
    calls = []
    rfft = np.fft.rfft

    def counting(a, *args, **kwargs):
        if np.ndim(a) == 2:
            calls.append(np.shape(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    return calls


@pytest.fixture(scope="session")
def if_params():
    return IfLfmParams(
        center_freq=6.6e9, bandwidth=1e9, pulse_period=100e-6, pulse_width=60e-6
    )


@pytest.fixture(scope="session")
def chirp(if_params):
    return derive_chirp(if_params)


@pytest.fixture(scope="session")
def fbg():
    return FbgProfile(notch_depth_db=17.70, fwhm_3db=11.2e9)


@pytest.fixture()
def acq():
    return AcquisitionParams()


@pytest.fixture()
def acq_quiet():
    return AcquisitionParams(noise_rms=0.0)


@pytest.fixture(scope="session")
def subjects():
    return PRESET_SUBJECTS


def two_person_scene(noise_rms=None, duration=60.0):
    """Two contactless subjects at 1.00 m and 1.65 m."""
    kwargs = {"duration": duration}
    if noise_rms is not None:
        kwargs["noise_rms"] = noise_rms
    acq = AcquisitionParams(**kwargs)
    targets = [
        RadarTarget(PRESET_SUBJECTS["subject-b"], 1.00),
        RadarTarget(PRESET_SUBJECTS["subject-c"], 1.65),
    ]
    return targets, acq
