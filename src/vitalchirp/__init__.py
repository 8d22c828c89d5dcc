"""vitalchirp: integrated contact and contactless vital-sign monitoring toolkit.

Simulates the full sensing chain of a WDM-distributed monitoring system:
chest-wall motion, FBG edge-filter contact transduction,
frequency-quadrupled FMCW radar de-chirping, and the digital processing
that turns both signals into respiration and heartbeat rates.
"""

__version__ = "0.1.0"  # before the submodule imports: formats reads it

from .physio import make_time_grid, preset_subject, synth_motion
from .photonics import (
    FbgProfile,
    IfLfmParams,
    contact_intensity,
    derive_chirp,
    fbg_transmission_db,
)
from .radar import (
    AcquisitionParams,
    RadarTarget,
    synth_dechirp_frames,
    unambiguous_range,
)
from .dsp import BandpassSpec, design_bandpass, frequency_response
from .pipelines import contact_rates, contactless_rates, resolution_sweep
