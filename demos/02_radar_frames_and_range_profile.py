"""Contactless monitoring walkthrough: chirp -> de-chirped frames -> rates.

Derives the frequency-quadrupled transmit chirp from its 6.6 GHz / 1 GHz
IF drive, synthesizes de-chirped frames for two people sitting at 1.00 m
and 1.65 m, then walks the processing chain on the frames (their hann
fast-time transform is taken once and kept): range profile, per-target
phase extraction, and two-band rate recovery.
"""

from pathlib import Path

import numpy as np

from vitalchirp import (
    AcquisitionParams,
    IfLfmParams,
    RadarTarget,
    contactless_rates,
    derive_chirp,
    make_time_grid,
    preset_subject,
    synth_dechirp_frames,
    synth_motion,
    unambiguous_range,
)
from vitalchirp.formats import write_series_csv
from vitalchirp.pipelines import extract_target_phase, range_profile

out = Path("demo_output/radar")
out.mkdir(parents=True, exist_ok=True)

if_drive = IfLfmParams(center_freq=6.6e9, bandwidth=1e9,
                       pulse_period=100e-6, pulse_width=60e-6)
chirp = derive_chirp(if_drive)
print(f"transmit chirp: {chirp.start_freq/1e9:.1f}-{chirp.stop_freq/1e9:.1f} GHz "
      f"(center {chirp.center_freq/1e9:.1f} GHz), rate {chirp.chirp_rate:.3e} Hz/s")
print(f"carrier wavelength {chirp.carrier_wavelength*1e3:.3f} mm")

acq = AcquisitionParams()  # 10 MSa/s bursts of 60 us, one per 20 ms, 60 s
print(f"unambiguous range {unambiguous_range(chirp, acq.fast_rate):.2f} m")

targets = [
    RadarTarget(preset_subject("subject-b"), nominal_range=1.00),
    RadarTarget(preset_subject("subject-c"), nominal_range=1.65),
]
frames = synth_dechirp_frames(targets, chirp, acq, seed=7)
print(f"frame matrix: {frames.slow_count} x {frames.fast_count} "
      f"(slow rate {frames.slow_rate:.0f} Hz)")

profile = range_profile(frames)
write_series_csv(out / "range_profile.csv",
                 {"range_m": profile.ranges, "magnitude": profile.magnitudes})
print("strongest range peaks:",
      ", ".join(f"{r:.2f} m" for r in np.sort(profile.ranges[profile.peak_indices()][:2])))

# pull the phase of the nearer person and compare with the ground truth
(extraction,) = extract_target_phase(frames, [1.00])  # a PhaseSeries, or the selection's error
truth_motion = synth_motion(targets[0].subject, make_time_grid(60.0, 50.0))
phase_truth = 4 * np.pi * (truth_motion * 1e-3) / chirp.carrier_wavelength
write_series_csv(out / "phase_vs_truth.csv", {
    "t_s": np.arange(extraction.phase.size) / frames.slow_rate,
    "phase_rad": extraction.phase - extraction.phase.mean(),
    "truth_rad": phase_truth - phase_truth.mean(),
})

for report in contactless_rates(frames):
    print(f"{report.label}: range {report.range_m:.2f} m, "
          f"respiration {report.respiration_rpm:.1f} rpm "
          f"(err {report.resp_error_rpm:+.2f}), "
          f"heartbeat {report.heartbeat_bpm:.1f} bpm "
          f"(err {report.heart_error_bpm:+.2f})")
print(f"CSV outputs in {out}/")
