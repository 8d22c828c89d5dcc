"""Contact monitoring walkthrough: chest motion -> FBG edge -> rates.

Synthesizes a breathing/heartbeat displacement series, pushes it through
the Gaussian FBG notch model with the carrier parked on the falling
edge, and recovers both rates from the detected intensity.  Writes
plot-ready CSVs into demo_output/contact/.
"""

from pathlib import Path

import numpy as np

from vitalchirp import (
    FbgProfile,
    contact_intensity,
    contact_rates,
    fbg_transmission_db,
    make_time_grid,
    preset_subject,
    synth_motion,
)
from vitalchirp.formats import write_intensity_csv, write_series_csv

out = Path("demo_output/contact")
out.mkdir(parents=True, exist_ok=True)

subject = preset_subject("subject-a")  # 21 rpm, 87 bpm
print(f"subject: {subject.id}  ({subject.respiration_rate} rpm, "
      f"{subject.heartbeat_rate} bpm, {subject.resp_amplitude} mm chest swing)")

grid = make_time_grid(duration=60.0, sample_rate=50.0)
motion = synth_motion(subject, grid)
write_series_csv(out / "motion.csv", {"t_s": grid.instants(), "x_mm": motion})

# The taped grating: 17.7 dB notch, 11.2 GHz wide at -3 dB.  The carrier
# sits one sigma down the falling edge, where the dB slope is steepest.
fbg = FbgProfile(notch_depth_db=17.70, fwhm_3db=11.2e9)
print(f"notch sigma {fbg.sigma/1e9:.3f} GHz (the carrier's offset), "
      f"edge transmission {fbg_transmission_db(fbg, fbg.sigma):.2f} dB")
offsets = np.linspace(-6.0 * fbg.sigma, 6.0 * fbg.sigma, 801)
write_series_csv(out / "fbg_response.csv", {
    "offset_GHz": offsets / 1e9, "transmittance_dB": fbg_transmission_db(fbg, offsets)})

record = contact_intensity(motion, fbg, grid, rng_seed=1)
write_intensity_csv(out / "intensity.csv", record)
print(f"detected power: mean {record.samples.mean():.4f}, "
      f"peak-to-peak {np.ptp(record.samples):.4f} (edge warning: {record.edge_warning})")

report = contact_rates(record, truth=subject)
print(f"recovered respiration: {report.respiration_rpm:.1f} rpm "
      f"(error {report.resp_error_rpm:+.2f})")
print(f"recovered heartbeat:   {report.heartbeat_bpm:.1f} bpm "
      f"(error {report.heart_error_bpm:+.2f})")
print(f"3-dB resolutions: respiration {report.resp_3db_hz*1e3:.1f} mHz, "
      f"heartbeat {report.heart_3db_hz*1e3:.1f} mHz")
print(f"CSV outputs in {out}/")
