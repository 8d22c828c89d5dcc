"""The two band-splitting filters, designed and verified on a dense grid.

Both vital-sign bands are isolated with elliptic bandpass cascades:
0.13-0.5 Hz for respiration and 0.8-1.9 Hz for heartbeat, at the 50 Sa/s
acquisition rate.  The design is checked point by point against its
mask and the responses are dumped as CSV.
"""

from pathlib import Path

import numpy as np

from vitalchirp import BandpassSpec, design_bandpass, dsp, frequency_response
from vitalchirp.formats import write_series_csv

out = Path("demo_output/filters")
out.mkdir(parents=True, exist_ok=True)

for name, (low, high) in (("respiration", (0.13, 0.5)), ("heartbeat", (0.8, 1.9))):
    spec = BandpassSpec(low_edge=low, high_edge=high, sample_rate=50.0)
    coeffs = design_bandpass(spec)
    freqs, h = frequency_response(coeffs, n=8192)
    mag_db = 20 * np.log10(np.maximum(np.abs(h), 1e-300))

    passband = (freqs >= low) & (freqs <= high)
    stopband = (freqs <= spec.stop_low) | (freqs >= spec.stop_high)
    print(f"{name} band {low}-{high} Hz, order {dsp.ORDER}:")
    print(f"  sections: {len(coeffs.sections)}, "
          f"worst pole radius {np.abs(coeffs.poles()).max():.6f}")
    print(f"  passband ripple: {-mag_db[passband].min():.3f} dB "
          f"(spec {dsp.PASSBAND_RIPPLE_DB} dB)")
    print(f"  stopband floor:  {-mag_db[stopband].max():.2f} dB "
          f"(spec {dsp.STOPBAND_ATTEN_DB} dB beyond "
          f"{spec.stop_low:.3f}/{spec.stop_high:.3f} Hz)")
    write_series_csv(out / f"{name}_response.csv",
                     {"freq_hz": freqs, "magnitude_db": mag_db})
print(f"CSV outputs in {out}/")
