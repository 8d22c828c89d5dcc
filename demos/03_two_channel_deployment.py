"""WDM deployment walkthrough: scenario config -> bundle -> report table.

Builds the two-wavelength deployment (one channel doing both contact and
contactless monitoring, the second contact-only), runs it into a dataset
bundle on disk, reloads the bundle, and prints a monitored-vs-actual
table for all three people.
"""

import json
from pathlib import Path

from vitalchirp.formats import (
    build_manifest,
    read_bundle,
    scenario_from_dict,
    scenario_to_dict,
    write_bundle,
)
from vitalchirp.scenario import bundle_reports, run_scenario, validate_scenario

config = {
    "duration_s": 60.0,
    "seed": 2024,
    "acquisition": {"noise_rms": 0.5},
    "channels": [
        {
            "wavelength_nm": 1549.36,
            "roles": ["contact", "contactless"],
            "if_lfm": {"center_freq": 6.6e9, "bandwidth": 1e9,
                       "pulse_period": 100e-6, "pulse_width": 60e-6},
            "fbg": {"notch_depth_db": 17.70, "fwhm_3db": 11.2e9},
            "fiber_length_km": 4.1,
            "contact_subject": "subject-a",
            "radar_targets": [
                {"subject": "subject-b", "range_m": 1.00},
                {"subject": "subject-c", "range_m": 1.65},
            ],
        },
        {
            "wavelength_nm": 1549.92,
            "roles": ["contact"],
            "if_lfm": {"center_freq": 6.6e9, "bandwidth": 1e9,
                       "pulse_period": 100e-6, "pulse_width": 60e-6},
            "fbg": {"notch_depth_db": 17.76, "fwhm_3db": 10.0e9},
            "contact_subject": "subject-d",
        },
    ],
}

scenario = scenario_from_dict(config)
validation = validate_scenario(scenario)
for w in validation.warnings:
    print(f"note: {w}")
assert validation.ok, validation.violations

out = Path("demo_output/deployment")
bundle = run_scenario(scenario)
resolved = scenario_to_dict(scenario)
write_bundle(bundle, out, build_manifest("demo", {}, resolved, scenario.seed))
print(f"bundle written to {out}/")

# the walk `vitalchirp process` takes: every person, labelled <id>@<channel>nm
reports, _ = bundle_reports(read_bundle(out).channels)

print()
print(f"{'person@channel':20s} {'mode':12s} "
      f"{'resp meas':>9s} {'actual':>6s} {'err':>5s} "
      f"{'heart meas':>10s} {'actual':>6s} {'err':>5s}")
for rep in reports:  # an error is measured minus actual
    print(f"{rep.label:20s} {rep.modality:12s} "
          f"{rep.respiration_rpm:9.1f} {rep.respiration_rpm - rep.resp_error_rpm:6.1f} "
          f"{rep.resp_error_rpm:+5.1f} "
          f"{rep.heartbeat_bpm:10.1f} {rep.heartbeat_bpm - rep.heart_error_bpm:6.1f} "
          f"{rep.heart_error_bpm:+5.1f}")

report_path = out / "report_table.json"
report_path.write_text(json.dumps([r.to_dict() for r in reports], indent=2))
print(f"\nreport table in {report_path}")
