"""Benchmark sweeps: accuracy vs. pixel noise and vs. frames used.

Reproduces the two ablation studies on smaller repeat counts so the demo
stays quick; bump `repeats` (and the value lists) for full-quality curves.
Writes the same CSVs the `refcal sweep-*` commands emit.

Run: python demos/06_sweeps.py
"""

import numpy as np

from refcal import Mode, NoiseModel, ScenarioConfig, run_frames_sweep, run_noise_sweep
from refcal.fileio import builtin_chain_path, parse_chain_file

chain, ref = parse_chain_file(builtin_chain_path("panda"))
repeats = 5

print("== noise sweep (eye-on-base, 300 frames) ==")
cfg = ScenarioConfig(seed=31, mode=Mode.EYE_ON_BASE)
sweep = run_noise_sweep(cfg, chain, ref, sigma_values=[0, 2, 4, 6, 8, 10], n_repeats=repeats)
print(f"{'sigma':>6} {'e_x':>7} {'e_y':>7} {'e_z':>7} {'e_trans':>8} {'e_r':>9}  (cm / rad)")
for c in sweep.cells:
    print(f"{c.param:6.0f} {c.mean('e_x_cm'):7.3f} {c.mean('e_y_cm'):7.3f} "
          f"{c.mean('e_z_cm'):7.3f} {c.mean('e_trans_cm'):8.3f} {c.mean('e_r_rad'):9.2e}")
sweep.to_csv("noise_sweep.csv")
print("-> noise_sweep.csv")

print("\n== frame-count sweep (sigma = 2 px) ==")
cfg = ScenarioConfig(seed=32, mode=Mode.EYE_ON_BASE, noise=NoiseModel(sigma=2.0))
sweep = run_frames_sweep(cfg, chain, ref, n_values=[4, 6, 10, 20, 50, 150, 300],
                         n_repeats=repeats)
print(f"{'n':>6} {'e_trans (cm)':>13} {'e_r (deg)':>10} {'fails':>6}")
for c in sweep.cells:
    print(f"{c.param:6.0f} {c.mean('e_trans_cm'):13.4f} {np.degrees(c.mean('e_r_rad')):10.4f} "
          f"{c.n_fail:6d}")
sweep.to_csv("frames_sweep.csv")
print("-> frames_sweep.csv")
print("\nmetadata recorded in both CSVs:", dict(sweep.metadata))
