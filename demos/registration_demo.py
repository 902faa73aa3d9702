"""Reference registration: recover a known deformation from images alone.

A phantom is deformed by a smooth velocity field; the optimizer sees only
the two scalar images and minimizes negative windowed correlation plus a
diffusion penalty over a coarse-to-fine pyramid.  Label maps and landmarks
stay out of the loop and serve purely for scoring, exactly like a
challenge evaluation.  The SVF parameterization, RegConfig's default, keeps
the recovered field diffeomorphic, which the folded-volume fraction confirms.
"""
import time

import numpy as np

from regeval import (
    DisplacementField,
    PhantomSpec,
    RegConfig,
    Svf,
    evaluate_pair,
    make_pair,
    make_phantom,
    make_velocity,
    register,
)

dims = (48, 48, 48)
phantom = make_phantom(PhantomSpec(dims=dims, label_count=4, seed=13, noise_sigma=0.1))
pair = make_pair(phantom, make_velocity(Svf(seed=14, amplitude=4.0, smoothness=7.0), dims))
landmarks = (pair.fixed_landmarks, pair.moving_landmarks)

zero = evaluate_pair(
    pair.fixed_labels, pair.moving_labels,
    DisplacementField.zero(pair.fixed_labels.header), landmarks=landmarks,
)
print(f"before registration: dsc {zero.dsc_mean:.3f}, tre {zero.tre_mean:.2f} mm")

cfg = RegConfig(iters_per_level=(60, 60, 30))
t0 = time.perf_counter()
field, trace = register(pair.fixed_image, pair.moving_image, cfg)
elapsed = time.perf_counter() - t0

after = evaluate_pair(pair.fixed_labels, pair.moving_labels, field, landmarks=landmarks)
print(f"after registration:  dsc {after.dsc_mean:.3f}, tre {after.tre_mean:.2f} mm, "
      f"ndv {after.ndv:.1e}  ({elapsed:.1f} s)")
print(f"loss trace: {len(trace)} levels, "
      + " -> ".join(f"{lv[-1]:.4f}" for lv in trace if lv))

refined, _ = register(pair.fixed_image, pair.moving_image, cfg, init=field)
final = evaluate_pair(pair.fixed_labels, pair.moving_labels, refined, landmarks=landmarks)
print(f"instance-optimized:  dsc {final.dsc_mean:.3f}, tre {final.tre_mean:.2f} mm")

err = np.linalg.norm(field.data - pair.truth.data, axis=-1)
print(f"field error vs truth over the interior: "
      f"median {np.median(err[8:-8, 8:-8, 8:-8]):.2f} voxels")
