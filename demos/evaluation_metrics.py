"""The evaluation metrics: per-side errors, MAE, EAP, labels, ROC."""

import math

import numpy as np

from orientkit import (
    OrientedBox,
    ScoreSet,
    eap,
    label_accuracy,
    mae,
    nist_tolerance_check,
    roc,
    side_errors,
    summarize_distribution,
    tar_at_far,
)

# Per-side errors are measured in the ground-truth box's own frame:
# positive means the prediction encompasses more than the truth.
gt = OrientedBox(100, 120, 40, 60, math.radians(20))
pred = OrientedBox(gt.cx, gt.cy, gt.w + 10, gt.h + 10, gt.theta)  # +5 px per side
print("uniformly inflated prediction:", side_errors(pred, gt))

# A batch of noisy predictions -> per-side mean absolute error report.
rng = np.random.default_rng(0)
batch = []
for _ in range(500):
    jitter = rng.normal(0, 6, 4)
    noisy = OrientedBox(
        gt.cx + (jitter[1] - jitter[0]) / 2 * math.cos(gt.theta)
        + (jitter[3] - jitter[2]) / 2 * math.sin(gt.theta),
        gt.cy - (jitter[1] - jitter[0]) / 2 * math.sin(gt.theta)
        + (jitter[3] - jitter[2]) / 2 * math.cos(gt.theta),
        max(gt.w + jitter[0] + jitter[1], 1.0),
        max(gt.h + jitter[2] + jitter[3], 1.0),
        gt.theta,
    )
    batch.append(side_errors(noisy, gt))
report = mae(batch)
for side in ("left", "right", "top", "bottom"):
    print(f"  MAE {side:6s}: {report.mae[side]:6.2f} px "
          f"(std {report.std[side]:.2f})")
print(f"  within 64 px tolerance: {nist_tolerance_check(batch):.1%}")

# Angle prediction error on normalized angles in degrees.
gt_angles = list(rng.uniform(-60, 60, 200))
pred_angles = [a + rng.normal(0, 4) for a in gt_angles]
mean, std = eap(gt_angles, pred_angles)
print(f"\nEAP: {mean:.2f} deg (std {std:.2f})")
summary = summarize_distribution([abs(g - p) for g, p in zip(gt_angles, pred_angles)],
                                 bins=8)
print(f"angle error quartiles: q1={summary.q1:.2f} median={summary.median:.2f} "
      f"q3={summary.q3:.2f}")

# Slot-wise Hamming label accuracy.
truth = [["Left-Index", "Left-Middle", "Left-Ring"]] * 10
guess = [row[:] for row in truth]
guess[0][2] = "Left-Little"  # one wrong slot out of 30
loss, acc = label_accuracy(truth, guess)
print(f"\nhamming loss {loss:.4f}, accuracy {acc:.4f}")

# TAR/FAR sweep into an ROC curve. Higher score = stronger match.
scores = ScoreSet(genuine=rng.normal(2.0, 0.8, 400), impostor=rng.normal(0.0, 0.8, 400))
curve = roc(scores)
for target in (0.1, 0.01, 0.001):
    print(f"TAR @ FAR {target:5.3f}: {tar_at_far(curve, target):.4f}")
