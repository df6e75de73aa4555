"""Segmentation and verification metrics.

Covers per-side box errors measured by perpendicular feet onto the
ground-truth side lines, their mean absolute error, angle-prediction
error, slot-wise Hamming label accuracy, TAR/FAR sweeps into an ROC
curve, the 64-pixel tolerance pass rate, and histogram/boxplot summaries
for reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import OrientedBox, normalize_angle


@dataclass(frozen=True)
class SideErrors:
    """Signed per-side displacement of a predicted box against ground truth.

    Positive means the predicted side sits outside the ground-truth
    interior (the prediction encompasses more), negative means inside.
    """

    left: float
    right: float
    top: float
    bottom: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.left, self.right, self.top, self.bottom)

    def within(self, tolerance: float) -> bool:
        """True when all four side errors stay within tolerance pixels."""
        return all(abs(v) <= tolerance for v in self.as_tuple())


@dataclass(frozen=True)
class MaeReport:
    """Per-side mean absolute error and the std dev of the absolute errors."""

    mae: dict[str, float]
    std: dict[str, float]
    count: int


SIDES = ("left", "right", "top", "bottom")


def side_errors(pred: OrientedBox, gt: OrientedBox) -> SideErrors:
    """Per-side signed errors of `pred` relative to `gt`.

    Everything is measured in the ground-truth box's local frame, where
    the gt sides lie on the axis-parallel lines x = +-w/2, y = +-h/2
    (top is the smaller-y side, image convention). The predicted box's
    sides are named after its own axes once the relative angle is reduced
    to (-pi/2, pi/2]. Each predicted side drops perpendicular feet from
    its two endpoints onto the line carrying the matching gt side; the
    error magnitude is the mean of the two foot distances and the sign
    comes from the side midpoint's outward/inward displacement.
    """
    cos_g, sin_g = math.cos(gt.theta), math.sin(gt.theta)
    dx, dy = pred.cx - gt.cx, pred.cy - gt.cy
    # Into the gt frame: inverse of the corner rotation [[c, s], [-s, c]].
    px = dx * cos_g - dy * sin_g
    py = dx * sin_g + dy * cos_g

    phi = normalize_angle(pred.theta - gt.theta)
    cos_p, sin_p = math.cos(phi), math.sin(phi)
    hw, hh = pred.w / 2.0, pred.h / 2.0

    def endpoint(ex: float, ey: float) -> tuple[float, float]:
        return (px + ex * cos_p + ey * sin_p, py - ex * sin_p + ey * cos_p)

    corners = {
        (-1, -1): endpoint(-hw, -hh),
        (+1, -1): endpoint(+hw, -hh),
        (+1, +1): endpoint(+hw, +hh),
        (-1, +1): endpoint(-hw, +hh),
    }
    gw, gh = gt.w / 2.0, gt.h / 2.0
    # Endpoint pairs of each predicted side and the signed outward
    # displacement of a point from the matching gt side line.
    sides = {
        "left": ((corners[(-1, -1)], corners[(-1, +1)]), lambda q: -gw - q[0]),
        "right": ((corners[(+1, -1)], corners[(+1, +1)]), lambda q: q[0] - gw),
        "top": ((corners[(-1, -1)], corners[(+1, -1)]), lambda q: -gh - q[1]),
        "bottom": ((corners[(-1, +1)], corners[(+1, +1)]), lambda q: q[1] - gh),
    }
    out = {}
    for name, ((a, b), displacement) in sides.items():
        sa, sb = displacement(a), displacement(b)
        magnitude = (abs(sa) + abs(sb)) / 2.0
        out[name] = math.copysign(magnitude, sa + sb)
    return SideErrors(**out)


def mae(errors: Sequence[SideErrors]) -> MaeReport:
    """Mean absolute error per side, with population std of the absolute errors."""
    if not errors:
        raise ValueError("mae needs at least one error record")
    table = np.array([e.as_tuple() for e in errors], dtype=float)
    magnitudes = np.abs(table)
    means = magnitudes.mean(axis=0)
    stds = magnitudes.std(axis=0)
    return MaeReport(
        mae=dict(zip(SIDES, means.tolist())),
        std=dict(zip(SIDES, stds.tolist())),
        count=len(errors),
    )


def angle_error_deg(gt_deg: float, pred_deg: float) -> float:
    """Angle between two box axes: |gt - pred| folded into [0, 90]; -89 vs 89 is 2."""
    d = abs(gt_deg - pred_deg) % 180.0
    return min(d, 180.0 - d)


def eap(
    gt_angles: Sequence[float], pred_angles: Sequence[float]
) -> tuple[float, float]:
    """Mean and population std of the pairs' `angle_error_deg`, in degrees."""
    if len(gt_angles) != len(pred_angles):
        raise ValueError(
            f"angle lists differ in length: {len(gt_angles)} vs {len(pred_angles)}"
        )
    if not gt_angles:
        raise ValueError("eap needs at least one angle pair")
    gt, pred = (np.asarray(a, float).tolist() for a in (gt_angles, pred_angles))
    deviations = np.array([angle_error_deg(g, p) for g, p in zip(gt, pred)])
    return float(deviations.mean()), float(deviations.std())


def label_accuracy(
    gt_labels: Sequence[Sequence], pred_labels: Sequence[Sequence]
) -> tuple[float, float]:
    """Slot-wise Hamming loss and its complement accuracy over label sequences.

    Each sample contributes (mismatched slots / slots); the loss is the
    mean over samples and accuracy is exactly 1 - loss.
    """
    if len(gt_labels) != len(pred_labels):
        raise ValueError(
            f"sample counts differ: {len(gt_labels)} vs {len(pred_labels)}"
        )
    if not gt_labels:
        raise ValueError("label_accuracy needs at least one sample")
    per_sample = []
    for i, (gt, pred) in enumerate(zip(gt_labels, pred_labels)):
        if len(gt) != len(pred):
            raise ValueError(f"sample {i}: slot counts differ ({len(gt)} vs {len(pred)})")
        if not gt:
            raise ValueError(f"sample {i}: empty label sequence")
        mism = sum(1 for g, p in zip(gt, pred) if g != p)
        per_sample.append(mism / len(gt))
    loss = sum(per_sample) / len(per_sample)
    return loss, 1.0 - loss


@dataclass(frozen=True)
class ScoreSet:
    """Mated and non-mated comparison scores; higher score = stronger match."""

    genuine: np.ndarray = field(repr=False)
    impostor: np.ndarray = field(repr=False)

    def __post_init__(self):
        for kind in ("genuine", "impostor"):
            # A read-only copy, so the checks below keep holding after construction.
            arr = np.array(getattr(self, kind), float)
            arr.flags.writeable = False
            if arr.ndim != 1:
                raise ValueError(f"{kind} scores must be 1-d, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite {kind} score")
            object.__setattr__(self, kind, arr)


@dataclass(frozen=True)
class RocCurve:
    """Operating points swept over descending thresholds (accept iff score >= t)."""

    thresholds: np.ndarray = field(repr=False)
    tar: np.ndarray = field(repr=False)
    far: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.thresholds, float)
        tar = np.asarray(self.tar, float)
        far = np.asarray(self.far, float)
        if not (t.shape == tar.shape == far.shape) or t.ndim != 1 or t.size == 0:
            raise ValueError("curve arrays must be equal-length 1-d and non-empty")
        if np.any(np.diff(t) >= 0):
            raise ValueError("thresholds must be strictly decreasing")
        if np.any(np.diff(tar) < 0) or np.any(np.diff(far) < 0):
            raise ValueError("tar and far must be non-decreasing along the sweep")
        for name, arr in (("tar", tar), ("far", far)):
            if np.any(arr < 0) or np.any(arr > 1):
                raise ValueError(f"{name} values must lie in [0, 1]")
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "tar", tar)
        object.__setattr__(self, "far", far)

    def points(self) -> list[tuple[float, float, float]]:
        return list(
            zip(self.thresholds.tolist(), self.tar.tolist(), self.far.tolist())
        )


def roc(scores: ScoreSet) -> RocCurve:
    """TAR/FAR at every distinct score value, swept from the highest down."""
    gen, imp = scores.genuine, scores.impostor
    if gen.size == 0 or imp.size == 0:
        raise ValueError("roc needs at least one genuine and one impostor score")
    thresholds = np.unique(np.concatenate([gen, imp]))[::-1]
    # count(scores >= t) / n is exact, so criterion 9 can compare with ==.
    tar = (gen.size - np.searchsorted(np.sort(gen), thresholds, side="left")) / gen.size
    far = (imp.size - np.searchsorted(np.sort(imp), thresholds, side="left")) / imp.size
    return RocCurve(thresholds=thresholds, tar=tar, far=far)


def tar_at_far(curve: RocCurve, target_far: float) -> float:
    """Best TAR among operating points whose FAR stays within target_far."""
    if not 0.0 <= target_far <= 1.0:
        raise ValueError(f"target_far must be in [0, 1], got {target_far}")
    eligible = curve.far <= target_far
    if not np.any(eligible):
        return 0.0
    return float(curve.tar[eligible].max())


def nist_tolerance_check(errors: Sequence[SideErrors], tolerance: float = 64.0) -> float:
    """Fraction of fingerprints whose four side errors all stay within tolerance."""
    if not errors:
        raise ValueError("nist_tolerance_check needs at least one error record")
    return sum(1 for e in errors if e.within(tolerance)) / len(errors)


@dataclass(frozen=True)
class DistributionSummary:
    """Histogram counts/edges plus boxplot order statistics."""

    counts: np.ndarray = field(repr=False)
    bin_edges: np.ndarray = field(repr=False)
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float


def summarize_distribution(values: Sequence[float], bins: int = 10) -> DistributionSummary:
    """Equal-width histogram over [min, max] and quartiles by linear interpolation."""
    if len(values) == 0:
        raise ValueError("summarize_distribution needs at least one value")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    arr = np.asarray(values, dtype=float)
    counts, edges = np.histogram(arr, bins=bins)
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    return DistributionSummary(
        counts=counts,
        bin_edges=edges,
        minimum=float(arr.min()),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        maximum=float(arr.max()),
        mean=float(arr.mean()),
    )
