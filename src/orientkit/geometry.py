"""Exact geometry of oriented rectangles: box arrays, rotated IoU, rotated NMS.

Coordinates are image pixels (origin top-left, y down). Box angles are
radians, counter-clockwise as seen on screen, and are kept normalized to
the half-open interval (-pi/2, pi/2]: adding a multiple of pi to the angle
of a rectangle leaves its point set unchanged, so every input angle has a
unique representative there. Every IoU in the package comes from one
clipper, `rotated_ious`, on (N, 5) box arrays of (cx, cy, w, h, theta) rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Slivers below this area are floating-point noise from clipping, not overlap.
_AREA_EPS = 1e-12
# Box pairs per pass through the clipper: bounds its temporaries.
_BLOCK = 256


def normalize_angle(theta: float) -> float:
    """Reduce an angle modulo pi into (-pi/2, pi/2]."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    t = math.fmod(theta, math.pi)
    if t <= -math.pi / 2:
        t += math.pi
    elif t > math.pi / 2:
        t -= math.pi
    return t


@dataclass(frozen=True)
class OrientedBox:
    """Rotated rectangle: center (cx, cy), extents (w, h), angle theta.

    w is the extent along the box's own x-axis, h along its y-axis.
    theta rotates the w-axis counter-clockwise (screen sense, y down)
    from the image x-axis and is normalized at construction.
    """

    cx: float
    cy: float
    w: float
    h: float
    theta: float = 0.0

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h", "theta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"OrientedBox.{name} must be finite, got {v!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box extents must be positive, got w={self.w}, h={self.h}")
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    @property
    def area(self) -> float:
        return self.w * self.h

    def corners(self) -> np.ndarray:
        """Corner coordinates, shape (4, 2), counter-clockwise."""
        return _corners(box_array([self]))[0]


def box_array(boxes) -> np.ndarray:
    """(N, 5) float64 array of (cx, cy, w, h, theta) rows, one per OrientedBox."""
    rows = [(b.cx, b.cy, b.w, b.h, b.theta) for b in boxes]
    return np.array(rows, dtype=float).reshape(-1, 5)


def _corners(boxes: np.ndarray) -> np.ndarray:
    """(N, 4, 2) corners of each box row, counter-clockwise."""
    cx, cy, w, h, theta = (boxes[:, i:i + 1] for i in range(5))
    c, s = np.cos(theta), np.sin(theta)
    dx, dy = np.hstack([-w, w, w, -w]) * 0.5, np.hstack([-h, -h, h, h]) * 0.5
    return np.stack([cx + dx * c + dy * s, cy - dx * s + dy * c], axis=2)


def _clip_areas(poly: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Area of polygon poly[k] inside convex polygon clip[k], both (P, 4, 2) CCW.

    Sutherland-Hodgman, one lane per pair, with the float operations of a
    scalar clipper in its order. Vertices past a lane's count are padding;
    a lane left with fewer than 3 vertices has no area.
    """
    lanes = np.arange(len(poly))[:, None]
    count = np.full(len(poly), 4)
    for i in range(4):
        k = np.arange(poly.shape[1])
        valid = k < count[:, None]
        prev = np.where(k == 0, count[:, None] - 1, k - 1)
        p = clip[:, i, None]
        # Inside test for the CCW edge p->q: cross(q-p, r-p) >= 0.
        e, d = clip[:, (i + 1) % 4, None] - p, poly - p
        side = e[..., 0] * d[..., 1] - e[..., 1] * d[..., 0]
        prev_pts, prev_side = poly[lanes, prev], side[lanes, prev]
        cross = valid & (prev_side * side < 0)
        t = np.divide(prev_side, prev_side - side, out=np.zeros_like(side), where=cross)
        # Per input vertex: slot 2k holds the crossing, slot 2k + 1 the vertex.
        emit = np.stack([cross, valid & (side >= 0)], axis=2).reshape(len(poly), -1)
        cand = np.stack([prev_pts + t[..., None] * (poly - prev_pts), poly], axis=2)
        count = emit.sum(axis=1)
        keep = np.argsort(~emit, axis=1, kind="stable")[:, :count.max(), None]
        poly = np.take_along_axis(cand.reshape(len(poly), -1, 2), keep, axis=1)
        count[count < 3] = 0
    k = np.arange(poly.shape[1])
    nxt = np.where(k + 1 >= count[:, None], 0, k + 1)
    x, y = poly[..., 0], poly[..., 1]
    terms = x * y[lanes, nxt] - x[lanes, nxt] * y
    # np.sum over exactly each lane's own terms: numpy adds 8 or more as a
    # pairwise tree, so a running sum would differ in the last bit.
    area = np.zeros(len(poly))
    for n in set(count.tolist()) - {0}:
        area[count == n] = 0.5 * terms[count == n, :n].sum(axis=1)
    return np.where(area > _AREA_EPS, area, 0.0)


def rotated_ious(a: np.ndarray, b: np.ndarray, ia, ib) -> np.ndarray:
    """IoU of box a[ia[k]] with box b[ib[k]] for every k, exact polygon clipping.

    `a` and `b` are box arrays from `box_array`; a[ia[k]] is the polygon
    clipped against b[ib[k]]. Pairs go through the clipper _BLOCK at a time,
    which bounds its temporaries whatever the number of pairs.
    """
    a_corners, b_corners = _corners(a), _corners(b)
    a_area, b_area = a[:, 2] * a[:, 3], b[:, 2] * b[:, 3]
    out = np.empty(len(ia))
    for start in range(0, len(ia), _BLOCK):
        i, j = ia[start:start + _BLOCK], ib[start:start + _BLOCK]
        inter = _clip_areas(a_corners[i], b_corners[j])
        out[start:start + _BLOCK] = inter / (a_area[i] + b_area[j] - inter)
    return out


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, M) IoU of every box row of `a` (clipped) against every row of `b`."""
    ia, ib = np.indices((len(a), len(b))).reshape(2, -1)
    return rotated_ious(a, b, ia, ib).reshape(len(a), len(b))


def rotated_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection over union of two oriented boxes, exact polygon clipping."""
    return float(rotated_ious(box_array([a]), box_array([b]), [0], [0])[0])


def rotated_nms(
    boxes: list[OrientedBox], scores: list[float], iou_threshold: float
) -> list[int]:
    """Greedy non-maximum suppression over oriented boxes.

    Boxes are visited in descending score order (ties broken toward the
    lower original index); a box is suppressed when its IoU with an
    already kept box exceeds `iou_threshold`. Returns kept indices in
    descending score order.
    """
    if len(boxes) != len(scores):
        raise ValueError(f"got {len(boxes)} boxes but {len(scores)} scores")
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    arr, scores = box_array(boxes), np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    live = np.argsort(-scores, kind="stable")  # a stable sort keeps ties in index order
    kept: list[int] = []
    while live.size:
        k, live = int(live[0]), live[1:]
        kept.append(k)
        live = live[rotated_ious(arr, arr, live, np.full(live.size, k)) <= iou_threshold]
    return kept
