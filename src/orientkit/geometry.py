"""Exact geometry of oriented rectangles: polygons, rotated IoU, rotated NMS.

Coordinates are image pixels (origin top-left, y down). Box angles are
radians, counter-clockwise as seen on screen, and are kept normalized to
the half-open interval (-pi/2, pi/2]: adding a multiple of pi to the angle
of a rectangle leaves its point set unchanged, so every input angle has a
unique representative there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Slivers below this area are floating-point noise from clipping, not overlap.
_AREA_EPS = 1e-12
_COLLINEAR_TOL = 1e-9


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
        return np.array(_corner_list(self))


def _corner_list(box: OrientedBox) -> list[tuple[float, float]]:
    """The four corners of `box` as float pairs, counter-clockwise."""
    c, s = math.cos(box.theta), math.sin(box.theta)
    hw, hh = box.w * 0.5, box.h * 0.5
    return [(box.cx + dx * c + dy * s, box.cy - dx * s + dy * c)
            for dx, dy in ((-hw, -hh), (hw, -hh), (hw, hh), (-hw, hh))]


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon with vertices in counter-clockwise order (positive area)."""

    vertices: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs an (n>=3, 2) vertex array")
        if not np.all(np.isfinite(v)):
            raise ValueError("polygon vertices must be finite")
        if _signed_area(v) <= 0:
            raise ValueError("vertices must wind counter-clockwise (positive area)")
        edges = np.roll(v, -1, axis=0) - v
        nxt = np.roll(edges, -1, axis=0)
        cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        if np.any(cross < -_COLLINEAR_TOL):
            raise ValueError("polygon is not convex")
        object.__setattr__(self, "vertices", v)

    @property
    def area(self) -> float:
        return _signed_area(self.vertices)


def _signed_area(vertices: np.ndarray) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def to_polygon(box: OrientedBox) -> ConvexPolygon:
    """Four corners of the box as a counter-clockwise convex polygon."""
    return ConvexPolygon(box.corners())


def intersect(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Area of the intersection of two convex polygons; 0.0 when disjoint."""
    return _clip_area([tuple(p) for p in a.vertices], [tuple(p) for p in b.vertices])


def _clip_area(poly: list, clip: list) -> float:
    """Area of convex `poly` inside convex `clip`, both CCW lists of (x, y).

    Clips `poly` against each half-plane of `clip` (Sutherland-Hodgman)
    and measures the remainder by the shoelace formula.
    """
    n = len(clip)
    for i in range(n):
        if len(poly) < 3:
            return 0.0
        px, py = clip[i]
        qx, qy = clip[(i + 1) % n]
        # Inside test for the CCW edge p->q: cross(q-p, r-p) >= 0.
        ex, ey = qx - px, qy - py
        clipped = []
        prev = poly[-1]
        prev_side = ex * (prev[1] - py) - ey * (prev[0] - px)
        for cur in poly:
            cur_side = ex * (cur[1] - py) - ey * (cur[0] - px)
            if prev_side * cur_side < 0:
                t = prev_side / (prev_side - cur_side)
                clipped.append(
                    (prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1]))
                )
            if cur_side >= 0:
                clipped.append(cur)
            prev, prev_side = cur, cur_side
        poly = clipped
    if len(poly) < 3:
        return 0.0
    # numpy's pairwise summation, not a Python sum: keeps areas bit-stable.
    area = _signed_area(np.asarray(poly))
    return area if area > _AREA_EPS else 0.0


def rotated_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection over union of two oriented boxes, exact polygon clipping."""
    inter = _clip_area(_corner_list(a), _corner_list(b))
    return inter / (a.area + b.area - inter)


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
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    for i in order:
        if all(rotated_iou(boxes[i], boxes[k]) <= iou_threshold for k in kept):
            kept.append(i)
    return kept
