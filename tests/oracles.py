"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own geometry paths:
inside-box tests carry their own trigonometry, axis-aligned IoU is pure
interval arithmetic, the reference rotated IoU clips one pair at a time
in plain Python, and the ROC oracle counts accepts at every distinct
threshold by brute force.
"""

from __future__ import annotations

import math

import numpy as np


def axis_aligned_iou(a, b) -> float:
    """Closed-form IoU for theta=0 boxes via interval overlap arithmetic."""
    ax0, ax1 = a.cx - a.w / 2, a.cx + a.w / 2
    ay0, ay1 = a.cy - a.h / 2, a.cy + a.h / 2
    bx0, bx1 = b.cx - b.w / 2, b.cx + b.w / 2
    by0, by1 = b.cy - b.h / 2, b.cy + b.h / 2
    iw = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    ih = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = iw * ih
    return inter / (a.w * a.h + b.w * b.h - inter)


def points_in_box(xs: np.ndarray, ys: np.ndarray, box) -> np.ndarray:
    """Vectorized membership test with its own inverse-rotation math."""
    c, s = math.cos(box.theta), math.sin(box.theta)
    dx = xs - box.cx
    dy = ys - box.cy
    lx = dx * c - dy * s
    ly = dx * s + dy * c
    return (np.abs(lx) <= box.w / 2) & (np.abs(ly) <= box.h / 2)


def sample_in_box(box, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform samples inside an oriented box, mapped out by forward rotation."""
    lx = rng.uniform(-box.w / 2, box.w / 2, n)
    ly = rng.uniform(-box.h / 2, box.h / 2, n)
    c, s = math.cos(box.theta), math.sin(box.theta)
    return box.cx + lx * c + ly * s, box.cy - lx * s + ly * c


def mc_iou(a, b, n: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo IoU estimate and its standard error.

    Samples uniformly inside box `a` (area known exactly), estimates the
    intersection area as p_hat * area(a), and propagates the binomial
    standard error through IoU = I / (A + B - I). The box-a-local to
    box-b-local map is composed analytically so each sample costs one
    2x2 affine application; float32 sampling noise (~1e-7 of a box
    extent) is far below the Monte Carlo standard error.
    """
    ca, sa = math.cos(a.theta), math.sin(a.theta)
    cb, sb = math.cos(b.theta), math.sin(b.theta)
    # q = R(-theta_b) @ (center_a - center_b) + R(theta_a - theta_b) @ l
    dx, dy = a.cx - b.cx, a.cy - b.cy
    q0x = dx * cb - dy * sb
    q0y = dx * sb + dy * cb
    cab = math.cos(a.theta - b.theta)
    sab = math.sin(a.theta - b.theta)
    lx = (rng.random(n, dtype=np.float32) - np.float32(0.5)) * np.float32(a.w)
    ly = (rng.random(n, dtype=np.float32) - np.float32(0.5)) * np.float32(a.h)
    qx = np.float32(q0x) + lx * np.float32(cab) + ly * np.float32(sab)
    qy = np.float32(q0y) - lx * np.float32(sab) + ly * np.float32(cab)
    inside = (np.abs(qx) <= np.float32(b.w / 2)) & (np.abs(qy) <= np.float32(b.h / 2))
    p_hat = float(inside.mean())
    area_a = a.w * a.h
    area_b = b.w * b.h
    inter = p_hat * area_a
    union = area_a + area_b - inter
    se_inter = area_a * math.sqrt(p_hat * (1.0 - p_hat) / n)
    se_iou = se_inter * (area_a + area_b) / (union * union)
    return inter / union, se_iou


def mc_intersection_area(a, b, n: int, rng: np.random.Generator) -> float:
    """Intersection area by sampling the union's axis-aligned bounding box."""
    corners = np.vstack([_corners(a), _corners(b)])
    x0, y0 = corners.min(axis=0)
    x1, y1 = corners.max(axis=0)
    xs = rng.uniform(x0, x1, n)
    ys = rng.uniform(y0, y1, n)
    both = points_in_box(xs, ys, a) & points_in_box(xs, ys, b)
    return float(both.mean()) * (x1 - x0) * (y1 - y0)


def _corners(box) -> np.ndarray:
    c, s = math.cos(box.theta), math.sin(box.theta)
    out = []
    for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
        lx, ly = sx * box.w / 2, sy * box.h / 2
        out.append((box.cx + lx * c + ly * s, box.cy - lx * s + ly * c))
    return np.array(out)


def clip_polygon(poly: list, clip: list) -> list:
    """Convex `poly` clipped to convex `clip`, both CCW lists of (x, y).

    Sutherland-Hodgman, one half-plane of `clip` at a time; a polygon
    reduced below 3 vertices comes back empty.
    """
    n = len(clip)
    for i in range(n):
        if len(poly) < 3:
            return []
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
    return poly if len(poly) >= 3 else []


def clip_area(poly: list, clip: list) -> float:
    """Shoelace area (by np.sum) of `poly` clipped to `clip`; slivers <= 1e-12 are 0."""
    clipped = clip_polygon(poly, clip)
    if not clipped:
        return 0.0
    v = np.asarray(clipped)
    x, y = v[:, 0], v[:, 1]
    area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    return area if area > 1e-12 else 0.0


def corner_list(box) -> list[tuple[float, float]]:
    """The four corners of `box` as float pairs, counter-clockwise."""
    return [tuple(p) for p in _corners(box).tolist()]


def clipper_iou(a, b) -> float:
    """Reference rotated IoU: a's corners clipped to b's, one pair in plain Python."""
    inter = clip_area(corner_list(a), corner_list(b))
    return inter / (a.w * a.h + b.w * b.h - inter)


def brute_force_roc(
    genuine: list[float], impostor: list[float]
) -> list[tuple[float, float, float]]:
    """(threshold, tar, far) at every distinct score, thresholds descending."""
    thresholds = sorted(set(genuine) | set(impostor), reverse=True)
    out = []
    for t in thresholds:
        tar = sum(1 for s in genuine if s >= t) / len(genuine)
        far = sum(1 for s in impostor if s >= t) / len(impostor)
        out.append((t, tar, far))
    return out


def brute_force_axis_nms(boxes, scores, threshold: float) -> list[int]:
    """Greedy suppression over axis-aligned boxes with closed-form IoU."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    for i in order:
        if all(axis_aligned_iou(boxes[i], boxes[k]) <= threshold for k in kept):
            kept.append(i)
    return kept
