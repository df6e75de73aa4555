"""Helpers shared by the workloads: check tallies, in-process CLI calls,
PPM I/O and an oracle rotated IoU written independently of orientkit."""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np


class Checks:
    """Tally of checked operations and of those whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(what)


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """`orientkit.cli.main(argv)` in-process, returning (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def nonempty(path: Path) -> bool:
    return path.is_file() and path.stat().st_size > 0


def write_jsonl(records: list[dict], path: Path) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def write_ppm(pixels: np.ndarray, path: Path) -> None:
    height, width = pixels.shape[:2]
    path.write_bytes(b"P6\n%d %d\n255\n" % (width, height) + pixels.tobytes())


def read_ppm(path: Path) -> np.ndarray:
    """Binary PPM with a plain `P6\\nW H\\n255\\n` header, as (H, W, 3) uint8."""
    data = path.read_bytes()
    magic, dims, maxval, rest = data.split(b"\n", 3)
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"{path}: unexpected header")
    width, height = (int(v) for v in dims.split())
    return np.frombuffer(rest, dtype=np.uint8, count=width * height * 3).reshape(height, width, 3)


def fold_degrees(delta: float) -> float:
    """|delta| reduced modulo 180 into [0, 90]: the angle between two box axes."""
    a = abs(delta) % 180.0
    return min(a, 180.0 - a)


# Oracle geometry: boxes are (cx, cy, w, h, theta_rad) tuples, with the
# corner convention of the README (y down, theta counter-clockwise on screen).

def box_corners(box) -> list[tuple[float, float]]:
    cx, cy, w, h, t = box
    c, s = math.cos(t), math.sin(t)
    return [
        (cx + dx * c + dy * s, cy - dx * s + dy * c)
        for dx, dy in ((-w / 2, -h / 2), (w / 2, -h / 2), (w / 2, h / 2), (-w / 2, h / 2))
    ]


def _area(poly) -> float:
    return 0.5 * sum(
        x0 * y1 - x1 * y0
        for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1])
    )


def oracle_iou(a, b) -> float:
    """Rotated IoU by half-plane clipping, with a circumscribed-circle reject."""
    ra = math.hypot(a[2], a[3]) / 2
    rb = math.hypot(b[2], b[3]) / 2
    if math.hypot(a[0] - b[0], a[1] - b[1]) >= ra + rb:
        return 0.0
    poly = box_corners(a)
    clip = box_corners(b)
    for (px, py), (qx, qy) in zip(clip, clip[1:] + clip[:1]):
        if len(poly) < 3:
            return 0.0
        ex, ey = qx - px, qy - py
        out = []
        prev = poly[-1]
        prev_side = ex * (prev[1] - py) - ey * (prev[0] - px)
        for cur in poly:
            side = ex * (cur[1] - py) - ey * (cur[0] - px)
            if prev_side * side < 0:
                f = prev_side / (prev_side - side)
                out.append((prev[0] + f * (cur[0] - prev[0]), prev[1] + f * (cur[1] - prev[1])))
            if side >= 0:
                out.append(cur)
            prev, prev_side = cur, side
        poly = out
    inter = _area(poly) if len(poly) >= 3 else 0.0
    inter = max(inter, 0.0)
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)
