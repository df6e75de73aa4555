"""augment: `orientkit augment` with the default ten angles over same-size PPM images.

Generator: N_RECORDS bonafide records whose WIDTH x HEIGHT RGB rasters
come from one simulated capture device (random pixels, 1-5 fingers each
inside the frame), plus their annotations JSONL.
"""

from __future__ import annotations

import math

import numpy as np

from common import Checks, read_jsonl, read_ppm, run_cli, write_jsonl, write_ppm

ITEM = "output raster"
N_RECORDS = 2
WIDTH, HEIGHT = 320, 240
ANGLES = (-90.0, -70.0, -50.0, -30.0, -10.0, 10.0, 30.0, 50.0, 70.0, 90.0)
LABELS = {
    "left": ["Left-Thumb", "Left-Index", "Left-Middle", "Left-Ring", "Left-Little"],
    "right": ["Right-Thumb", "Right-Index", "Right-Middle", "Right-Ring", "Right-Little"],
}


def canvas(angle: float) -> tuple[int, int]:
    """Expected (width, height) of the rotated canvas: ceil(W|cos|+H|sin|) x ceil(W|sin|+H|cos|)."""
    c, s = abs(math.cos(math.radians(angle))), abs(math.sin(math.radians(angle)))
    return tuple(
        round(x) if abs(x - round(x)) < 1e-6 else math.ceil(x)
        for x in (WIDTH * c + HEIGHT * s, WIDTH * s + HEIGHT * c)
    )


class Workload:
    def __init__(self, ok, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.ok = ok
        self.items = N_RECORDS * len(ANGLES)
        self.images_dir = workdir / "images"
        self.images_dir.mkdir(parents=True, exist_ok=True)
        self.sources, records = {}, []
        for n in range(N_RECORDS):
            name = f"cap{n:03d}.ppm"
            pixels = rng.integers(0, 256, size=(HEIGHT, WIDTH, 3), dtype=np.uint8)
            write_ppm(pixels, self.images_dir / name)
            self.sources[name[:-4]] = pixels
            hand = "left" if n % 2 == 0 else "right"
            k = int(rng.integers(1, 6))
            fingers = [
                {"label": label, "cx": 40.0 + 60.0 * j + float(rng.uniform(-5, 5)),
                 "cy": float(rng.uniform(80, 160)), "w": float(rng.uniform(25, 40)),
                 "h": float(rng.uniform(50, 80)), "theta_deg": float(rng.uniform(-45, 45))}
                for j, label in enumerate(rng.permutation(LABELS[hand])[:k].tolist())
            ]
            records.append({"image": name, "width": WIDTH, "height": HEIGHT, "hand": hand,
                            "provenance": "bonafide", "source_id": name[:-4],
                            "augment_angle_deg": 0.0, "fingers": fingers})
        self.records = {r["source_id"]: r for r in records}
        self.annotations = workdir / "annotations.jsonl"
        write_jsonl(records, self.annotations)

    def call(self, out_dir, jobs, tracer=None):
        rc, _ = run_cli(self.ok.cli, ["augment", "--annotations", str(self.annotations),
                                      "--images", str(self.images_dir), "--out", str(out_dir)])
        return rc, out_dir

    def check(self, out, checks: Checks) -> None:
        rc, out_dir = out
        checks.expect(rc == 0, f"augment: exit code {rc}")
        if rc != 0:
            return
        augmented = [r for r in read_jsonl(out_dir / "annotations.jsonl")
                     if r["provenance"] == "augmented"]
        checks.expect(len(augmented) == N_RECORDS * len(ANGLES),
                      f"augment: {len(augmented)} augmented records")
        for rec in augmented:
            src = self.records[rec["source_id"]]
            angle = rec["augment_angle_deg"]
            path = out_dir / rec["image"]
            pixels = read_ppm(path) if path.is_file() else None
            want_w, want_h = canvas(angle)
            good = (
                pixels is not None and pixels.shape == (want_h, want_w, 3)
                and (rec["width"], rec["height"]) == (want_w, want_h)
                and [(f["label"], f["w"], f["h"]) for f in rec["fingers"]]
                == [(f["label"], f["w"], f["h"]) for f in src["fingers"]]
            )
            if good and angle in (90.0, -90.0):
                good = np.array_equal(pixels, np.rot90(self.sources[rec["source_id"]],
                                                       k=1 if angle > 0 else -1))
            checks.expect(good, f"augment: {rec['image']} differs from construction")

    def trace_targets(self, inner: bool):
        cli, augment = self.ok.cli, self.ok.augment
        return [
            (cli, "parse_annotations", "dataio.parse_annotations", _count_records),
            (cli, "serialize_annotations", "dataio.serialize_annotations", None),
            (cli, "augment_dataset", "augment.augment_dataset", None),
            (augment, "read_raster", "augment.read_raster", None),
            (augment, "rotate_image", "augment.rotate_image", _count_pixels),
            (augment, "write_raster", "augment.write_raster", None),
            (augment, "rotate_annotation", "augment.rotate_annotation", None),
        ]

    def layer_metrics(self, inner, outer, reps: int, last) -> dict:
        metrics = {
            f"{name}.s": (inner.self_s(name) / reps, "s")
            for name in ("dataio.parse_annotations", "dataio.serialize_annotations",
                         "augment.augment_dataset", "augment.read_raster", "augment.rotate_image",
                         "augment.write_raster", "augment.rotate_annotation")
        }
        _, out_dir = last
        written = sum(path.stat().st_size for path in out_dir.glob("*.ppm"))
        metrics.update({
            "dataio.records": (inner.counts["dataio.records"] / reps, "count"),
            "augment.rotate_image.mpix": (inner.counts["augment.pixels"] / reps / 1e6, "Mpix"),
            "augment.write_raster.mb": (written / 1e6, "MB"),
        })
        return metrics


def _count_records(tracer, records):
    tracer.counts["dataio.records"] += len(records)


def _count_pixels(tracer, img):
    tracer.counts["augment.pixels"] += img.width * img.height
