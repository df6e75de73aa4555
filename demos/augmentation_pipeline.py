"""End to end: synthesize a tiny dataset, augment it, split it, evaluate it.

Writes everything under a temporary directory and prints what the
equivalent CLI invocations would be.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from orientkit import (
    AnnotatedFingerphoto,
    FingerAnnotation,
    FingerLabel,
    OrientedBox,
    RasterImage,
    augment_dataset,
    evaluate_annotations,
    parse_annotations,
    serialize_annotations,
    split_dataset,
    write_raster,
)

work = Path(tempfile.mkdtemp(prefix="orientkit_demo_"))
print(f"working under {work}")

# Ten synthetic "fingerphotos": a light blob on a dark background, with
# three labeled fingertip boxes each.
rng = np.random.default_rng(42)
labels = [FingerLabel.LEFT_INDEX, FingerLabel.LEFT_MIDDLE, FingerLabel.LEFT_RING]
records = []
for i in range(10):
    pixels = rng.integers(20, 60, size=(48, 64), dtype=np.int64)
    pixels[10:38, 8:56] += 120
    name = f"photo{i:02d}.pgm"
    write_raster(RasterImage(pixels.astype(np.uint8)), work / name)
    fingers = tuple(
        FingerAnnotation(
            labels[j],
            OrientedBox(14 + 18 * j, 24, 10, 20, math.radians(rng.uniform(-20, 20))),
        )
        for j in range(3)
    )
    records.append(
        AnnotatedFingerphoto(name, 64, 48, "left", fingers, "bonafide", f"photo{i:02d}")
    )
serialize_annotations(records, work / "annotations.jsonl")

# Rotation augmentation: every record through every angle, with the image
# canvas expanded so nothing is cropped and the boxes transformed to match.
out_dir = work / "augmented"
augmented = augment_dataset(records, work, out_dir, angles=(-60.0, -20.0, 20.0, 60.0))
serialize_annotations(records + augmented, out_dir / "annotations.jsonl")
print(f"bonafide={len(records)} augmented={len(augmented)} "
      f"total={len(records) + len(augmented)}")
print("CLI: orientkit augment --annotations annotations.jsonl --images . "
      "--out augmented --angles=-60,-20,20,60")

# Leakage-free split: every augmented copy follows its bonafide source.
combined = parse_annotations(out_dir / "annotations.jsonl")
split = split_dataset(combined, ratios=(0.8, 0.1, 0.1), seed=7)
print(f"\nsplit sizes: train={len(split.train)} "
      f"validation={len(split.validation)} test={len(split.test)}")
print("CLI: orientkit split --annotations augmented/annotations.jsonl --seed 7 "
      "--out splits")

# Pretend a segmenter predicted every fingertip 3 px too wide on each side,
# then score those predictions against the ground truth.
def widen(record):
    fingers = tuple(
        FingerAnnotation(
            f.label,
            OrientedBox(f.box.cx, f.box.cy, f.box.w + 6, f.box.h + 6, f.box.theta),
        )
        for f in record.fingers
    )
    return AnnotatedFingerphoto(
        record.image_path, record.image_width, record.image_height, record.hand,
        fingers, record.provenance, record.source_id, record.augment_angle,
    )

report = evaluate_annotations(combined, [widen(r) for r in combined])
print(f"\nevaluation over {report.n_images} images, {report.n_gt} fingerprints:")
for side, value in report.mae_report.mae.items():
    print(f"  MAE {side:6s}: {value:.3f} px")
print(f"  EAP: {report.eap_mean:.3f} deg, label accuracy {report.label_accuracy:.3f}, "
      f"NIST pass rate {report.nist_pass_rate:.3f}")
print("CLI: orientkit evaluate --gt gt.jsonl --pred pred.jsonl --out report --plots")
