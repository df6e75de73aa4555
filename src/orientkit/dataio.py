"""Annotation records, the finger-label taxonomy, dataset splits and folds.

Annotation files are UTF-8 JSON Lines: one record object per line with
fields `image`, `width`, `height`, `hand`, `provenance`, `source_id`,
`augment_angle_deg` and `fingers`, the latter a list of
`{label, cx, cy, w, h, theta_deg}` boxes. Coordinates are pixels with the
origin at the top-left corner and y pointing down; theta_deg is
counter-clockwise and serialized in (-90, 90]. Angles are degrees on disk
and radians in memory.
"""

from __future__ import annotations

import enum
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .geometry import OrientedBox


class AnnotationParseError(ValueError):
    """Raised for syntactically malformed annotation documents."""


class AnnotationValidationError(ValueError):
    """Raised when a record violates the annotation schema invariants."""


class FingerLabel(enum.Enum):
    LEFT_INDEX = "Left-Index"
    LEFT_MIDDLE = "Left-Middle"
    LEFT_RING = "Left-Ring"
    LEFT_LITTLE = "Left-Little"
    LEFT_THUMB = "Left-Thumb"
    RIGHT_INDEX = "Right-Index"
    RIGHT_MIDDLE = "Right-Middle"
    RIGHT_RING = "Right-Ring"
    RIGHT_LITTLE = "Right-Little"
    RIGHT_THUMB = "Right-Thumb"

    @property
    def hand(self) -> str:
        return "left" if self.value.startswith("Left-") else "right"

    @classmethod
    def from_name(cls, name: str) -> "FingerLabel":
        try:
            return cls(name)
        except ValueError:
            raise AnnotationValidationError(f"unknown finger label {name!r}") from None


@dataclass(frozen=True)
class FingerAnnotation:
    label: FingerLabel
    box: OrientedBox


@dataclass(frozen=True)
class AnnotatedFingerphoto:
    """One fingerphoto with its per-finger oriented boxes."""

    image_path: str
    image_width: int
    image_height: int
    hand: str  # "left" | "right"
    fingers: tuple[FingerAnnotation, ...]
    provenance: str = "bonafide"  # "bonafide" | "augmented"
    source_id: str = ""
    augment_angle: float = 0.0  # degrees, 0 for bonafide

    def __post_init__(self):
        if self.hand not in ("left", "right"):
            raise AnnotationValidationError(
                f"record {self.image_path!r}: hand must be left or right, got {self.hand!r}"
            )
        if self.provenance not in ("bonafide", "augmented"):
            raise AnnotationValidationError(
                f"record {self.image_path!r}: bad provenance {self.provenance!r}"
            )
        if self.image_width < 1 or self.image_height < 1:
            raise AnnotationValidationError(
                f"record {self.image_path!r}: nonpositive image dimensions"
            )
        if not 1 <= len(self.fingers) <= 5:
            raise AnnotationValidationError(
                f"record {self.image_path!r}: needs 1..5 fingers, got {len(self.fingers)}"
            )
        labels = [f.label for f in self.fingers]
        if len(set(labels)) != len(labels):
            raise AnnotationValidationError(
                f"record {self.image_path!r}: duplicate finger labels"
            )
        for label in labels:
            if label.hand != self.hand:
                raise AnnotationValidationError(
                    f"record {self.image_path!r}: label {label.value} does not "
                    f"match hand {self.hand!r}"
                )

    @property
    def record_id(self) -> str:
        return self.image_path


def _exact_degrees(theta: float) -> float:
    """Degrees value whose radians() reproduces theta bit-exactly when possible.

    degrees/radians are not exact inverses in floating point; nudging by
    one ulp recovers exactness for any angle that originally came in
    through radians(), keeping parse(serialize(x)) the identity.
    """
    d = math.degrees(theta)
    for candidate in (d, math.nextafter(d, math.inf), math.nextafter(d, -math.inf)):
        if math.radians(candidate) == theta:
            return candidate
    return d


def _finger_to_dict(f: FingerAnnotation) -> dict:
    return {
        "label": f.label.value,
        "cx": f.box.cx,
        "cy": f.box.cy,
        "w": f.box.w,
        "h": f.box.h,
        "theta_deg": _exact_degrees(f.box.theta),
    }


def record_to_dict(record: AnnotatedFingerphoto) -> dict:
    return {
        "image": record.image_path,
        "width": record.image_width,
        "height": record.image_height,
        "hand": record.hand,
        "provenance": record.provenance,
        "source_id": record.source_id,
        "augment_angle_deg": record.augment_angle,
        "fingers": [_finger_to_dict(f) for f in record.fingers],
    }


def record_from_dict(obj: dict, locus: str = "record") -> AnnotatedFingerphoto:
    try:
        fingers = tuple(
            FingerAnnotation(
                label=FingerLabel.from_name(f["label"]),
                box=OrientedBox(
                    cx=float(f["cx"]),
                    cy=float(f["cy"]),
                    w=float(f["w"]),
                    h=float(f["h"]),
                    theta=math.radians(float(f["theta_deg"])),
                ),
            )
            for f in obj["fingers"]
        )
        return AnnotatedFingerphoto(
            image_path=str(obj["image"]),
            image_width=int(obj["width"]),
            image_height=int(obj["height"]),
            hand=str(obj["hand"]),
            fingers=fingers,
            provenance=str(obj["provenance"]),
            source_id=str(obj["source_id"]),
            augment_angle=float(obj["augment_angle_deg"]),
        )
    except KeyError as exc:
        raise AnnotationValidationError(f"{locus}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise AnnotationValidationError(f"{locus}: {exc}") from exc


def parse_annotations(path: str | Path) -> list[AnnotatedFingerphoto]:
    """Read and validate a JSON Lines annotation file."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise AnnotationParseError(
                    f"{path}: line {lineno}: {exc.msg}"
                ) from exc
            if not isinstance(obj, dict):
                raise AnnotationParseError(
                    f"{path}: line {lineno}: record must be an object"
                )
            records.append(record_from_dict(obj, locus=f"{path}: line {lineno}"))
    return records


def serialize_annotations(
    records: Iterable[AnnotatedFingerphoto], path: str | Path
) -> None:
    """Write records as one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record)) + "\n")


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint train/validation/test record-id lists covering the dataset."""

    train: tuple[str, ...]
    validation: tuple[str, ...]
    test: tuple[str, ...]


def _source_groups(
    records: Sequence[AnnotatedFingerphoto],
) -> dict[str, list[str]]:
    """Record ids grouped by source_id, insertion-ordered."""
    groups: dict[str, list[str]] = {}
    for record in records:
        groups.setdefault(record.source_id, []).append(record.record_id)
    return groups


def _partition_counts(n_groups: int, ratios: Sequence[float]) -> list[int]:
    counts = [math.floor(r * n_groups) for r in ratios]
    remainders = [r * n_groups - c for r, c in zip(ratios, counts)]
    leftover = n_groups - sum(counts)
    # Hand leftovers to the largest fractional remainders, earlier ties first.
    for i in sorted(range(len(ratios)), key=lambda i: (-remainders[i], i))[:leftover]:
        counts[i] += 1
    return counts


def split_dataset(
    records: Sequence[AnnotatedFingerphoto],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> DatasetSplit:
    """Seeded train/validation/test split over source groups.

    Records sharing a source_id always land in the same partition, so an
    augmented copy can never leak across the split from its bonafide
    original. The same seed always reproduces the same split.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"need three positive ratios, got {ratios!r}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got sum {sum(ratios)!r}")
    groups = _source_groups(records)
    keys = sorted(groups)
    if len(keys) < 3:
        raise ValueError(
            f"need at least 3 source groups to split, got {len(keys)}"
        )
    random.Random(seed).shuffle(keys)
    n_train, n_val, _ = _partition_counts(len(keys), ratios)
    buckets = (
        keys[:n_train],
        keys[n_train : n_train + n_val],
        keys[n_train + n_val :],
    )
    train, val, test = (
        tuple(rid for key in bucket for rid in groups[key]) for bucket in buckets
    )
    return DatasetSplit(train=train, validation=val, test=test)


def kfold(
    records: Sequence[AnnotatedFingerphoto], k: int = 10, seed: int = 0
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Seeded k-fold pairs (train_ids, test_ids) over source groups.

    Groups are shuffled once and dealt into k folds whose sizes differ by
    at most one; fold i tests on fold i and trains on the rest. Grouping
    by source_id keeps every augmented copy on the same side as its
    original.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    groups = _source_groups(records)
    keys = sorted(groups)
    if len(keys) < k:
        raise ValueError(f"need at least {k} source groups, got {len(keys)}")
    random.Random(seed).shuffle(keys)
    base, extra = divmod(len(keys), k)
    folds: list[list[str]] = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(keys[start : start + size])
        start += size
    pairs = []
    for i in range(k):
        test_ids = tuple(rid for key in folds[i] for rid in groups[key])
        train_ids = tuple(
            rid
            for j in range(k)
            if j != i
            for key in folds[j]
            for rid in groups[key]
        )
        pairs.append((train_ids, test_ids))
    return pairs
