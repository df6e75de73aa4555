"""Oriented anchor grids and training-label assignment.

Anchors are prior boxes laid out on a feature-map grid, one set of
orientation x scale x aspect-ratio combinations per cell. Labeling
assigns positive/negative/neutral against ground-truth boxes by rotated
IoU with the usual dual-threshold rule plus an argmax fallback so every
overlapped ground-truth box owns at least one positive anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import OrientedBox, box_array, iou_matrix, rotated_nms

DEFAULT_ORIENTATIONS = (
    -math.pi / 4,
    -math.pi / 6,
    -math.pi / 12,
    0.0,
    math.pi / 12,
    math.pi / 6,
    math.pi / 4,
)
DEFAULT_ASPECT_RATIOS = (1.0, 0.5, 2.0)  # h:w of 1:1, 1:2, 2:1
DEFAULT_SCALES = (128.0, 256.0, 512.0)


@dataclass(frozen=True)
class AnchorConfig:
    """Anchor grid parameters: orientations, h:w ratios, scales, IoU thresholds."""

    orientations: tuple[float, ...] = DEFAULT_ORIENTATIONS
    aspect_ratios: tuple[float, ...] = DEFAULT_ASPECT_RATIOS
    scales: tuple[float, ...] = DEFAULT_SCALES
    stride: float = 16.0
    positive_iou: float = 0.7
    negative_iou: float = 0.3

    def __post_init__(self):
        if not self.orientations or not self.aspect_ratios or not self.scales:
            raise ValueError("orientations, aspect_ratios and scales must be non-empty")
        for o in self.orientations:
            if not -math.pi / 2 < o <= math.pi / 2:
                raise ValueError(f"orientation {o} outside (-pi/2, pi/2]")
        if any(r <= 0 for r in self.aspect_ratios):
            raise ValueError("aspect ratios must be positive")
        if any(s <= 0 for s in self.scales):
            raise ValueError("scales must be positive")
        if self.stride <= 0:
            raise ValueError("stride must be positive")
        if not 0.0 <= self.negative_iou < self.positive_iou <= 1.0:
            raise ValueError(
                f"need 0 <= negative_iou < positive_iou <= 1, got "
                f"{self.negative_iou}, {self.positive_iou}"
            )

    @property
    def anchors_per_cell(self) -> int:
        return len(self.orientations) * len(self.scales) * len(self.aspect_ratios)


@dataclass(frozen=True)
class Anchor:
    """One generated anchor: its box, owning grid cell, and config combination."""

    box: OrientedBox
    cell: tuple[int, int]
    config_index: int


@dataclass(frozen=True)
class AnchorLabel:
    kind: str  # "positive" | "negative" | "neutral"
    matched_gt: int | None
    max_iou: float

    def __post_init__(self):
        if self.kind not in ("positive", "negative", "neutral"):
            raise ValueError(f"unknown label kind {self.kind!r}")
        if self.kind == "positive" and self.matched_gt is None:
            raise ValueError("positive label requires a matched gt index")
        if self.kind == "negative" and self.matched_gt is not None:
            raise ValueError("negative label cannot carry a matched gt index")


def generate_anchors(
    grid_rows: int, grid_cols: int, config: AnchorConfig | None = None
) -> list[Anchor]:
    """Enumerate all anchors over a grid_rows x grid_cols feature grid.

    Anchor centers sit at cell centers in image space,
    ((col + 0.5) * stride, (row + 0.5) * stride). For each cell the
    combinations run orientation-major, then scale, then ratio; extents
    satisfy w * h = scale**2 and h / w = ratio. Ordering is deterministic:
    row-major cells, then the per-cell combination index.
    """
    if grid_rows < 1 or grid_cols < 1:
        raise ValueError(f"grid must be at least 1x1, got {grid_rows}x{grid_cols}")
    cfg = config if config is not None else AnchorConfig()
    shapes = []
    for theta in cfg.orientations:
        for scale in cfg.scales:
            for ratio in cfg.aspect_ratios:
                root = math.sqrt(ratio)
                shapes.append((scale / root, scale * root, theta))
    anchors = []
    for row in range(grid_rows):
        cy = (row + 0.5) * cfg.stride
        for col in range(grid_cols):
            cx = (col + 0.5) * cfg.stride
            for idx, (w, h, theta) in enumerate(shapes):
                anchors.append(
                    Anchor(OrientedBox(cx, cy, w, h, theta), (row, col), idx)
                )
    return anchors


def label_anchors(
    anchors: list[Anchor], gt: list[OrientedBox], config: AnchorConfig | None = None
) -> list[AnchorLabel]:
    """Assign positive/negative/neutral labels to anchors against gt boxes.

    An anchor is positive when its best IoU over gt reaches
    config.positive_iou, negative below config.negative_iou, neutral
    between. Additionally the best anchor of each gt box (when its IoU is
    nonzero) is forced positive so no overlapped gt goes unowned; forced
    anchors keep their own argmax gt as matched_gt. With empty gt every
    anchor is negative.
    """
    cfg = config if config is not None else AnchorConfig()
    if not gt or not anchors:
        return [AnchorLabel("negative", None, 0.0) for _ in anchors]

    iou = iou_matrix(box_array([a.box for a in anchors]), box_array(gt))
    # argmax returns the first index of the maximum: ties go to the lower index.
    best_gt = iou.argmax(axis=1).tolist()
    best_iou = iou.max(axis=1).tolist()
    forced = set(iou.argmax(axis=0)[iou.max(axis=0) > 0.0].tolist())
    labels = []
    for i, (best, j) in enumerate(zip(best_iou, best_gt)):
        if best >= cfg.positive_iou or i in forced:
            labels.append(AnchorLabel("positive", j, best))
        elif best < cfg.negative_iou:
            labels.append(AnchorLabel("negative", None, best))
        else:
            labels.append(AnchorLabel("neutral", None, best))
    return labels


def select_top_proposals(
    boxes: list[OrientedBox],
    objectness: list[float],
    k: int = 1000,
    nms_iou: float = 0.7,
) -> list[int]:
    """Indices of the top proposals: rotated NMS, then the k best by objectness.

    The returned indices are ordered by descending objectness (NMS ties
    already resolve toward lower original indices).
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    kept = rotated_nms(boxes, objectness, nms_iou)
    return kept[:k]
