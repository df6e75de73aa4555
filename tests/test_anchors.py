import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientkit.anchors import (
    Anchor,
    AnchorConfig,
    generate_anchors,
    label_anchors,
    select_top_proposals,
)
from orientkit.geometry import OrientedBox

from oracles import brute_force_axis_nms, clipper_iou


def singleton_config(**overrides):
    base = dict(
        orientations=(0.0,),
        aspect_ratios=(1.0,),
        scales=(128.0,),
        stride=16.0,
    )
    base.update(overrides)
    return AnchorConfig(**base)


class TestAnchorConfig:
    def test_defaults_match_seven_three_three(self):
        cfg = AnchorConfig()
        assert len(cfg.orientations) == 7
        assert len(cfg.aspect_ratios) == 3
        assert len(cfg.scales) == 3
        assert cfg.anchors_per_cell == 63
        assert cfg.positive_iou == 0.7
        assert cfg.negative_iou == 0.3

    def test_rejects_empty_lists(self):
        with pytest.raises(ValueError):
            AnchorConfig(scales=())
        with pytest.raises(ValueError):
            AnchorConfig(orientations=())

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            AnchorConfig(positive_iou=0.3, negative_iou=0.3)
        with pytest.raises(ValueError):
            AnchorConfig(positive_iou=1.2)

    def test_rejects_out_of_range_orientation(self):
        with pytest.raises(ValueError):
            AnchorConfig(orientations=(math.pi,))


class TestGenerateAnchors:
    def test_single_cell_default_count(self):
        assert len(generate_anchors(1, 1)) == 63

    def test_six_cells_default_count(self):
        assert len(generate_anchors(2, 3)) == 378

    def test_singleton_config_box(self):
        (anchor,) = generate_anchors(1, 1, singleton_config())
        assert anchor.box == OrientedBox(8.0, 8.0, 128.0, 128.0, 0.0)
        assert anchor.cell == (0, 0)
        assert anchor.config_index == 0

    def test_centers_sit_on_cell_centers(self):
        cfg = singleton_config(stride=10.0)
        anchors = generate_anchors(3, 2, cfg)
        for anchor in anchors:
            row, col = anchor.cell
            assert anchor.box.cx == (col + 0.5) * 10.0
            assert anchor.box.cy == (row + 0.5) * 10.0

    def test_extents_from_scale_and_ratio(self):
        cfg = AnchorConfig(
            orientations=(0.0,), aspect_ratios=(0.5, 2.0), scales=(100.0,), stride=8.0
        )
        boxes = [a.box for a in generate_anchors(1, 1, cfg)]
        for box, ratio in zip(boxes, (0.5, 2.0)):
            assert box.w * box.h == pytest.approx(100.0**2, rel=1e-12)
            assert box.h / box.w == pytest.approx(ratio, rel=1e-12)

    def test_ordering_row_major_then_orientation_scale_ratio(self):
        cfg = AnchorConfig(
            orientations=(0.0, 0.1),
            aspect_ratios=(1.0, 2.0),
            scales=(10.0, 20.0),
            stride=4.0,
        )
        anchors = generate_anchors(1, 2, cfg)
        cells = [a.cell for a in anchors]
        assert cells == [(0, 0)] * 8 + [(0, 1)] * 8
        per_cell = anchors[:8]
        combos = [
            (a.box.theta, round(a.box.w * a.box.h, 6), round(a.box.h / a.box.w, 6))
            for a in per_cell
        ]
        assert combos == [
            (0.0, 100.0, 1.0),
            (0.0, 100.0, 2.0),
            (0.0, 400.0, 1.0),
            (0.0, 400.0, 2.0),
            (0.1, 100.0, 1.0),
            (0.1, 100.0, 2.0),
            (0.1, 400.0, 1.0),
            (0.1, 400.0, 2.0),
        ]
        assert [a.config_index for a in per_cell] == list(range(8))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            generate_anchors(0, 1)

    @given(
        n_orient=st.integers(1, 5),
        n_ratio=st.integers(1, 4),
        n_scale=st.integers(1, 4),
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
    )
    @settings(max_examples=40)
    def test_count_law(self, n_orient, n_ratio, n_scale, rows, cols):
        cfg = AnchorConfig(
            orientations=tuple(i * 0.2 - 0.4 for i in range(n_orient)),
            aspect_ratios=tuple(0.5 + 0.5 * i for i in range(n_ratio)),
            scales=tuple(16.0 * (i + 1) for i in range(n_scale)),
            stride=8.0,
        )
        assert len(generate_anchors(rows, cols, cfg)) == (
            rows * cols * n_orient * n_ratio * n_scale
        )


def tiny_grid_anchors():
    # 4x4 grid of 16px-stride unit-scale anchors, one per cell.
    return generate_anchors(4, 4, singleton_config(scales=(16.0,)))


class TestLabelAnchors:
    def test_identical_anchor_is_positive(self):
        anchors = tiny_grid_anchors()
        gt = [anchors[5].box]
        labels = label_anchors(anchors, gt, singleton_config(scales=(16.0,)))
        assert labels[5].kind == "positive"
        assert labels[5].matched_gt == 0
        assert labels[5].max_iou == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_anchor_is_negative(self):
        anchors = tiny_grid_anchors()
        gt = [OrientedBox(1000, 1000, 16, 16, 0)]
        labels = label_anchors(anchors, gt, singleton_config(scales=(16.0,)))
        assert all(lab.kind == "negative" for lab in labels)
        assert all(lab.max_iou == 0.0 for lab in labels)
        assert all(lab.matched_gt is None for lab in labels)

    def test_exact_half_iou_is_neutral(self):
        # gt overlaps anchor A at interval-arithmetic IoU exactly 0.5 while a
        # second anchor holds the argmax slot, so A is genuinely neutral.
        cfg = singleton_config(scales=(16.0,))
        anchor_half = OrientedBox(8, 8, 16, 16, 0)  # [0,16]^2
        anchor_best = OrientedBox(8, 4, 16, 8, 0)  # [0,16]x[0,8]
        gt = OrientedBox(8, 4, 16, 8, 0)
        from orientkit.anchors import Anchor

        anchors = [
            Anchor(anchor_half, (0, 0), 0),
            Anchor(anchor_best, (0, 0), 1),
        ]
        labels = label_anchors(anchors, [gt], cfg)
        assert labels[0].max_iou == pytest.approx(0.5, abs=1e-12)
        assert labels[0].kind == "neutral"
        assert labels[1].kind == "positive"

    def test_empty_gt_all_negative(self):
        anchors = tiny_grid_anchors()
        labels = label_anchors(anchors, [], singleton_config(scales=(16.0,)))
        assert all(lab.kind == "negative" for lab in labels)

    def test_empty_anchors(self):
        assert label_anchors([], [OrientedBox(8, 8, 16, 16, 0)]) == []

    def test_single_anchor(self):
        cfg = singleton_config(scales=(16.0,))
        anchor = [Anchor(OrientedBox(8, 8, 16, 16, 0), (0, 0), 0)]
        (same,) = label_anchors(anchor, [OrientedBox(8, 8, 16, 16, 0)], cfg)
        assert (same.kind, same.matched_gt, same.max_iou) == ("positive", 0, 1.0)
        (far,) = label_anchors(anchor, [OrientedBox(99, 99, 16, 16, 0)], cfg)
        assert (far.kind, far.matched_gt, far.max_iou) == ("negative", None, 0.0)

    def test_matches_scalar_loop_with_ties(self):
        # Repeated anchors and repeated gts tie; the first index must win both ways.
        rng = np.random.default_rng(4)
        anchors = tiny_grid_anchors()
        anchors = anchors + anchors[:6]
        gt = [OrientedBox(*rng.uniform(0, 64, 2), *rng.uniform(8, 30, 2),
                          rng.uniform(-1.5, 1.5)) for _ in range(3)]
        gt = gt + gt[:1] + [anchors[2].box]
        cfg = singleton_config(scales=(16.0,))
        iou = [[clipper_iou(a.box, g) for g in gt] for a in anchors]
        gt_best = [max(range(len(anchors)), key=lambda i: (iou[i][j], -i))
                   for j in range(len(gt))]
        forced = {gt_best[j] for j in range(len(gt)) if iou[gt_best[j]][j] > 0.0}
        labels = label_anchors(anchors, gt, cfg)
        for i, lab in enumerate(labels):
            best = max(iou[i])
            j = iou[i].index(best)
            if best >= cfg.positive_iou or i in forced:
                assert (lab.kind, lab.matched_gt, lab.max_iou) == ("positive", j, best)
            elif best < cfg.negative_iou:
                assert (lab.kind, lab.matched_gt, lab.max_iou) == ("negative", None, best)
            else:
                assert (lab.kind, lab.matched_gt, lab.max_iou) == ("neutral", None, best)

    def test_argmax_fallback_forces_best_anchor_positive(self):
        # Sub-threshold overlap (IoU 0.5) still yields one positive owner.
        cfg = singleton_config(scales=(16.0,))
        anchors = tiny_grid_anchors()
        gt = [OrientedBox(8, 4, 16, 8, 0)]
        labels = label_anchors(anchors, gt, cfg)
        positives = [lab for lab in labels if lab.kind == "positive"]
        assert len(positives) == 1
        assert positives[0].matched_gt == 0

    def test_every_anchor_gets_exactly_one_kind(self):
        rng = np.random.default_rng(2)
        anchors = tiny_grid_anchors()
        gt = [
            OrientedBox(
                rng.uniform(0, 64), rng.uniform(0, 64), rng.uniform(8, 30),
                rng.uniform(8, 30), rng.uniform(-1.5, 1.5)
            )
            for _ in range(4)
        ]
        labels = label_anchors(anchors, gt, singleton_config(scales=(16.0,)))
        assert len(labels) == len(anchors)
        assert all(lab.kind in ("positive", "negative", "neutral") for lab in labels)

    def test_raising_positive_threshold_never_adds_positives(self):
        rng = np.random.default_rng(9)
        anchors = tiny_grid_anchors()
        gt = [
            OrientedBox(
                rng.uniform(0, 64), rng.uniform(0, 64), rng.uniform(8, 30),
                rng.uniform(8, 30), rng.uniform(-1.5, 1.5)
            )
            for _ in range(5)
        ]
        counts = []
        for pos in (0.5, 0.6, 0.7, 0.8):
            cfg = singleton_config(scales=(16.0,), positive_iou=pos)
            labels = label_anchors(anchors, gt, cfg)
            organic = sum(1 for lab in labels if lab.max_iou >= pos)
            forced = sum(1 for lab in labels if lab.kind == "positive") - organic
            counts.append(organic)
            assert forced <= len(gt)
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestSelectTopProposals:
    def test_three_disjoint_boxes_top_two(self):
        boxes = [
            OrientedBox(0, 0, 4, 4, 0),
            OrientedBox(50, 0, 4, 4, 0),
            OrientedBox(0, 50, 4, 4, 0),
        ]
        assert select_top_proposals(boxes, [0.2, 0.9, 0.5], k=2, nms_iou=0.5) == [1, 2]

    def test_fewer_survivors_than_k(self):
        boxes = [OrientedBox(0, 0, 4, 4, 0), OrientedBox(50, 0, 4, 4, 0)]
        assert select_top_proposals(boxes, [0.3, 0.8], k=1000, nms_iou=0.5) == [1, 0]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        boxes = [
            OrientedBox(rng.uniform(0, 60), rng.uniform(0, 60),
                        rng.uniform(4, 20), rng.uniform(4, 20), 0.0)
            for _ in range(100)
        ]
        scores = rng.uniform(0, 1, 100).tolist()
        got = select_top_proposals(boxes, scores, k=1000, nms_iou=0.5)
        assert got == brute_force_axis_nms(boxes, scores, 0.5)
        assert len(got) <= 100
        objectness = [scores[i] for i in got]
        assert objectness == sorted(objectness, reverse=True)

    def test_k_truncation(self):
        rng = np.random.default_rng(22)
        boxes = [
            OrientedBox(rng.uniform(0, 500), rng.uniform(0, 500), 4, 4, 0.0)
            for _ in range(30)
        ]
        scores = rng.uniform(0, 1, 30).tolist()
        full = select_top_proposals(boxes, scores, k=1000, nms_iou=0.5)
        assert select_top_proposals(boxes, scores, k=5, nms_iou=0.5) == full[:5]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            select_top_proposals([OrientedBox(0, 0, 1, 1)], [0.1, 0.2])
