"""rpn: one image's oriented-RPN training and inference step, through the library.

Generator: N_GT finger-sized gt boxes on a GRID feature grid (stride 16,
the default 7x3x3 anchor config), one synthetic regression offset and one
objectness per anchor, and a sampling priority for the minibatch.
The step: generate_anchors, label_anchors, encode + orpn_loss and its
gradient over a sampled minibatch, decode of every anchor's offsets, and
select_top_proposals (rotated NMS) over the PRE_NMS best-scoring boxes.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np

from common import Checks, fold_degrees, oracle_iou

ITEM = "image"
GRID = (4, 4)  # rows x cols; the full 38x50 grid takes minutes per image on the seed
N_GT = 3
MINIBATCH = 64
PRE_NMS = 60
POST_NMS = 1000
NMS_IOU = 0.7
TOL = 1e-9


def _box(b) -> tuple:
    return (b.cx, b.cy, b.w, b.h, b.theta)


class Workload:
    def __init__(self, ok, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.ok = ok
        self.config = ok.AnchorConfig()
        rows, cols = GRID
        height, width = rows * self.config.stride, cols * self.config.stride
        self.gts = [
            ok.OrientedBox(
                float(rng.uniform(0, width)), float(rng.uniform(0, height)),
                float(rng.uniform(70, 110)), float(rng.uniform(150, 220)),
                math.radians(float(rng.uniform(-90, 90))),
            )
            for _ in range(N_GT)
        ]
        n = rows * cols * self.config.anchors_per_cell
        scale = np.array([0.05, 0.05, 0.1, 0.1, 0.05])
        self.offsets = [
            ok.RegressionTarget.from_array(row) for row in rng.normal(0.0, scale, size=(n, 5))
        ]
        # Objectness is the same for every seed, so NMS always sees proposals
        # from the same anchors and does about the same work; the seed moves
        # the gts, the offsets and the minibatch.
        self.objectness = np.random.default_rng(0).uniform(0.01, 0.99, size=n).tolist()
        self.priority = rng.permutation(n).tolist()
        self.pre_nms = sorted(range(n), key=lambda i: -self.objectness[i])[:PRE_NMS]
        self.zero = ok.RegressionTarget(0.0, 0.0, 0.0, 0.0, 0.0)
        self.items = 1
        self._oracle = None

    def call(self, out_dir, jobs, tracer=None):
        ok, cfg = self.ok, self.config
        span = tracer.span if tracer is not None else lambda name: nullcontext()
        with span("anchors.generate_anchors"):
            anchors = ok.generate_anchors(*GRID, cfg)
        with span("anchors.label_anchors"):
            labels = ok.label_anchors(anchors, self.gts, cfg)

        positives = [i for i in self.priority if labels[i].kind == "positive"][: MINIBATCH // 2]
        negatives = [i for i in self.priority if labels[i].kind == "negative"]
        negatives = negatives[: MINIBATCH - len(positives)]
        with span("coding.encode"):
            targets = [ok.encode(self.gts[labels[i].matched_gt], anchors[i].box)
                       for i in positives]
        with span("coding.loss"):
            batch = ([(i, 1, t) for i, t in zip(positives, targets)]
                     + [(i, 0, self.zero) for i in negatives])
            loss = sum(ok.orpn_loss(self.objectness[i], u, self.offsets[i], t).total
                       for i, u, t in batch)
            grad = sum(ok.coding.orpn_loss_grad(self.objectness[i], u, self.offsets[i], t)
                       for i, u, t in batch)
        with span("coding.decode"):
            boxes = [ok.decode(t, a.box) for t, a in zip(self.offsets, anchors)]
        proposals = [boxes[i] for i in self.pre_nms]
        scores = [self.objectness[i] for i in self.pre_nms]
        with span("anchors.select_top_proposals"):
            kept = ok.select_top_proposals(proposals, scores, k=POST_NMS, nms_iou=NMS_IOU)
        return {
            "anchors": anchors, "labels": labels, "targets": targets, "positives": positives,
            "loss": loss, "grad": grad, "proposals": proposals, "scores": scores, "kept": kept,
        }

    def _anchor_gt_iou(self, anchors) -> list[list[float]]:
        # Every call generates the same grid, so the oracle matrix is
        # computed once per distinct grid, after the timed region.
        grid = [_box(a.box) for a in anchors]
        if self._oracle is None or self._oracle[0] != grid:
            gts = [_box(g) for g in self.gts]
            self._oracle = (grid, [[oracle_iou(a, g) for g in gts] for a in grid])
        return self._oracle[1]

    def check(self, out, checks: Checks) -> None:
        cfg, anchors, labels = self.config, out["anchors"], out["labels"]
        checks.expect(len(labels) == len(anchors) == len(self.offsets), "rpn: anchor count")
        iou = self._anchor_gt_iou(anchors)
        gt_max = [max(row[j] for row in iou) for j in range(N_GT)]
        argmax = set()
        for j, best in enumerate(gt_max):
            if best > TOL:
                argmax.update(i for i, row in enumerate(iou) if row[j] >= best - TOL)
        for i, label in enumerate(labels):
            best = max(iou[i])
            if label.kind == "positive":
                checks.expect(best >= cfg.positive_iou - TOL or i in argmax,
                              f"rpn: positive anchor {i} below threshold and not an argmax")
            elif label.kind == "negative":
                checks.expect(best < cfg.negative_iou + TOL,
                              f"rpn: negative anchor {i} overlaps {best}")
            else:
                checks.expect(cfg.negative_iou - TOL <= best < cfg.positive_iou + TOL,
                              f"rpn: neutral anchor {i} has IoU {best}")
        for j, best in enumerate(gt_max):
            if best > TOL:
                owned = any(
                    labels[i].kind == "positive" and iou[i][j] >= best - TOL
                    for i in range(len(labels))
                )
                checks.expect(owned, f"rpn: gt {j} owns no positive")

        for i, t in zip(out["positives"], out["targets"]):
            g = self.gts[labels[i].matched_gt]
            back = self.ok.decode(t, anchors[i].box)
            angle = math.radians(fold_degrees(math.degrees(back.theta - g.theta)))
            err = max(abs(back.cx - g.cx), abs(back.cy - g.cy), abs(back.w - g.w),
                      abs(back.h - g.h), angle)
            checks.expect(err <= 1e-9, f"rpn: decode(encode(g, a), a) off by {err}")
        checks.expect(math.isfinite(out["loss"]) and bool(np.all(np.isfinite(out["grad"]))),
                      "rpn: loss or gradient not finite")

        kept, scores, proposals = out["kept"], out["scores"], out["proposals"]
        checks.expect(all(scores[a] > scores[b] for a, b in zip(kept, kept[1:])),
                      "rpn: kept NMS indices not in descending score order")
        boxes = [_box(b) for b in proposals]
        kept_set = set(kept)
        for n, i in enumerate(kept):
            checks.expect(all(oracle_iou(boxes[i], boxes[k]) <= NMS_IOU + TOL for k in kept[:n]),
                          f"rpn: NMS kept proposal {i} over an overlapping kept box")
        for i in range(len(boxes)):
            if i not in kept_set:
                checks.expect(
                    any(scores[k] > scores[i] and oracle_iou(boxes[i], boxes[k]) > NMS_IOU - TOL
                        for k in kept),
                    f"rpn: NMS suppressed proposal {i} without an overlapping better box")

    def trace_targets(self, inner: bool):
        ok = self.ok

        def nonzero(tracer, iou):
            tracer.counts["geometry.rotated_iou.nonzero"] += iou > 0.0

        return [
            (ok.anchors, "rotated_iou", "geometry.rotated_iou", nonzero),
            (ok.geometry, "rotated_iou", "geometry.rotated_iou", nonzero),
            (ok.anchors, "rotated_nms", "geometry.rotated_nms", None),
        ]

    def layer_metrics(self, tr, outer, reps: int, last) -> dict:
        calls = tr.calls("geometry.rotated_iou")
        kinds = [label.kind for label in last["labels"]]
        metrics = {
            f"{name}.s": (tr.self_s(name) / reps, "s")
            for name in ("anchors.generate_anchors", "anchors.label_anchors",
                         "anchors.select_top_proposals", "geometry.rotated_iou",
                         "geometry.rotated_nms", "coding.encode", "coding.decode", "coding.loss")
        }
        metrics.update({
            "anchors.pairs": (len(last["anchors"]) * N_GT, "count"),
            "anchors.positive": (kinds.count("positive"), "count"),
            "anchors.neutral": (kinds.count("neutral"), "count"),
            "anchors.negative": (kinds.count("negative"), "count"),
            "geometry.rotated_iou.calls": (calls / reps, "count"),
            "geometry.rotated_iou.nonzero_ratio": (
                tr.counts["geometry.rotated_iou.nonzero"] / calls if calls else 0.0, "ratio"),
            "geometry.rotated_nms.kept_ratio": (len(last["kept"]) / PRE_NMS, "ratio"),
        })
        return metrics

