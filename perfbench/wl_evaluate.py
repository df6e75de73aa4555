"""evaluate: `orientkit evaluate --plots --jobs 2` on seeded gt/pred JSONL files.

Generator: N_IMAGES one-hand records with 1-5 fingers each (the same
number of images for every finger count). Fingers sit in five slots
SLOT_DX px apart, wider than any two boxes plus their perturbation, so a
prediction can overlap only its own gt. Predictions are perturbed copies
of gt (centre, extents and angle each within a fixed bound); exact
quotas of gt fingers are dropped, relabelled to another finger of the
same hand, or joined by a stray box in a free slot. A tenth of the gt
angles lie within 4 degrees of +-90, so their predictions wrap around.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from common import Checks, fold_degrees, nonempty, run_cli, write_jsonl

ITEM = "gt image"
N_IMAGES = 300
SLOT_DX, SLOT_X0, SLOT_Y = 140.0, 90.0, 200.0
WIDTH, HEIGHT = 740, 400
D_CENTRE, D_EXTENT, D_THETA_DEG = 3.0, 3.0, 3.0
MISSING_SHARE, SWAPPED_SHARE, STRAY_SHARE, NEAR_90_SHARE = 0.10, 0.05, 0.10, 0.10
HANDS = {
    "left": ["Left-Thumb", "Left-Index", "Left-Middle", "Left-Ring", "Left-Little"],
    "right": ["Right-Thumb", "Right-Index", "Right-Middle", "Right-Ring", "Right-Little"],
}
SVGS = ("mae_left.svg", "mae_right.svg", "mae_top.svg", "mae_bottom.svg",
        "eap_hist.svg", "eap_box.svg")


def _finger(label, cx, cy, w, h, theta_deg) -> dict:
    if theta_deg > 90.0:
        theta_deg -= 180.0
    elif theta_deg <= -90.0:
        theta_deg += 180.0
    return {"label": label, "cx": cx, "cy": cy, "w": w, "h": h, "theta_deg": theta_deg}


def _record(name, hand, fingers) -> dict:
    return {"image": name, "width": WIDTH, "height": HEIGHT, "hand": hand,
            "provenance": "bonafide", "source_id": name[:-4], "augment_angle_deg": 0.0,
            "fingers": fingers}


class Workload:
    def __init__(self, ok, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.ok = ok
        self.items = N_IMAGES
        counts = rng.permutation([i % 5 + 1 for i in range(N_IMAGES)]).tolist()
        images = []  # per image: name, hand, gt fingers [(slot, label, box)], free slots
        for n, k in enumerate(counts):
            hand = "left" if rng.random() < 0.5 else "right"
            slots = sorted(rng.choice(5, size=k, replace=False).tolist())
            labels = rng.permutation(HANDS[hand])[:k].tolist()
            fingers = []
            for slot, label in zip(slots, labels):
                if rng.random() < NEAR_90_SHARE:
                    theta = float(rng.choice([-1.0, 1.0]) * rng.uniform(86.0, 90.0))
                else:
                    theta = float(rng.uniform(-90.0, 90.0))
                box = (SLOT_X0 + SLOT_DX * slot + float(rng.uniform(-5, 5)),
                       SLOT_Y + float(rng.uniform(-20, 20)),
                       float(rng.uniform(30, 50)), float(rng.uniform(60, 100)), theta)
                fingers.append([slot, label, box])
            images.append({"name": f"img{n:05d}.ppm", "hand": hand, "fingers": fingers,
                           "free": sorted(set(range(5)) - set(slots))})

        # Plant exact quotas; pred_labels[i][j] is the label predicted for gt
        # finger j of image i, or None where the prediction is missing.
        pred_labels = [[f[1] for f in im["fingers"]] for im in images]
        flat = [(i, j) for i, labels in enumerate(pred_labels) for j in range(len(labels))]
        n_fingers = len(flat)
        missing = 0
        for idx in rng.permutation(n_fingers).tolist():
            i, j = flat[idx]
            if missing < round(MISSING_SHARE * n_fingers) and sum(map(bool, pred_labels[i])) > 1:
                pred_labels[i][j] = None
                missing += 1
        swapped = 0
        for idx in rng.permutation(n_fingers).tolist():
            i, j = flat[idx]
            spare = [label for label in HANDS[images[i]["hand"]] if label not in pred_labels[i]]
            if swapped < round(SWAPPED_SHARE * n_fingers) and pred_labels[i][j] and spare:
                pred_labels[i][j] = spare[int(rng.integers(len(spare)))]
                swapped += 1
        strays = {}
        for i in rng.permutation(N_IMAGES).tolist():
            spare = [label for label in HANDS[images[i]["hand"]] if label not in pred_labels[i]]
            if len(strays) < round(STRAY_SHARE * N_IMAGES) and images[i]["free"] and spare:
                strays[i] = (int(rng.choice(images[i]["free"])), spare[0])

        gt_records, pred_records = [], []
        self.expected = {}
        for i, im in enumerate(images):
            gt_fingers, pred_fingers, rows = [], [], []
            for j, (slot, label, box) in enumerate(im["fingers"]):
                gt_fingers.append(_finger(label, *box))
                pred_label = pred_labels[i][j]
                rows.append((label, pred_label or "", pred_label is not None, box))
                if pred_label is not None:
                    cx, cy, w, h, theta = box
                    pred_fingers.append(_finger(
                        pred_label,
                        cx + float(rng.uniform(-D_CENTRE, D_CENTRE)),
                        cy + float(rng.uniform(-D_CENTRE, D_CENTRE)),
                        w + float(rng.uniform(-D_EXTENT, D_EXTENT)),
                        h + float(rng.uniform(-D_EXTENT, D_EXTENT)),
                        theta + float(rng.uniform(-D_THETA_DEG, D_THETA_DEG)),
                    ))
            stray_labels = []
            if i in strays:
                slot, label = strays[i]
                pred_fingers.append(
                    _finger(label, SLOT_X0 + SLOT_DX * slot, SLOT_Y, 40.0, 80.0, 0.0))
                stray_labels.append(label)
            pred_fingers = [pred_fingers[p] for p in rng.permutation(len(pred_fingers)).tolist()]
            gt_records.append(_record(im["name"], im["hand"], gt_fingers))
            pred_records.append(_record(im["name"], im["hand"], pred_fingers))
            self.expected[im["name"]] = (rows, stray_labels)

        self.n_fingers, self.missing, self.strays = n_fingers, missing, len(strays)
        per_image = [sum(1 for g, p, _, _ in rows if p != g) / len(rows)
                     for rows, _ in self.expected.values()]
        self.label_accuracy = 1.0 - sum(per_image) / len(per_image)
        workdir.mkdir(parents=True, exist_ok=True)
        self.gt_path, self.pred_path = workdir / "gt.jsonl", workdir / "pred.jsonl"
        write_jsonl(gt_records, self.gt_path)
        write_jsonl(pred_records, self.pred_path)

    def call(self, out_dir, jobs, tracer=None):
        rc, _ = run_cli(self.ok.cli, [
            "evaluate", "--gt", str(self.gt_path), "--pred", str(self.pred_path),
            "--out", str(out_dir), "--plots", "--jobs", str(jobs)])
        return rc, out_dir

    def check(self, out, checks: Checks) -> None:
        rc, out_dir = out
        checks.expect(rc == 0, f"evaluate: exit code {rc}")
        if rc != 0:
            return
        summary = dict(
            line.split(" = ", 1)
            for line in (out_dir / "summary.txt").read_text(encoding="utf-8").splitlines()
        )
        for key, want in (("images", N_IMAGES), ("gt_fingerprints", self.n_fingers),
                          ("matched", self.n_fingers - self.missing),
                          ("unmatched_gt", self.missing), ("unmatched_pred", self.strays)):
            checks.expect(int(summary[key]) == want, f"evaluate: {key} {summary[key]} != {want}")
        checks.expect(abs(float(summary["label_accuracy"]) - self.label_accuracy) <= 1e-12,
                      f"evaluate: label_accuracy {summary['label_accuracy']} "
                      f"!= {self.label_accuracy}")
        checks.expect(all(nonempty(out_dir / name) for name in SVGS), "evaluate: missing plot")

        by_image: dict[str, list[dict]] = {}
        with open(out_dir / "detail.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                by_image.setdefault(row["image"], []).append(row)
        checks.expect(by_image.keys() == self.expected.keys(), "evaluate: image set differs")
        for name, (want, stray_labels) in self.expected.items():
            rows = by_image.get(name, [])
            gt_rows = [r for r in rows if r["gt_label"]]
            stray_rows = [r for r in rows if not r["gt_label"]]
            good = (
                [(r["gt_label"], r["pred_label"], r["matched"] == "1") for r in gt_rows]
                == [(g, p, m) for g, p, m, _ in want]
                and sorted(r["pred_label"] for r in stray_rows) == sorted(stray_labels)
            )
            for r, (_, _, matched, (_, _, w, h, _)) in zip(gt_rows, want):
                if matched and good:
                    bound = (math.sqrt(2) * D_CENTRE + D_EXTENT / math.sqrt(2)
                             + math.hypot(w, h) / 2 * math.radians(D_THETA_DEG) + 1e-9)
                    good = (
                        float(r["iou"]) > 0.0
                        and all(abs(float(r[f"err_{side}"])) <= bound
                                for side in ("left", "right", "top", "bottom"))
                        and fold_degrees(float(r["angle_error_deg"])) <= D_THETA_DEG + 1e-9
                    )
            checks.expect(good, f"evaluate: image {name} rows differ from construction")

    def trace_targets(self, inner: bool):
        cli, report = self.ok.cli, self.ok.report
        targets = [
            (cli, "parse_annotations", "dataio.parse_annotations", _count_records),
            (report, "evaluate_annotations", "report.evaluate_annotations", None),
            (report, "aggregate_rows", "report.aggregate_rows", None),
            (report, "write_summary", "report.write", None),
            (report, "write_detail_csv", "report.write", None),
        ] + [(cli, name, "svgplot", None)
             for name in ("histogram_from_values", "boxplot_svg", "save_svg")]
        if inner:  # these run inside pool workers when jobs > 1, where spans are lost
            targets += [
                (report, "match_fingers", "report.match_fingers", None),
                (report, "rotated_iou", "geometry.rotated_iou", _count_nonzero),
                (report, "side_errors", "metrics.side_errors", None),
            ]
        return targets

    def layer_metrics(self, inner, outer, reps: int, last) -> dict:
        _, out_dir = last
        summary = dict(
            line.split(" = ", 1)
            for line in (out_dir / "summary.txt").read_text(encoding="utf-8").splitlines()
        )
        calls = inner.calls("geometry.rotated_iou")
        metrics = {
            f"{name}.s": (inner.self_s(name) / reps, "s")
            for name in ("dataio.parse_annotations", "report.evaluate_annotations",
                         "report.match_fingers", "report.aggregate_rows", "report.write",
                         "geometry.rotated_iou", "metrics.side_errors", "svgplot")
        }
        metrics.update({
            "report.evaluate_annotations.jobs1_total_s": (
                inner.total_s("report.evaluate_annotations") / reps, "s"),
            "report.evaluate_annotations.jobs2_total_s": (
                outer.total_s("report.evaluate_annotations") / reps, "s"),
            "dataio.records": (inner.counts["dataio.records"] / reps, "count"),
            "report.matched": (int(summary["matched"]), "count"),
            "report.unmatched_gt": (int(summary["unmatched_gt"]), "count"),
            "report.unmatched_pred": (int(summary["unmatched_pred"]), "count"),
            "geometry.rotated_iou.calls": (calls / reps, "count"),
            "geometry.rotated_iou.nonzero_ratio": (
                inner.counts["geometry.rotated_iou.nonzero"] / calls if calls else 0.0, "ratio"),
        })
        return metrics


def _count_records(tracer, records):
    tracer.counts["dataio.records"] += len(records)


def _count_nonzero(tracer, iou):
    tracer.counts["geometry.rotated_iou.nonzero"] += iou > 0.0
