"""Dataset-level evaluation: match predictions to ground truth and aggregate.

Within each image, predicted fingerprints are matched one-to-one to
ground-truth fingerprints greedily by descending rotated IoU (ties break
toward the lower prediction index, then the lower gt index); pairs with
zero overlap never match. An unmatched gt counts as a labeling miss and
is excluded from the MAE/EAP pools but reported separately, as are
leftover predictions. Aggregates are always recomputed from the emitted
detail rows, so the two can never drift apart.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import AnnotatedFingerphoto
from .geometry import box_array, rotated_ious
from .metrics import (
    MaeReport,
    SIDES,
    SideErrors,
    angle_error_deg,
    eap,
    label_accuracy,
    mae,
    nist_tolerance_check,
    side_errors,
)


@dataclass(frozen=True)
class DetailRow:
    """One gt fingerprint (or stray prediction) in the evaluation detail."""

    image: str
    gt_label: str
    pred_label: str
    matched: bool
    iou: float
    errors: SideErrors | None
    angle_error_deg: float | None
    nist_pass: bool | None


@dataclass(frozen=True)
class EvaluationReport:
    n_images: int
    n_gt: int
    n_matched: int
    n_unmatched_gt: int
    n_unmatched_pred: int
    mae_report: MaeReport | None
    eap_mean: float | None
    eap_std: float | None
    hamming_loss: float
    label_accuracy: float
    nist_tolerance: float
    nist_pass_rate: float | None
    rows: tuple[DetailRow, ...]


def _greedy_match(ious: np.ndarray) -> list[tuple[int, int, float]]:
    """Greedy one-to-one matching on a (pred x gt) IoU matrix; zero IoU never matches."""
    rows, cols = np.nonzero(ious > 0.0)
    pairs = sorted(zip(ious[rows, cols].tolist(), rows.tolist(), cols.tolist()),
                   key=lambda p: (-p[0], p[1], p[2]))
    used_gt: set[int] = set()
    used_pred: set[int] = set()
    matches = []
    for iou, pi, gi in pairs:
        if pi in used_pred or gi in used_gt:
            continue
        used_pred.add(pi)
        used_gt.add(gi)
        matches.append((gi, pi, iou))
    matches.sort()
    return matches


def _detail_rows(gt, pred, matched, tolerance: float) -> list[DetailRow]:
    matches = {gi: (pi, iou) for gi, pi, iou in matched}
    rows = []
    for gi, gf in enumerate(gt.fingers):
        if gi in matches:
            pi, iou = matches[gi]
            pf = pred.fingers[pi]
            errs = side_errors(pf.box, gf.box)
            rows.append(
                DetailRow(
                    image=gt.record_id,
                    gt_label=gf.label.value,
                    pred_label=pf.label.value,
                    matched=True,
                    iou=iou,
                    errors=errs,
                    angle_error_deg=angle_error_deg(
                        math.degrees(gf.box.theta), math.degrees(pf.box.theta)
                    ),
                    nist_pass=errs.within(tolerance),
                )
            )
        else:
            rows.append(_unmatched_row(gt.record_id, gt_label=gf.label.value))
    matched_preds = {pi for pi, _ in matches.values()}
    for pi, pf in enumerate(pred.fingers):
        if pi not in matched_preds:
            rows.append(_unmatched_row(gt.record_id, pred_label=pf.label.value))
    return rows


def _unmatched_row(image: str, gt_label: str = "", pred_label: str = "") -> DetailRow:
    return DetailRow(image, gt_label, pred_label, False, 0.0, None, None, None)


def aggregate_rows(
    rows: list[DetailRow], n_images: int, tolerance: float
) -> EvaluationReport:
    """Build the report purely from detail rows (the invariant anchor)."""
    gt_rows = [r for r in rows if r.gt_label]
    matched = [r for r in gt_rows if r.matched]
    stray_preds = sum(1 for r in rows if not r.gt_label)

    mae_report = mae([r.errors for r in matched]) if matched else None
    if matched:
        # angle_error_deg rows already hold the folded error in [0, 90]; eap
        # against zeros folds each once more, which leaves it unchanged.
        eap_mean, eap_std = eap([r.angle_error_deg for r in matched],
                                [0.0] * len(matched))
        nist_rate = nist_tolerance_check([r.errors for r in matched], tolerance)
    else:
        eap_mean = eap_std = nist_rate = None

    by_image: dict[str, tuple[list[str], list[str | None]]] = {}
    for r in gt_rows:
        gt_seq, pred_seq = by_image.setdefault(r.image, ([], []))
        gt_seq.append(r.gt_label)
        pred_seq.append(r.pred_label if r.matched else None)
    hamming, accuracy = label_accuracy(
        [g for g, _ in by_image.values()], [p for _, p in by_image.values()]
    )
    return EvaluationReport(
        n_images=n_images,
        n_gt=len(gt_rows),
        n_matched=len(matched),
        n_unmatched_gt=len(gt_rows) - len(matched),
        n_unmatched_pred=stray_preds,
        mae_report=mae_report,
        eap_mean=eap_mean,
        eap_std=eap_std,
        hamming_loss=hamming,
        label_accuracy=accuracy,
        nist_tolerance=tolerance,
        nist_pass_rate=nist_rate,
        rows=tuple(rows),
    )


def evaluate_annotations(
    gt_records: list[AnnotatedFingerphoto],
    pred_records: list[AnnotatedFingerphoto],
    tolerance: float = 64.0,
) -> EvaluationReport:
    """Evaluate predictions against ground truth across a whole dataset.

    Both record lists must cover the same image ids, each exactly once.
    Rows come out in gt file order.
    """
    pred_by_id = {r.record_id: r for r in pred_records}
    gt_ids = {r.record_id for r in gt_records}
    for kind, records, other_kind, other_ids in (
        ("ground truth", gt_records, "prediction", pred_by_id),
        ("prediction", pred_records, "ground truth", gt_ids),
    ):
        seen: set[str] = set()
        for record in records:
            if record.record_id in seen:
                raise ValueError(f"duplicate {kind} for image {record.record_id!r}")
            if record.record_id not in other_ids:
                raise ValueError(f"missing {other_kind} for image {record.record_id!r}")
            seen.add(record.record_id)

    pairs = [(g, pred_by_id[g.record_id]) for g in gt_records]
    rows = [
        row
        for (g, p), ious in zip(pairs, _image_ious(pairs))
        for row in _detail_rows(g, p, _greedy_match(ious), tolerance)
    ]
    return aggregate_rows(rows, n_images=len(gt_records), tolerance=tolerance)


def _image_ious(pairs) -> list[np.ndarray]:
    """Each (gt, pred) image's (pred x gt) IoU matrix, all from one kernel call."""
    shapes = [(len(p.fingers), len(g.fingers)) for g, p in pairs]
    offsets = np.cumsum([(0, 0)] + shapes, axis=0)  # each image's first pred and gt row
    grids = [np.indices(s).reshape(2, -1) + o[:, None] for s, o in zip(shapes, offsets)]
    ia, ib = np.hstack([np.empty((2, 0), np.intp)] + grids)
    ious = rotated_ious(box_array([f.box for _, p in pairs for f in p.fingers]),
                        box_array([f.box for g, _ in pairs for f in g.fingers]), ia, ib)
    chunks = np.split(ious, np.cumsum([n * m for n, m in shapes])[:-1])
    return [chunk.reshape(shape) for chunk, shape in zip(chunks, shapes)]


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_summary(report: EvaluationReport, path: str | Path) -> None:
    """Plain `key = value` summary, byte-stable for identical inputs."""
    lines = [
        f"images = {report.n_images}",
        f"gt_fingerprints = {report.n_gt}",
        f"matched = {report.n_matched}",
        f"unmatched_gt = {report.n_unmatched_gt}",
        f"unmatched_pred = {report.n_unmatched_pred}",
    ]
    for side in SIDES:
        m = report.mae_report
        lines.append(f"mae_{side} = {_fmt(m.mae[side] if m else None)}")
        lines.append(f"mae_{side}_std = {_fmt(m.std[side] if m else None)}")
    lines += [
        f"eap_mean_deg = {_fmt(report.eap_mean)}",
        f"eap_std_deg = {_fmt(report.eap_std)}",
        f"hamming_loss = {_fmt(report.hamming_loss)}",
        f"label_accuracy = {_fmt(report.label_accuracy)}",
        f"nist_tolerance_px = {_fmt(report.nist_tolerance)}",
        f"nist_pass_rate = {_fmt(report.nist_pass_rate)}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


DETAIL_COLUMNS = (
    "image",
    "gt_label",
    "pred_label",
    "matched",
    "iou",
    "err_left",
    "err_right",
    "err_top",
    "err_bottom",
    "angle_error_deg",
    "nist_pass",
)


def write_detail_csv(report: EvaluationReport, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DETAIL_COLUMNS)
        for r in report.rows:
            if r.errors is not None:
                errs = [repr(v) for v in r.errors.as_tuple()]
            else:
                errs = [""] * 4
            writer.writerow(
                [
                    r.image,
                    r.gt_label,
                    r.pred_label,
                    int(r.matched),
                    repr(r.iou),
                    *errs,
                    repr(r.angle_error_deg) if r.angle_error_deg is not None else "",
                    "" if r.nist_pass is None else int(r.nist_pass),
                ]
            )
