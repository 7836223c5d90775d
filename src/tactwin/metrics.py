"""Detection evaluation: matching, MAE metrics, PR/AP, confusion, reports.

Matching is greedy in descending score; a detection takes the highest-IoU
still-unmatched ground truth at or above the IoU threshold. Average precision
uses all-point interpolation of the precision envelope. Undefined metrics
(empty denominators) are reported as None, never silently as 0 or 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
# rotated_iou is not called here but stays importable from this module:
# perfbench/tests/test_perfbench_tracing.py asserts that the benchmark's
# tracer rebinds metrics.rotated_iou.
from .geometry import angle_error, rotated_iou, rotated_iou_pairs  # noqa: F401

REPORT_SCHEMA_VERSION = 1
MISSED_LABEL = "missed"


@dataclass(frozen=True)
class MatchResult:
    """Per-sample geometric matching between detections and ground truths."""

    pairs: list                  # (det_index, gt_index, iou)
    unmatched_dets: list         # false positives
    unmatched_gts: list          # false negatives


def _iou_matrices(samples) -> list:
    """Each sample's (detections, ground truths) IoU matrix, all from one
    flattened ``rotated_iou_pairs`` call."""
    subjects, clips, shapes = [np.zeros((0, 5))], [np.zeros((0, 5))], []
    for dets, gts in samples:
        d = np.array([det.box.as_array() for det in dets]).reshape(-1, 5)
        g = np.array([gt.box.as_array() for gt in gts]).reshape(-1, 5)
        subjects.append(np.repeat(d, len(g), axis=0))
        clips.append(np.tile(g, (len(d), 1)))
        shapes.append((len(d), len(g)))
    flat = rotated_iou_pairs(np.concatenate(subjects), np.concatenate(clips))
    ends = np.cumsum([nd * ng for nd, ng in shapes], dtype=int)
    return [chunk.reshape(shape) for chunk, shape in zip(np.split(flat, ends[:-1]), shapes)]


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"IoU threshold must be in (0, 1], got {threshold}")


def _greedy(iou: np.ndarray, scores, threshold: float) -> list:
    """Greedy matching on a (detections, ground truths) IoU matrix.

    Detections go in order of (-score, index); each takes the free ground
    truth of highest IoU at or above the threshold, the lowest index on ties.
    Returns the (det_index, gt_index, iou) pairs in matching order.
    """
    free = np.where(iou >= threshold, iou, -1.0)
    pairs = []
    if free.size:
        for di in sorted(range(len(scores)), key=lambda i: (-scores[i], i)):
            gi = int(np.argmax(free[di]))
            if free[di, gi] >= threshold:
                pairs.append((di, gi, float(free[di, gi])))
                free[:, gi] = -1.0
    return pairs


def _matched_pairs(samples, matrices, threshold: float) -> list:
    """Each sample's greedy pairs, given its IoU matrix (see ``_greedy``)."""
    _check_threshold(threshold)     # also when there are no samples
    return [_greedy(iou, [d.score for d in dets], threshold)
            for (dets, _), iou in zip(samples, matrices)]


def _match_result(pairs, n_dets: int, n_gts: int) -> MatchResult:
    dets, gts = {p[0] for p in pairs}, {p[1] for p in pairs}
    return MatchResult(pairs, [i for i in range(n_dets) if i not in dets],
                       [i for i in range(n_gts) if i not in gts])


def match_detections(dets, gts, iou_threshold: float = 0.5) -> MatchResult:
    """Greedy class-agnostic matching by descending detection score."""
    samples = [(dets, gts)]
    (pairs,) = _matched_pairs(samples, _iou_matrices(samples), iou_threshold)
    return _match_result(pairs, len(dets), len(gts))


def mae(pred_values, gt_values, kind: str = "force"):
    """Mean absolute error over matched pairs; None when the set is empty.

    kind selects the metric: "force" (|difference| in N), "location"
    (euclidean mm over (x, y) pairs), or "angle" (rotation-matrix angle error
    in degrees, folding the 180-degree ambiguity).
    """
    pred_values = list(pred_values)
    gt_values = list(gt_values)
    if len(pred_values) != len(gt_values):
        raise ValueError("prediction and ground-truth value counts differ")
    if not pred_values:
        return None
    if kind == "force":
        errs = [abs(p - g) for p, g in zip(pred_values, gt_values)]
    elif kind == "location":
        errs = [math.hypot(p[0] - g[0], p[1] - g[1])
                for p, g in zip(pred_values, gt_values)]
    elif kind == "angle":
        errs = [angle_error(p, g) for p, g in zip(pred_values, gt_values)]
    else:
        raise ValueError(f"unknown MAE kind {kind!r}")
    return float(np.mean(errs))


@dataclass(frozen=True)
class PRResult:
    precision: float | None
    recall: float | None
    ap: float | None
    f1: float | None
    n_gt: int
    n_det: int
    tp: int
    pr_points: tuple = ()        # (recall, precision) per ranked detection


def _pr_result(samples, pairs) -> PRResult:
    """PR/AP of samples, given each sample's greedy pairs.

    Samples share no ground truths, so each is matched on its own; ranking
    every detection globally by score only orders the stream of true and
    false positives.
    """
    n_gt = sum(len(gts) for _, gts in samples)
    matched = [{di for di, _, _ in sample_pairs} for sample_pairs in pairs]
    ranked = sorted((-det.score, si, di) for si, (dets, _) in enumerate(samples)
                    for di, det in enumerate(dets))
    tp_stream = np.array([di in matched[si] for _, si, di in ranked], dtype=int)
    n_det = len(ranked)
    tp = int(tp_stream.sum())
    precision = tp / n_det if n_det else None
    recall = tp / n_gt if n_gt else None
    f1 = None
    if precision is not None and recall is not None:
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    ap, points = (0.0 if n_gt else None), ()
    if n_gt and n_det:
        tp_cum = np.cumsum(tp_stream)
        fp_cum = np.cumsum(1 - tp_stream)
        rec = tp_cum / n_gt
        prec = tp_cum / np.maximum(tp_cum + fp_cum, 1)
        points = tuple(zip(rec.tolist(), prec.tolist()))
        mrec = np.concatenate([[0.0], rec, rec[-1:]])
        mpre = np.maximum.accumulate(np.concatenate([[1.0], prec, [0.0]])[::-1])[::-1]
        idx = np.nonzero(mrec[1:] != mrec[:-1])[0]
        ap = float(np.sum((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]))
    return PRResult(precision, recall, ap, f1, n_gt, n_det, tp, points)


def precision_recall_ap(samples, iou_threshold: float = 0.5) -> PRResult:
    """Evaluate a scored detection set over many samples.

    samples: list of (detections, ground_truths) pairs; detections and ground
    truths here are assumed pre-filtered to one class (or pooled for a
    class-agnostic summary). Detections are ranked globally by score;
    each matches the highest-IoU free ground truth of its own sample.
    """
    return _pr_result(samples, _matched_pairs(samples, _iou_matrices(samples),
                                              iou_threshold))


@dataclass
class ConfusionMatrix:
    """Rows: ground-truth class; columns: detected class plus a missed column."""

    labels: list
    matrix: np.ndarray           # (K, K + 1) counts

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels) + [MISSED_LABEL],
            "rows": {lbl: [int(v) for v in row]
                     for lbl, row in zip(self.labels, self.matrix)},
        }


def confusion_matrix(per_sample_matches, classes) -> ConfusionMatrix:
    """Counts over class-agnostic matched pairs plus per-class misses.

    per_sample_matches: list of (dets, gts, MatchResult).
    """
    classes = list(classes)
    index = {c: i for i, c in enumerate(classes)}
    mat = np.zeros((len(classes), len(classes) + 1), dtype=int)
    for dets, gts, match in per_sample_matches:
        for di, gi, _ in match.pairs:
            g = index[gts[gi].class_name]
            d = index.get(dets[di].class_name)
            if d is None:
                continue
            mat[g, d] += 1
        for gi in match.unmatched_gts:
            mat[index[gts[gi].class_name], -1] += 1
    return ConfusionMatrix(classes, mat)


@dataclass
class MetricsReport:
    iou_threshold: float
    classes: list
    overall: dict
    per_class: dict
    confusion: ConfusionMatrix

    def to_json(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "iou_threshold": self.iou_threshold,
            "classes": list(self.classes),
            "overall": self.overall,
            "per_class": self.per_class,
            "confusion": self.confusion.to_json(),
        }


_ROW_FIELDS = (
    ("n_gt", "gt", "{:d}"),
    ("n_det", "det", "{:d}"),
    ("tp", "tp", "{:d}"),
    ("precision", "prec", "{:.4f}"),
    ("recall", "recall", "{:.4f}"),
    ("ap_at_iou", "ap@50", "{:.4f}"),
    ("f1_at_iou", "f1@50", "{:.4f}"),
    ("force_mae_n", "maeF(N)", "{:.4f}"),
    ("angle_mae_deg", "maeAng(deg)", "{:.4f}"),
    ("location_mae_mm", "maeLoc(mm)", "{:.4f}"),
)


def evaluate_detections(per_sample, classes, iou_threshold: float = 0.5,
                        angle_classes=None) -> MetricsReport:
    """Aggregate a split: per_sample is a list of (detections, ground_truths).

    angle_classes optionally restricts the angle MAE to classes whose pose is
    observable (anisotropic footprints); None means all matched pairs count.
    """
    classes = sorted(classes)
    matrices = _iou_matrices(per_sample)
    pairs = _matched_pairs(per_sample, matrices, iou_threshold)
    matches = [(dets, gts, _match_result(p, len(dets), len(gts)))
               for (dets, gts), p in zip(per_sample, pairs)]

    def row(cls, pr: PRResult) -> dict:
        """The report row of one class (None: all) from its PR result."""
        force_p, force_g, loc_p, loc_g, ang_p, ang_g = [], [], [], [], [], []
        for dets, gts, match in matches:
            for di, gi, _ in match.pairs:
                gt = gts[gi]
                if cls is not None and gt.class_name != cls:
                    continue
                det = dets[di]
                force_p.append(det.force_n)
                force_g.append(gt.force_n)
                loc_p.append((det.box.cx, det.box.cy))
                loc_g.append((gt.box.cx, gt.box.cy))
                if angle_classes is None or gt.class_name in angle_classes:
                    ang_p.append(det.theta_deg)
                    ang_g.append(gt.theta_deg)
        return {
            "force_mae_n": mae(force_p, force_g, "force"),
            "location_mae_mm": mae(loc_p, loc_g, "location"),
            "angle_mae_deg": mae(ang_p, ang_g, "angle"),
            "n_gt": pr.n_gt, "n_det": pr.n_det, "tp": pr.tp,
            "precision": pr.precision, "recall": pr.recall,
            "ap_at_iou": pr.ap, "f1_at_iou": pr.f1,
            "pr_points": [[r, p] for r, p in pr.pr_points],
        }

    def pr_for(cls):
        samples, sliced = [], []
        for (dets, gts), iou in zip(per_sample, matrices):
            keep_d = [i for i, d in enumerate(dets) if d.class_name == cls]
            keep_g = [i for i, g in enumerate(gts) if g.class_name == cls]
            samples.append(([dets[i] for i in keep_d], [gts[i] for i in keep_g]))
            sliced.append(iou[np.ix_(keep_d, keep_g)])
        return _pr_result(samples, _matched_pairs(samples, sliced, iou_threshold))

    per_class = {cls: row(cls, pr_for(cls)) for cls in classes}
    overall = row(None, _pr_result(per_sample, pairs))
    aps = [v["ap_at_iou"] for v in per_class.values() if v["ap_at_iou"] is not None]
    overall["ap_at_iou"] = float(np.mean(aps)) if aps else None
    confusion = confusion_matrix(matches, classes)
    return MetricsReport(iou_threshold, classes, overall, per_class, confusion)


def format_report_table(report: MetricsReport) -> str:
    """Fixed-width text summary, stable for diffing."""
    headers = ["class"] + [h for _, h, _ in _ROW_FIELDS]
    widths = [12] + [11] * len(_ROW_FIELDS)

    def fmt_row(name, row):
        cells = [name.ljust(widths[0])]
        for (key, _, spec), w in zip(_ROW_FIELDS, widths[1:]):
            val = row.get(key)
            cells.append(("n/a" if val is None else spec.format(val)).rjust(w))
        return " ".join(cells)

    lines = [" ".join(h.ljust(w) if i == 0 else h.rjust(w)
                      for i, (h, w) in enumerate(zip(headers, widths)))]
    lines.append("-" * len(lines[0]))
    for cls in report.classes:
        lines.append(fmt_row(cls, report.per_class[cls]))
    lines.append("-" * len(lines[0]))
    lines.append(fmt_row("overall", report.overall))
    lines.append("")
    lines.append("confusion (rows: ground truth, cols: detected + missed)")
    labels = list(report.confusion.labels) + [MISSED_LABEL]
    head = "".ljust(12) + " ".join(l.rjust(9) for l in labels)
    lines.append(head)
    for lbl, row in zip(report.confusion.labels, report.confusion.matrix):
        lines.append(lbl.ljust(12) + " ".join(str(int(v)).rjust(9) for v in row))
    return "\n".join(lines) + "\n"


def write_report(report: MetricsReport, base_path) -> tuple:
    """Write <base>.json and <base>.txt with deterministic content."""
    base = Path(base_path)
    json_path = base.with_suffix(".json")
    txt_path = base.with_suffix(".txt")
    try:
        with open(json_path, "w") as fh:
            json.dump(report.to_json(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        with open(txt_path, "w") as fh:
            fh.write(format_report_table(report))
    except OSError as exc:
        raise IOError(f"cannot write report to {base}: {exc}") from exc
    return json_path, txt_path
