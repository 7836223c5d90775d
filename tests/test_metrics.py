import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tactwin import metrics
from tactwin.contact import GroundTruth
from tactwin.decoder import Detection
from tactwin.geometry import OrientedBox, rotated_iou_pairs
from tactwin.metrics import (MatchResult, PRResult, confusion_matrix,
                             evaluate_detections, format_report_table, mae,
                             match_detections, precision_recall_ap, write_report)


def det(cx, cy, w=4, h=4, theta=0.0, cls="a", force=1.0, score=0.9):
    return Detection(OrientedBox(cx, cy, w, h, theta), cls, theta, force, score)


def gt(cx, cy, w=4, h=4, theta=0.0, cls="a", force=1.0):
    return GroundTruth(OrientedBox(cx, cy, w, h, theta), cls, theta, force)


class TestMatching:
    def test_exact_match(self):
        dets = [det(0, 0), det(10, 10)]
        gts = [gt(0, 0), gt(10, 10)]
        res = match_detections(dets, gts)
        assert len(res.pairs) == 2
        assert res.unmatched_dets == [] and res.unmatched_gts == []

    def test_detection_without_gt_is_fp(self):
        res = match_detections([det(0, 0)], [])
        assert res.unmatched_dets == [0] and res.pairs == []

    def test_two_dets_one_gt_higher_score_wins(self):
        dets = [det(0.2, 0, score=0.5), det(0, 0, score=0.8)]
        res = match_detections(dets, [gt(0, 0)])
        assert res.pairs[0][0] == 1  # the higher-score detection matched
        assert res.unmatched_dets == [0]

    def test_iou_threshold_respected(self):
        res = match_detections([det(3.9, 0)], [gt(0, 0)])  # IoU well below 0.5
        assert res.pairs == [] and res.unmatched_gts == [0]

    def test_score_tie_breaks_by_index(self):
        dets = [det(0, 0, score=0.7), det(0.1, 0, score=0.7)]
        res = match_detections(dets, [gt(0, 0)])
        assert res.pairs[0][0] == 0


class TestMae:
    def test_force_arithmetic(self):
        assert mae([1.0, 2.0], [1.5, 2.5], "force") == pytest.approx(0.5)

    def test_angle_pairs(self):
        assert mae([1.0, 90.0], [179.0, 90.0], "angle") == pytest.approx(1.0)

    def test_location_euclidean(self):
        assert mae([(0, 0), (3, 4)], [(0, 1), (0, 0)], "location") == pytest.approx(3.0)

    def test_empty_is_undefined_marker(self):
        assert mae([], [], "force") is None

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            mae([1.0], [], "force")

    def test_agrees_with_direct_loop(self, rng):
        preds = rng.uniform(0, 10, 50)
        gts_v = rng.uniform(0, 10, 50)
        direct = sum(abs(p - g) for p, g in zip(preds, gts_v)) / 50
        assert mae(preds, gts_v, "force") == pytest.approx(direct, rel=1e-12)


class TestPrecisionRecallAp:
    def test_perfect_set(self):
        samples = [([det(0, 0)], [gt(0, 0)]), ([det(5, 5)], [gt(5, 5)])]
        pr = precision_recall_ap(samples)
        assert (pr.precision, pr.recall, pr.ap, pr.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_hand_computed_ap(self):
        # ranked outcomes [TP, FP, TP] with two ground truths:
        # AP = 0.5 * 1 + 0.5 * (2/3)
        samples = [(
            [det(0, 0, score=0.9), det(30, 30, score=0.8), det(10, 10, score=0.7)],
            [gt(0, 0), gt(10, 10)],
        )]
        pr = precision_recall_ap(samples)
        assert pr.precision == pytest.approx(2 / 3)
        assert pr.recall == pytest.approx(1.0)
        assert pr.ap == pytest.approx(0.5 + 0.5 * 2 / 3, abs=1e-12)
        assert pr.pr_points == ((0.5, 1.0), (0.5, 0.5), (1.0, 2 / 3))

    def test_pr_points_in_report(self):
        samples = [([det(0, 0, cls="a")], [gt(0, 0, cls="a")])]
        report = evaluate_detections(samples, ["a"])
        assert report.per_class["a"]["pr_points"] == [[1.0, 1.0]]
        assert report.overall["pr_points"] == [[1.0, 1.0]]

    def test_paper_f1_arithmetic(self):
        # harmonic mean of the reported screwdriver precision/recall
        p, r = 0.9286, 0.8966
        f1 = 2 * p * r / (p + r)
        assert f1 == pytest.approx(0.9123, abs=5e-5)

    def test_zero_gts_undefined_recall(self):
        pr = precision_recall_ap([([det(0, 0)], [])])
        assert pr.recall is None and pr.ap is None
        assert pr.precision == 0.0

    def test_no_detections(self):
        pr = precision_recall_ap([([], [gt(0, 0)])])
        assert pr.precision is None and pr.recall == 0.0 and pr.ap == 0.0

    def test_ap_is_one_iff_all_gts_before_any_fp(self):
        good = [([det(0, 0, score=0.9), det(30, 30, score=0.1)], [gt(0, 0)])]
        assert precision_recall_ap(good).ap == 1.0
        bad = [([det(30, 30, score=0.9), det(0, 0, score=0.1)], [gt(0, 0)])]
        assert precision_recall_ap(bad).ap < 1.0


class TestConfusion:
    def test_all_correct_diagonal(self):
        samples = [([det(0, 0, cls="x")], [gt(0, 0, cls="x")]),
                   ([det(0, 0, cls="y")], [gt(0, 0, cls="y")])]
        matches = [(d, g, match_detections(d, g)) for d, g in samples]
        cm = confusion_matrix(matches, ["x", "y"])
        assert np.array_equal(cm.matrix, [[1, 0, 0], [0, 1, 0]])

    def test_cross_class_and_missed(self):
        samples = [([det(0, 0, cls="body")], [gt(0, 0, cls="head")]),
                   ([], [gt(0, 0, cls="head")])]
        matches = [(d, g, match_detections(d, g)) for d, g in samples]
        cm = confusion_matrix(matches, ["body", "head"])
        head = cm.labels.index("head")
        body = cm.labels.index("body")
        assert cm.matrix[head, body] == 1
        assert cm.matrix[head, -1] == 1


class TestReport:
    def sample_report(self):
        samples = [
            ([det(0, 0, cls="a", force=1.2)], [gt(0, 0, cls="a", force=1.0)]),
            ([det(8, 8, cls="b", force=2.0, score=0.8)],
             [gt(8, 8, cls="b", force=2.5)]),
            ([], [gt(-8, -8, cls="a")]),
        ]
        return evaluate_detections(samples, ["a", "b"])

    def test_round_trip(self, tmp_path):
        report = self.sample_report()
        json_path, txt_path = write_report(report, tmp_path / "report")
        with open(json_path) as fh:
            loaded = json.load(fh)
        assert loaded == json.loads(json.dumps(report.to_json()))
        assert txt_path.read_text() == format_report_table(report)

    def test_all_classes_present_even_when_empty(self):
        samples = [([det(0, 0, cls="a")], [gt(0, 0, cls="a")])]
        report = evaluate_detections(samples, ["a", "b", "c"])
        assert set(report.per_class) == {"a", "b", "c"}
        assert report.per_class["c"]["force_mae_n"] is None

    def test_units_in_schema(self):
        report = self.sample_report()
        assert "angle_mae_deg" in report.overall
        assert "force_mae_n" in report.overall
        assert "location_mae_mm" in report.overall
        table = format_report_table(report)
        assert "maeAng(deg)" in table

    def test_sample_order_invariance(self):
        samples = [
            ([det(0, 0, cls="a", force=1.2)], [gt(0, 0, cls="a")]),
            ([det(8, 8, cls="b", score=0.8)], [gt(8, 8, cls="b")]),
            ([det(30, 30, cls="a", score=0.4)], [gt(-8, -8, cls="a")]),
        ]
        r1 = evaluate_detections(samples, ["a", "b"])
        r2 = evaluate_detections(samples[::-1], ["a", "b"])
        assert r1.to_json() == r2.to_json()

    def test_undefined_never_fabricates_scores(self):
        report = evaluate_detections([([], [])], ["a"])
        row = report.per_class["a"]
        assert row["precision"] is None and row["recall"] is None
        assert row["ap_at_iou"] is None


def pair_iou(a: OrientedBox, b: OrientedBox) -> float:
    """One detection-ground truth IoU, in the order the matcher computes it."""
    return float(rotated_iou_pairs(a.as_array(), b.as_array())[0])


def frozen_match(dets, gts, iou_threshold):
    """Frozen copy of the greedy loop ``match_detections`` ran per pair
    before it matched on an IoU matrix."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = set()
    pairs = []
    for di in order:
        best_iou, best_gi = 0.0, None
        for gi, g in enumerate(gts):
            if gi in taken:
                continue
            iou = pair_iou(dets[di].box, g.box)
            if iou >= iou_threshold and iou > best_iou:
                best_iou, best_gi = iou, gi
        if best_gi is not None:
            taken.add(best_gi)
            pairs.append((di, best_gi, best_iou))
    matched_dets = {p[0] for p in pairs}
    return MatchResult(pairs, [i for i in range(len(dets)) if i not in matched_dets],
                       [i for i in range(len(gts)) if i not in taken])


def frozen_pr(samples, iou_threshold):
    """Frozen copy of ``precision_recall_ap``'s global-ranking loop, with its
    interpolated AP and PR points computed apart."""
    n_gt = sum(len(gts) for _, gts in samples)
    ranked = sorted((-d.score, si, di) for si, (dets, _) in enumerate(samples)
                    for di, d in enumerate(dets))
    used = [set() for _ in samples]
    tp_stream = np.zeros(len(ranked), dtype=int)
    for k, (_, si, di) in enumerate(ranked):
        best_iou, best_gi = 0.0, None
        for gi, g in enumerate(samples[si][1]):
            if gi in used[si]:
                continue
            iou = pair_iou(samples[si][0][di].box, g.box)
            if iou >= iou_threshold and iou > best_iou:
                best_iou, best_gi = iou, gi
        if best_gi is not None:
            used[si].add(best_gi)
            tp_stream[k] = 1
    n_det, tp = len(ranked), int(tp_stream.sum())
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
        mrec = np.concatenate([[0.0], rec, [rec[-1]]])
        mpre = np.concatenate([[1.0], prec, [0.0]])
        for i in range(mpre.size - 2, -1, -1):
            mpre[i] = max(mpre[i], mpre[i + 1])
        idx = np.nonzero(mrec[1:] != mrec[:-1])[0]
        ap = float(np.sum((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]))
        tp_cum = np.cumsum(tp_stream)
        fp_cum = np.cumsum(1 - tp_stream)
        points = tuple(zip((tp_cum / n_gt).tolist(),
                           (tp_cum / np.maximum(tp_cum + fp_cum, 1)).tolist()))
    return PRResult(precision, recall, ap, f1, n_gt, n_det, tp, points)


# Boxes on a coarse lattice and three score levels, so that tied scores,
# tied IoUs and ground truths contested by several detections are common.
lattice_box = st.builds(OrientedBox, st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                        st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([1.0, 2.0, 3.0]),
                        st.sampled_from([1.0, 2.0]), st.sampled_from([0.0, 45.0, 90.0]))
lattice_det = st.builds(lambda box, cls, score: Detection(box, cls, box.theta_deg, 1.0, score),
                        lattice_box, st.sampled_from("ab"), st.sampled_from([0.2, 0.5, 0.9]))
lattice_gt = st.builds(lambda box, cls: GroundTruth(box, cls, box.theta_deg, 1.0),
                       lattice_box, st.sampled_from("ab"))
lattice_samples = st.lists(st.tuples(st.lists(lattice_det, max_size=6),
                                     st.lists(lattice_gt, max_size=4)), max_size=4)


def only(samples, cls):
    return [([d for d in dets if d.class_name == cls], [g for g in gts if g.class_name == cls])
            for dets, gts in samples]


def pr_row(pr: PRResult) -> dict:
    return {"n_gt": pr.n_gt, "n_det": pr.n_det, "tp": pr.tp, "precision": pr.precision,
            "recall": pr.recall, "f1_at_iou": pr.f1,
            "pr_points": [[r, p] for r, p in pr.pr_points]}


class TestOneGreedy:
    @given(lattice_samples, st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_matches_frozen_loops(self, samples, threshold):
        for dets, gts in samples:
            assert match_detections(dets, gts, threshold) == frozen_match(dets, gts, threshold)
        assert precision_recall_ap(samples, threshold) == frozen_pr(samples, threshold)
        report = evaluate_detections(samples, ["a", "b"], threshold)
        for cls in "ab":
            want = frozen_pr(only(samples, cls), threshold)
            row = report.per_class[cls]
            assert {k: row[k] for k in pr_row(want)} == pr_row(want)
            assert row["ap_at_iou"] == want.ap
        want = frozen_pr(samples, threshold)
        assert {k: report.overall[k] for k in pr_row(want)} == pr_row(want)

    def test_evaluate_makes_one_iou_call(self, monkeypatch):
        calls = []

        def spy(boxes_a, boxes_b):
            calls.append(len(boxes_a))
            return rotated_iou_pairs(boxes_a, boxes_b)

        monkeypatch.setattr(metrics, "rotated_iou_pairs", spy)
        samples = [([det(0, 0, cls="a"), det(0.5, 0, cls="b", score=0.4)],
                    [gt(0, 0, cls="a"), gt(0.4, 0, cls="b")]),
                   ([], [gt(5, 5, cls="b")]),
                   ([det(9, 9, cls="a")], [gt(9, 9, cls="a"), gt(9.5, 9, cls="a"),
                                           gt(-9, 9, cls="b")])]
        report = evaluate_detections(samples, ["a", "b"])
        assert calls == [2 * 2 + 0 + 1 * 3]
        assert report.overall["tp"] == 3

    @pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0, 1.5])
    def test_threshold_outside_unit_interval(self, threshold):
        samples = [([det(0, 0)], [gt(0, 0)]), ([], [])]
        with pytest.raises(ValueError):
            match_detections(*samples[0], threshold)
        with pytest.raises(ValueError):
            match_detections([], [], threshold)
        with pytest.raises(ValueError):
            precision_recall_ap(samples, threshold)
        with pytest.raises(ValueError):
            evaluate_detections(samples, ["a"], threshold)
        with pytest.raises(ValueError):
            evaluate_detections([], ["a"], threshold)
        with pytest.raises(ValueError):
            precision_recall_ap([], threshold)

    def test_threshold_one_matches_identical_boxes(self):
        res = match_detections([det(0, 0), det(0.5, 0)], [gt(0, 0)], 1.0)
        assert res.pairs == [(0, 0, 1.0)] and res.unmatched_dets == [1]
