import tracemalloc

import numpy as np
import pytest

from tactwin import toyhead
from tactwin.assignment import loss_gradient, simota_assign, total_loss
from tactwin.contact import GroundTruth
from tactwin.encoding import build_region_grid
from tactwin.errors import ConfigError
from tactwin.geometry import OrientedBox
from tactwin.render import make_reference, simulate
from tactwin.suites import sample_scenario, sphere_probes
from tactwin.toyhead import (FEATURE_DIM, ToyHead, cell_features, fit_toy_head,
                             predict_sample_force)

from oracle import frozen_fit_inputs

GRID = build_region_grid(64)
SCALE = 0.5
CLASSES = ["a", "b"]


def synthetic_sample(rng, cls_index, force, repeat=False):
    """Feature matrix with a bump at one cell, class clusters on three global
    columns, and a global column tracking force; ground truth at the bump.
    With ``repeat`` all cells but the bump share one row, as on a noise-free
    image."""
    rows = 1 if repeat else GRID.n_cells
    feats = np.repeat(rng.normal(0, 0.05, size=(rows, FEATURE_DIM)),
                      GRID.n_cells // rows, axis=0)
    cell = int(rng.integers(GRID.n_cells))
    feats[cell, 0] += 2.0
    feats[:, 8] += force * 0.5
    for j in range(3):
        feats[:, 9 + j] += cls_index * 1.0 + rng.normal(0, 0.02)
    center = GRID.centers_mm(SCALE)[cell]
    gt = GroundTruth(OrientedBox(float(center[0]), float(center[1]), 4, 4, 0),
                     CLASSES[cls_index], 0.0, force)
    return feats, [gt]


def make_dataset(rng, n, repeat=False):
    feats, gts = [], []
    for _ in range(n):
        f, g = synthetic_sample(rng, int(rng.integers(2)),
                                float(rng.uniform(0.5, 3)), repeat)
        feats.append(f)
        gts.append(g)
    return feats, gts


def scene_loss_mean(head, feats, gts):
    """Mean over the scenes of their detection loss under ``head``."""
    total = 0.0
    for f, g in zip(feats, gts):
        preds = head.predict(f, GRID, SCALE)
        asn = simota_assign(preds, g, CLASSES)
        total += total_loss(preds, g, asn, CLASSES).total
    return total / len(feats)


def assert_step_is_scene_gradient_mean(feats, gts, lr=0.03):
    """One training step from a zero head equals the step along the mean of
    the per-scene loss gradients."""
    head = fit_toy_head(feats, gts, GRID, SCALE, CLASSES,
                        learning_rate=lr, epochs=0).head
    s = head._slices()
    grad_w = np.zeros_like(head.weights)
    grad_b = np.zeros_like(head.bias)
    for f, g in zip(feats, gts):
        preds = head.predict(f, GRID, SCALE)
        asn = simota_assign(preds, g, CLASSES)
        grad = loss_gradient(preds, g, asn, CLASSES)
        gz = np.zeros((GRID.n_cells, head.bias.shape[0]))
        gz[:, s["obj"]] = (grad.obj * preds.obj * (1 - preds.obj))[:, None]
        gz[:, s["cls"]] = grad.cls * preds.cls * (1 - preds.cls)
        gz[:, s["csl"]] = grad.csl * preds.csl * (1 - preds.csl)
        gz[:, s["force"]] = grad.force[:, None]
        gz[:, s["box"]] = grad.box_raw
        grad_w += head.standardize(f).T @ gz
        grad_b += gz.sum(axis=0)
    res = fit_toy_head(feats, gts, GRID, SCALE, CLASSES,
                       learning_rate=lr, epochs=1)
    assert np.abs(grad_w[:, s["box"]]).max() > 0
    np.testing.assert_allclose(res.head.weights, -lr * grad_w / len(feats),
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(res.head.bias, -lr * grad_b / len(feats),
                               rtol=1e-9, atol=1e-12)


class TestFit:
    def test_zero_learning_rate_flat_curve(self, rng):
        feats, gts = make_dataset(rng, 6)
        res = fit_toy_head(feats, gts, GRID, SCALE, CLASSES,
                           learning_rate=0.0, epochs=5)
        assert len(set(res.losses)) == 1
        assert not res.diverged

    def test_separable_classes_converge(self, rng):
        feats, gts = make_dataset(rng, 40)
        res = fit_toy_head(feats, gts, GRID, SCALE, CLASSES,
                           learning_rate=0.3, epochs=1000)
        assert not res.diverged
        cls_losses = []
        for f, g in zip(feats, gts):
            preds = res.head.predict(f, GRID, SCALE)
            asn = simota_assign(preds, g, CLASSES)
            cls_losses.append(total_loss(preds, g, asn, CLASSES).cls)
        assert np.mean(cls_losses) < 0.01

    def test_monotone_descent_on_smooth_objective(self, rng):
        # scenes without ground truths leave only the objectness BCE, a
        # smooth convex objective where small-step descent must be monotone
        feats = [rng.normal(0, 1.0, size=(GRID.n_cells, FEATURE_DIM))
                 for _ in range(8)]
        gts = [[] for _ in feats]
        res = fit_toy_head(feats, gts, GRID, SCALE, CLASSES,
                           learning_rate=0.01, epochs=150)
        assert all(b <= a for a, b in zip(res.losses, res.losses[1:]))
        assert res.losses[-1] < 0.05 * res.losses[0]

    def test_epoch_loss_equals_scene_loss_sum(self, rng):
        # the vectorized trainer must reproduce the per-scene loss exactly
        feats, gts = make_dataset(rng, 5)
        res = fit_toy_head(feats, gts, GRID, SCALE, CLASSES,
                           learning_rate=0.0, epochs=1)
        assert res.losses[0] == pytest.approx(scene_loss_mean(res.head, feats, gts),
                                              rel=1e-12)

    def test_epoch_step_equals_scene_gradient_sum(self, rng):
        # one step from a zero head moves weights and bias by the per-scene
        # loss gradients, chained through the sigmoids and the whitened
        # features and averaged over the samples
        feats, gts = make_dataset(rng, 5)
        assert_step_is_scene_gradient_mean(feats, gts)

    def test_repeated_rows_merge_exactly(self, rng, monkeypatch):
        # cells that share a feature row and an objectness target are scored
        # once, weighted by their count, with the per-scene loss and step
        feats, gts = make_dataset(rng, 5, repeat=True)
        merged, merge = [], toyhead._distinct_rows

        def distinct_rows(x, t):
            rows = merge(x, t)
            merged.append(len(rows[0]))
            return rows

        monkeypatch.setattr(toyhead, "_distinct_rows", distinct_rows)
        res = fit_toy_head(feats, gts, GRID, SCALE, CLASSES,
                           learning_rate=0.0, epochs=1)
        assert len(merged) == len(feats)
        assert sum(merged) < len(feats) * GRID.n_cells
        assert res.losses[0] == pytest.approx(scene_loss_mean(res.head, feats, gts),
                                              rel=1e-12)
        assert_step_is_scene_gradient_mean(feats, gts)

    def test_divergence_detected_and_reported(self, rng):
        feats, gts = make_dataset(rng, 6)
        with np.errstate(over="ignore"):
            res = fit_toy_head(feats, gts, GRID, SCALE, CLASSES,
                               learning_rate=500.0, epochs=200)
        assert res.diverged
        assert len(res.losses) < 200  # stopped early, state still returned

    def test_non_finite_loss_stops_training(self, rng):
        # NaN compares false with any loss, so only the finiteness rule sees
        # a loss that turned NaN; the run stops at the first such epoch.
        feats, gts = make_dataset(rng, 6)
        with np.errstate(all="ignore"):
            res = fit_toy_head(feats, gts, GRID, SCALE, CLASSES,
                               learning_rate=1e308, epochs=12)
        assert res.diverged == "non-finite loss"
        assert np.isfinite(res.losses[:-1]).all() and not np.isfinite(res.losses[-1])

    def test_features_that_never_vary_rejected(self):
        feats = [np.ones((GRID.n_cells, FEATURE_DIM)) for _ in range(3)]
        gts = [[] for _ in feats]
        with pytest.raises(ConfigError, match="never vary"):
            fit_toy_head(feats, gts, GRID, SCALE, CLASSES, epochs=2)


class TestSerialization:
    def test_round_trip_exact(self, rng, tmp_path):
        feats, gts = make_dataset(rng, 6)
        res = fit_toy_head(feats, gts, GRID, SCALE, CLASSES,
                           learning_rate=0.02, epochs=20)
        res.head.save(tmp_path / "head.json")
        loaded = ToyHead.load(tmp_path / "head.json")
        assert np.array_equal(loaded.weights, res.head.weights)
        assert np.array_equal(loaded.bias, res.head.bias)
        assert np.array_equal(loaded.feature_transform,
                              res.head.feature_transform)
        assert loaded.classes == res.head.classes

    def test_resume_reproduces_losses(self, rng, tmp_path):
        feats, gts = make_dataset(rng, 6)
        first = fit_toy_head(feats, gts, GRID, SCALE, CLASSES,
                             learning_rate=0.02, epochs=10)
        first.head.save(tmp_path / "head.json")
        resumed_a = fit_toy_head(feats, gts, GRID, SCALE, CLASSES,
                                 learning_rate=0.02, epochs=5,
                                 init_head=ToyHead.load(tmp_path / "head.json"))
        resumed_b = fit_toy_head(feats, gts, GRID, SCALE, CLASSES,
                                 learning_rate=0.02, epochs=5,
                                 init_head=ToyHead.load(tmp_path / "head.json"))
        assert resumed_a.losses == resumed_b.losses

    def test_predict_force_readout(self, rng):
        feats, gts = make_dataset(rng, 20)
        res = fit_toy_head(feats, gts, GRID, SCALE, CLASSES,
                           learning_rate=0.02, epochs=500)
        errs = [abs(predict_sample_force(res.head, f, GRID, SCALE)
                    - g[0].force_n)
                for f, g in zip(feats, gts)]
        assert np.mean(errs) < 0.15


class TestFeatures:
    def test_deterministic_and_shaped(self, small_sensor, material, illum):
        from tactwin.contact import ContactScenario, SphereProbe
        from tactwin.render import make_reference, simulate

        grid = build_region_grid(small_sensor.input_size)
        ref = make_reference(small_sensor, illum)
        sc = ContactScenario(SphereProbe(15), 1, -2, 0, 2.0)
        img, _ = simulate(sc, material, illum, small_sensor)
        f1 = cell_features(img, ref, grid)
        f2 = cell_features(img, ref, grid)
        assert f1.shape == (grid.n_cells, FEATURE_DIM)
        assert np.array_equal(f1, f2)
        assert np.all(np.isfinite(f1))


def sphere_set(noise_sigma, count, material, illum, sensor):
    """Cell features and ground truths of ``count`` sphere images, drawn as
    criterion 11 draws them."""
    grid = build_region_grid(sensor.input_size)
    reference = make_reference(sensor, illum)
    rng = np.random.default_rng(29)
    feats, gts = [], []
    for i in range(count):
        sc = sample_scenario(rng, sphere_probes(), sensor, material.e_star,
                             force_range=(0.2, 3.0), noise_sigma=noise_sigma)
        img, gt = simulate(sc, material, illum, sensor, seed=i)
        feats.append(cell_features(img, reference, grid))
        gts.append([gt])
    return feats, gts, grid


class TestFitInputs:
    @pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resumed"])
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_matches_one_batch_setup(self, noise, resume, material, illum,
                                     small_sensor):
        # Each sample standardized on its own gives the rows, targets, counts
        # and positives of the whole set standardized as one matrix. A resumed
        # head's nonzero weights reach the initial predictions.
        feats, gts, grid = sphere_set(noise, 24, material, illum, small_sensor)
        args = (feats, gts, grid, small_sensor.scale_mm_per_px, ["sphere"])
        init = (fit_toy_head(*args, learning_rate=0.02, epochs=5).head
                if resume else None)
        got = toyhead._fit_inputs(*args, init)
        want = frozen_fit_inputs(*args, init)
        if resume:
            assert np.abs(init.weights).max() > 0
        for name in ("feature_mean", "feature_transform", "weights", "bias"):
            assert getattr(got[0], name).tobytes() == getattr(want[0], name).tobytes()
        for a, b in zip(got[1:5], want[1:5]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        for a, b in zip(got[5], want[5]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_setup_holds_under_two_feature_matrices(self, material, illum,
                                                    small_sensor):
        # One concatenated copy, centred in place and freed before the
        # samples are standardized one by one; the one-batch set-up held a
        # centred copy and the whole standardized matrix beside it (2.9).
        feats, gts, grid = sphere_set(0.0, 60, material, illum, small_sensor)
        matrix = sum(f.nbytes for f in feats)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit_toy_head(feats, gts, grid, small_sensor.scale_mm_per_px,
                         ["sphere"], epochs=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * matrix, peak / matrix
