import importlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from tactwin import contact, runner
from tactwin.contact import ContactScenario, FootprintProbe, SphereProbe
from tactwin.decoder import (_COLUMNS, DecodeConfig, TactileDecoder,
                             _calibration_blobs, _sweep_curve,
                             build_calibration, build_decoder, classify,
                             difference_image, estimate_force, estimate_pose,
                             extract_blobs, monotone_cubic, params_hash)
from tactwin.errors import (CalibrationError, ConfigError,
                            StaleCalibrationError)
from tactwin.frames import SensorConfig
from tactwin.metrics import evaluate_detections
from tactwin.render import TactileImage, make_reference, simulate
from tactwin.suites import (STENCIL_SCALE_MM, SUITES, roundtrip_probes,
                            sample_scenario, screw_part_probes, sphere_probes,
                            stencil_strip)

from test_acceptance import SCREW_FORCE_TARGETS, run_suite

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# The strip of the roundtrip and six-footprint suites.
STRIP = FootprintProbe("strip", stencil_strip(20.0, 4.0), STENCIL_SCALE_MM)


@pytest.fixture(scope="module")
def cfg():
    return DecodeConfig(noise_sigma=0.0)


@pytest.fixture(scope="module")
def reference(sensor, illum):
    return make_reference(sensor, illum)


@pytest.fixture(scope="module")
def small_decoder(material, illum, sensor, cfg):
    probes = [SphereProbe(10.0), STRIP]
    return build_decoder(probes, material, illum, sensor, cfg)


def decode_measurements(img, reference, sensor, cfg):
    from tactwin.decoder import _decode_measurements
    return _decode_measurements(difference_image(img, reference), sensor, cfg)


class TestDifferenceImage:
    def test_identity_is_zero(self, reference):
        dev = difference_image(reference, reference)
        assert not dev.any()

    def test_constant_offset(self, reference):
        from tactwin.render import TactileImage
        shifted = TactileImage(reference.pixels + 0.1,
                               reference.scale_mm_per_px)
        dev = difference_image(shifted, reference)
        assert np.allclose(dev, 0.1)

    def test_support_matches_contact(self, material, illum, sensor, reference):
        sc = ContactScenario(SphereProbe(10), 5.0, 5.0, 0, 3.0)
        img, _ = simulate(sc, material, illum, sensor)
        dev = np.abs(difference_image(img, reference))
        ys, xs = np.nonzero(dev > 1e-6)
        half = sensor.extent_mm / 2
        x_mm = (xs + 0.5) * sensor.scale_mm_per_px - half
        y_mm = (ys + 0.5) * sensor.scale_mm_per_px - half
        r = np.hypot(x_mm - 5.0, y_mm - 5.0)
        assert r.max() < 10.0  # confined near the contact

    def test_requires_reference_flag(self, material, illum, sensor, reference):
        sc = ContactScenario(SphereProbe(10), 0, 0, 0, 3.0)
        img, _ = simulate(sc, material, illum, sensor)
        with pytest.raises(ValueError):
            difference_image(img, img)

    def test_dimension_mismatch(self, reference, small_sensor, illum):
        other = make_reference(small_sensor, illum)
        with pytest.raises(ValueError):
            difference_image(other, reference)


class TestExtractBlobs:
    def test_zero_map_empty(self):
        assert extract_blobs(np.zeros((64, 64)), 0.25, 0.01) == []

    def test_sphere_centroid(self, material, illum, sensor, reference, cfg):
        sc = ContactScenario(SphereProbe(15), 3.0, -4.0, 0, 3.0)
        img, _ = simulate(sc, material, illum, sensor)
        blobs = decode_measurements(img, reference, sensor, cfg)
        assert len(blobs) == 1
        cx, cy = blobs[0].centroid_mm
        assert math.hypot(cx - 3.0, cy + 4.0) < 0.15

    def test_two_separated_contacts(self, material, illum, sensor, reference, cfg):
        sc1 = ContactScenario(SphereProbe(10), -8.0, -8.0, 0, 3.0)
        sc2 = ContactScenario(SphereProbe(10), 8.0, 8.0, 0, 3.0)
        img1, _ = simulate(sc1, material, illum, sensor)
        img2, _ = simulate(sc2, material, illum, sensor)
        base = reference.pixels[0, 0]
        combined = np.minimum(img1.pixels, img2.pixels)  # darkening composite
        from tactwin.render import TactileImage
        img = TactileImage(combined, sensor.scale_mm_per_px)
        blobs = decode_measurements(img, reference, sensor, cfg)
        assert len(blobs) == 2

    def test_threshold_validated(self):
        with pytest.raises(ConfigError):
            extract_blobs(np.ones((8, 8)), 0.25, 0.0)

    def test_min_area_filters_specks(self):
        dev = np.zeros((64, 64))
        dev[10, 10] = 1.0  # single pixel at 0.25 mm/px: far below 1 mm^2
        assert extract_blobs(dev, 0.25, 0.5) == []


class TestEstimatePose:
    def test_strip_angle(self, material, illum, sensor, reference, cfg):
        sc = ContactScenario(STRIP, 0, 0, 30, 3.0)
        img, _ = simulate(sc, material, illum, sensor)
        blob = decode_measurements(img, reference, sensor, cfg)[0]
        pose = estimate_pose(blob)
        assert pose.confident
        assert pose.theta_deg == pytest.approx(30.0, abs=0.5)

    def test_axis_aligned_strip(self, material, illum, sensor, reference, cfg):
        sc = ContactScenario(STRIP, 0, 0, 0, 3.0)
        img, _ = simulate(sc, material, illum, sensor)
        blob = decode_measurements(img, reference, sensor, cfg)[0]
        pose = estimate_pose(blob)
        assert pose.confident
        assert min(pose.theta_deg, 180 - pose.theta_deg) < 0.5

    def test_circle_low_confidence(self, material, illum, sensor, reference, cfg):
        sc = ContactScenario(SphereProbe(15), 0, 0, 0, 3.0)
        img, _ = simulate(sc, material, illum, sensor)
        blob = decode_measurements(img, reference, sensor, cfg)[0]
        pose = estimate_pose(blob)
        assert not pose.confident and pose.theta_deg == 0.0


class TestClassify:
    def test_self_match(self, small_decoder, material, illum, sensor, reference, cfg):
        sc = ContactScenario(SphereProbe(10), 0, 0, 0, 3.0)
        img, _ = simulate(sc, material, illum, sensor)
        blob = decode_measurements(img, reference, sensor, cfg)[0]
        cls, score = classify(blob, small_decoder.models,
                              estimate_pose(blob))
        assert cls == "sphere"
        assert score > 0.8

    def test_strip_beats_sphere(self, small_decoder, material, illum, sensor,
                                reference, cfg):
        sc = ContactScenario(STRIP, 0, 0, 40, 4.0)
        img, _ = simulate(sc, material, illum, sensor)
        blob = decode_measurements(img, reference, sensor, cfg)[0]
        cls, score = classify(blob, small_decoder.models,
                              estimate_pose(blob))
        assert cls == "strip"

    def test_empty_library_rejected(self, material, illum, sensor, reference, cfg):
        sc = ContactScenario(SphereProbe(10), 0, 0, 0, 3.0)
        img, _ = simulate(sc, material, illum, sensor)
        blob = decode_measurements(img, reference, sensor, cfg)[0]
        with pytest.raises(ValueError):
            classify(blob, {})


class TestCalibration:
    def test_zero_force_row(self, small_decoder):
        curve = small_decoder.models["sphere"].curves[0]
        assert curve.forces[0] == 0.0
        assert curve.energies[0] == 0.0 and curve.gyrations[0] == 0.0

    def test_strictly_increasing_energy(self, small_decoder):
        # Energy is the strict observable; the strip's area may stall.
        for model in small_decoder.models.values():
            for curve in model.curves:
                assert np.all(np.diff(curve.energies) > 0)

    def test_non_increasing_energy_names_the_forces(self, material, illum, sensor):
        # A descending force grid makes the screw body's energy fall.
        body = next(p for p in screw_part_probes() if p.class_name == "body")
        with pytest.raises(CalibrationError) as err:
            _sweep_curve(body, material, illum, sensor, DecodeConfig(noise_sigma=0.0),
                         make_reference(sensor, illum), forces=(8.5, 8.25))
        message = str(err.value)
        assert "deviation energy is not strictly increasing in force" in message
        assert re.search(r": [0-9.]+ at 8.25 N after [0-9.]+ at 8.5 N$", message)

    def test_sweep_error_restores_the_profile_memo(self, material, illum, sensor):
        # The screw body's blob vanishes at 0.01 N after one at 8.5 N, which
        # raises inside the sweep's memo block; the enclosing memo is back.
        body = next(p for p in screw_part_probes() if p.class_name == "body")
        with contact.punch_profile_memo():
            outer = contact._PROFILE_MEMO.get()
            with pytest.raises(CalibrationError, match="blob vanished at 0.01 N"):
                _sweep_curve(body, material, illum, sensor, DecodeConfig(noise_sigma=0.0),
                             make_reference(sensor, illum), forces=(8.5, 0.01))
            assert contact._PROFILE_MEMO.get() is outer

    def test_roundtrip_strip_calibrates_at_noise_0(self, material, illum, sensor):
        # The strip's blob area is flat at 84 mm^2 from 8.25 to 8.5 N; its
        # energy still rises, and only the energy has to.
        strip = [p for p in roundtrip_probes() if p.class_name == "strip"]
        cfg = DecodeConfig(noise_sigma=0.0)
        model = build_calibration("strip", strip, material, illum, sensor, cfg)
        assert [c.label for c in model.curves] == ["strip"]
        reference = make_reference(sensor, illum)
        areas = [_calibration_blobs(strip[0], force, material, illum, sensor, cfg,
                                    reference)[0][0].area_mm2 for force in (8.25, 8.5)]
        assert areas[0] == areas[1]

    @pytest.mark.parametrize("suite", sorted(SUITES))
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_every_suite_calibrates_at_160px(self, suite, noise, material, illum):
        probes = SUITES[suite]()
        decoder = build_decoder(probes, material, illum, SensorConfig(160, 0.2),
                                DecodeConfig(noise_sigma=noise))
        assert sorted(decoder.models) == sorted({p.class_name for p in probes})

    @pytest.mark.parametrize("sweep_fails", [True, False])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_template_error_after_every_sweep(self, sweep_fails, cpus, material,
                                              illum, monkeypatch):
        # The sphere's template force has no blob (nor any force below it, so
        # its sweep passes), and the strip, a later class, loses its blob late
        # in its sweep. The templates come from the sweeps' blobs, but the
        # strip's sweep error comes first, as in a serial run that renders
        # the templates after every sweep. Fork hands the patch to the workers.
        decoder = importlib.import_module("tactwin.decoder")
        calibration_blobs = decoder._calibration_blobs

        def patched(probe, force, *args):
            blobs, gt = calibration_blobs(probe, force, *args)
            if probe.class_name == "sphere" and force <= 2.0:
                return [], gt
            if sweep_fails and probe.class_name == "strip" and force == 9.0:
                return [], gt
            return blobs, gt

        monkeypatch.setattr(decoder, "_calibration_blobs", patched)
        monkeypatch.setattr(runner, "_available_cpus", lambda: cpus)
        with pytest.raises(CalibrationError) as err:
            build_decoder([SphereProbe(10.0), STRIP], material, illum,
                          SensorConfig(160, 0.2), DecodeConfig(noise_sigma=0.02))
        assert multiprocessing.active_children() == []
        assert str(err.value) == (
            "strip: blob vanished at 9.0 N after appearing at a lower force; "
            "simulator parameters are inconsistent" if sweep_fails
            else "template for sphere at 2.0 N produced no blob")

    def test_stale_hash_rejected(self, material, illum, sensor, small_decoder):
        data = json.loads(json.dumps(small_decoder.to_json()))
        with pytest.raises(StaleCalibrationError, match="expected hash"):
            TactileDecoder.from_json(data, material, illum, sensor,
                                     DecodeConfig(noise_sigma=0.05))

    @staticmethod
    def _round_trip(decoder, material, illum, sensor, cfg):
        data = json.loads(json.dumps(decoder.to_json()))
        return TactileDecoder.from_json(data, material, illum, sensor, cfg)

    def test_json_round_trip(self, material, illum, sensor, cfg, small_decoder):
        back = self._round_trip(small_decoder, material, illum, sensor, cfg)
        assert list(back.models) == list(small_decoder.models) == ["sphere", "strip"]
        for cls, model in small_decoder.models.items():
            back_model = back.models[cls]
            assert [c.label for c in back_model.curves] == [c.label for c in model.curves]
            for a, b in zip(back_model.curves, model.curves, strict=True):
                for column in _COLUMNS:
                    assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_template_json_round_trip(self, material, illum, sensor, cfg,
                                      small_decoder):
        back = self._round_trip(small_decoder, material, illum, sensor, cfg)
        for cls, model in small_decoder.models.items():
            back_model = back.models[cls]
            assert back_model.offset == model.offset
            assert len(back_model.variants) == len(model.variants) == 2
            for (back_force, back_mask), (force, mask) in zip(back_model.variants,
                                                              model.variants):
                assert back_force == force
                assert back_mask.dtype == mask.dtype and np.array_equal(back_mask, mask)

    def test_model_file_round_trips_byte_for_byte(self, roundtrip_decoder, material,
                                                  illum, sensor, decode_cfg):
        # The text calibrate writes, read back and written again.
        text = json.dumps(roundtrip_decoder.to_json(), sort_keys=True)
        back = TactileDecoder.from_json(json.loads(text), material, illum, sensor,
                                        decode_cfg)
        assert json.dumps(back.to_json(), sort_keys=True) == text

    def test_params_hash_sensitivity(self, material, illum, sensor, cfg):
        base = params_hash(material, illum, sensor, cfg)
        assert base == params_hash(material, illum, sensor, cfg)
        other = params_hash(material, illum, sensor,
                            DecodeConfig(noise_sigma=0.01))
        assert other != base

    @pytest.mark.parametrize("noise, digest", [
        (0.0, "607c0040d0e8625d0c10ef36e873844b34d00296d6511c5d07ed276c9f0c61d0"),
        (0.02, "a4b85bcad18aac3b18eed7036aa5bbcf4527f308370a73b4d4ed0ddf063c5faf"),
    ], ids=["0.0", "0.02"])
    def test_params_hash_pinned(self, material, illum, sensor, noise, digest):
        # Every model on disk carries this digest: a change to the hashed
        # payload, such as a decode constant dropped from it or a new schema
        # version, makes them stale.
        assert params_hash(material, illum, sensor, DecodeConfig(noise_sigma=noise)) == digest


class TestDenoiseKernel:
    @pytest.mark.parametrize("denoise_sigma_mm", [0.055, 0.25])
    def test_one_radius_rule(self, denoise_sigma_mm, sensor, reference):
        # At 0.055 mm (1.1 px) ceil(3 s) would give 4 px and scipy's
        # int(3 s + 0.5) gives 3: the noise propagation and the support
        # growth must both use the filter's own kernel.
        cfg = DecodeConfig(noise_sigma=0.02, threshold=1e-300, min_area_mm2=0.0,
                           denoise_sigma_mm=denoise_sigma_mm)
        pixels = reference.pixels.copy()
        pixels[320, 320] -= 0.5
        image = TactileImage(pixels, sensor.scale_mm_per_px)
        blob, = decode_measurements(image, reference, sensor, cfg)
        r = cfg.denoise_radius_px(sensor)
        assert r == {0.055: 3, 0.25: 15}[denoise_sigma_mm]
        assert (blob.xs.min(), blob.xs.max(), blob.ys.min(), blob.ys.max()) == (
            320 - r, 320 + r, 320 - r, 320 + r)
        # The filtered impulse is the 2-D kernel, whose norm is the 1-D
        # kernel's sum of squares.
        assert cfg.filtered_noise_sigma(sensor) == pytest.approx(
            0.02 * math.sqrt(np.sum((blob.weights / 0.5) ** 2)), rel=1e-9)


class TestForceRoundTrip:
    def test_sphere_inverse_of_forward(self, small_decoder, material, illum,
                                       sensor, reference, cfg):
        for force in (0.8, 2.5, 6.0, 9.5):
            sc = ContactScenario(SphereProbe(10), 0, 0, 0, force)
            img, _ = simulate(sc, material, illum, sensor)
            blob = decode_measurements(img, reference, sensor, cfg)[0]
            est = estimate_force(blob, small_decoder.models["sphere"].curves)
            assert est.force_n == pytest.approx(force, abs=0.05)
            assert not est.out_of_range

    def test_monotone_in_energy(self, small_decoder):
        # force estimates inherit the calibration's monotonicity: every
        # inner knot, and the midpoint between each pair of neighbouring
        # knots, in order of energy
        curves = small_decoder.models["sphere"].curves
        curve = curves[0]
        e, g = curve.energies, curve.gyrations
        points = [((e[k] + e[k + 1]) / 2, (g[k] + g[k + 1]) / 2) for k in range(len(e) - 1)]
        points = sorted(points + list(zip(e[1:-1], g[1:-1])))
        assert len(points) == 19    # 10 midpoints and 9 inner knots of 11 rows
        forces = [estimate_force(_FakeBlob(energy=float(en), gyration=float(gy)),
                                 curves).force_n for en, gy in points]
        assert all(b > a for a, b in zip(forces, forces[1:]))

    def test_out_of_range_flagged(self, small_decoder):
        curves = small_decoder.models["sphere"].curves
        curve = curves[0]
        blob = _FakeBlob(energy=float(curve.energies[-1]) * 1.5,
                         gyration=float(curve.gyrations[-1]) * 1.5)
        est = estimate_force(blob, curves)
        assert est.out_of_range
        assert est.force_n == 10.0

    def test_out_of_range_punch_flagged_by_energy(self, small_decoder):
        # A punch's footprint does not grow past the top force; its
        # deviation energy does.
        curves = small_decoder.models["strip"].curves
        curve = curves[0]
        blob = _FakeBlob(energy=float(curve.energies[-1]) * 1.05,
                         gyration=float(curve.gyrations[-1]))
        est = estimate_force(blob, curves)
        assert est.out_of_range
        assert est.force_n == 10.0


def _random_columns(rng, n, cols=6):
    """Knots at uneven spacing and increasing columns with flat stretches."""
    x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 2.0, n - 1))])
    steps = rng.uniform(0.0, 3.0, (n - 1, cols)) * (rng.random((n - 1, cols)) > 0.2)
    return x, np.vstack([np.zeros(cols), np.cumsum(steps, axis=0)])


class TestMonotoneCubic:
    """The calibration's inversion: a numpy monotone cubic held to SciPy's
    PCHIP, which only this module imports."""

    @pytest.mark.parametrize("n", [2, 3, 5, 11, 41])
    def test_matches_pchip_on_random_columns(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            x, y = _random_columns(rng, n)
            if rng.random() < 0.3:
                y = rng.normal(size=y.shape)    # turns, for the end-slope rule
            at = np.sort(np.concatenate([x, rng.uniform(x[0], x[-1], 300)]))
            np.testing.assert_allclose(monotone_cubic(x, y, at), PchipInterpolator(x, y)(at),
                                       rtol=0, atol=1e-12 * max(1.0, np.abs(y).max()))

    def test_matches_pchip_on_every_roundtrip_curve(self, roundtrip_decoder):
        for cls, model in roundtrip_decoder.models.items():
            for curve in model.curves:
                grid, columns = curve.resampled
                assert grid.size == 401 and (grid[0], grid[-1]) == (curve.forces[0], curve.forces[-1])
                for column, name in zip(columns, ("energies", "gyrations", "raw_ws",
                                                  "raw_hs", "gt_ws", "gt_hs")):
                    knots = getattr(curve, name)
                    oracle = PchipInterpolator(curve.forces, knots)(grid)
                    assert np.abs(column - oracle).max() <= 1e-12 * max(1.0, np.abs(knots).max()), (
                        cls, curve.label, name)

    def test_through_knots_and_monotone_between(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 11, 41):
            x, y = _random_columns(rng, n)
            assert np.array_equal(monotone_cubic(x, y, x), y)
            at = np.linspace(x[0], x[-1], 20 * n + 1)
            values = monotone_cubic(x, y, at)
            assert (np.diff(values, axis=0) >= 0).all()
            i = np.clip(np.searchsorted(x, at, side="right") - 1, 0, n - 2)
            assert ((values >= y[i]) & (values <= y[i + 1])).all()

    def test_cli_never_imports_scipy_interpolate(self, tmp_path):
        script = (
            "import sys\n"
            "from tactwin.cli import main\n"
            "out, common = sys.argv[1], sys.argv[2:]\n"
            "assert main(['generate', '--out', out + '/ds', '--count', '4', '--seed', '3',"
            " *common]) == 0\n"
            "assert main(['calibrate', '--out', out + '/model', *common]) == 0\n"
            "assert main(['decode', '--dataset', out + '/ds', '--model', out + '/model',"
            " '--out', out + '/dets', '--split', 'all']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        run = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), "--suite", "spheres",
             "--size", "128", "--scale", "0.25", "--noise", "0.02"],
            env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "dets" / "detections.jsonl").read_text().count("sphere") == 4


class TestCoarseSpheres:
    def test_diameter_and_force_at_128px(self, material, illum, small_sensor):
        # 200 noisy spheres at 0.25 mm/px, decoded with the true class: the
        # radius of gyration must pick the diameter that area and contrast
        # could not. A sample without a blob counts as a wrong diameter.
        probes = sphere_probes()
        cfg = DecodeConfig(noise_sigma=0.02)
        curves = build_calibration("sphere", probes, material, illum,
                                   small_sensor, cfg).curves
        reference = make_reference(small_sensor, illum)
        rng = np.random.default_rng(23)
        errors, right = [], 0
        for i in range(200):
            sc = sample_scenario(rng, probes, small_sensor, material.e_star,
                                 force_range=(0.8, 10.0), noise_sigma=0.02)
            img, gt = simulate(sc, material, illum, small_sensor, seed=2300000 + i)
            blobs = decode_measurements(img, reference, small_sensor, cfg)
            if blobs:
                est = estimate_force(blobs[0], curves)
                errors.append(abs(est.force_n - gt.force_n))
                right += est.curve.label == sc.probe.label
        mae, share = float(np.mean(errors)), right / 200
        print(f"spheres at 128 px, noise 0.02: force MAE {mae:.4f} N, "
              f"right diameter {share:.3f}, {len(errors)} blobs")
        assert mae <= 0.10
        assert share >= 0.95


class TestScrewNoiseless:
    def test_criterion_9_bounds_at_noise_0(self, material, illum, sensor):
        # Criterion 9's per-part force bounds and recall, on noise-free images.
        decoder = build_decoder(screw_part_probes(), material, illum, sensor,
                                DecodeConfig(noise_sigma=0.0))
        samples = run_suite(decoder, screw_part_probes(), 200, 0.0, seed=9,
                            material=material, illum=illum, sensor=sensor)
        classes = sorted(SCREW_FORCE_TARGETS)
        errors = {c: [] for c in classes}
        for dets, (gt,) in samples:
            if dets:
                errors[gt.class_name].append(abs(dets[0].force_n - gt.force_n))
        maes = {c: float(np.mean(errors[c])) for c in classes}
        report = evaluate_detections(samples, classes)
        recalls = {c: report.per_class[c]["recall"] for c in classes}
        print(f"screw at noise 0: MAE {maes}, recall {recalls}")
        for c in classes:
            assert maes[c] <= SCREW_FORCE_TARGETS[c] + 0.05, (c, maes[c])
            assert recalls[c] is not None and recalls[c] >= 0.95, (c, recalls[c])


class _FakeBlob:
    """The observables estimate_force reads, at the default sensor's pitch."""

    def __init__(self, energy, gyration):
        self.deviation_integral = energy
        self.gyration_mm = gyration
        self.scale_mm_per_px = SensorConfig().scale_mm_per_px


class TestDecode:
    def test_reference_only_empty(self, small_decoder, reference):
        assert small_decoder.decode(reference) == []

    def test_zero_force_no_detection(self, small_decoder, material, illum,
                                     sensor):
        sc = ContactScenario(SphereProbe(10), 0, 0, 0, 0.0)
        img, _ = simulate(sc, material, illum, sensor)
        assert small_decoder.decode(img) == []

    def test_translation_equivariance(self, small_decoder, material, illum,
                                      sensor):
        base = ContactScenario(STRIP, 0, 0, 20, 3.0)
        img, _ = simulate(base, material, illum, sensor)
        d0 = small_decoder.decode(img)[0]
        shifted = ContactScenario(STRIP, 2.0, -1.5, 20, 3.0)
        img2, _ = simulate(shifted, material, illum, sensor)
        d1 = small_decoder.decode(img2)[0]
        px = sensor.scale_mm_per_px
        assert d1.box.cx - d0.box.cx == pytest.approx(2.0, abs=2 * px)
        assert d1.box.cy - d0.box.cy == pytest.approx(-1.5, abs=2 * px)

    def test_rotation_consistency(self, small_decoder, material, illum, sensor):
        thetas = []
        for delta in (0.0, 23.0, 77.0, 141.0):
            sc = ContactScenario(STRIP, 0, 0, delta, 3.0)
            img, _ = simulate(sc, material, illum, sensor)
            det = small_decoder.decode(img)[0]
            from tactwin.geometry import angle_error
            thetas.append(angle_error(det.theta_deg, delta))
        assert max(thetas) < 0.5

    def test_multi_contact(self, small_decoder, material, illum, sensor):
        from tactwin.render import TactileImage
        img1, _ = simulate(ContactScenario(SphereProbe(10), -8, -8, 0, 3.0),
                           material, illum, sensor)
        img2, _ = simulate(ContactScenario(SphereProbe(10), 8, 8, 0, 5.0),
                           material, illum, sensor)
        img = TactileImage(np.minimum(img1.pixels, img2.pixels),
                           sensor.scale_mm_per_px)
        dets = small_decoder.decode(img)
        assert len(dets) == 2
        assert {d.class_name for d in dets} == {"sphere"}
