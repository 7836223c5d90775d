import json
import math

import numpy as np
import pytest

from tactwin import contact
from tactwin.contact import ContactScenario, SphereProbe, StripProbe
from tactwin.decoder import (CalibrationTable, DecodeConfig, TactileDecoder,
                             TemplateLibrary, build_decoder, classify,
                             difference_image, estimate_force, estimate_pose,
                             extract_blobs, params_hash)
from tactwin.errors import (CalibrationError, ConfigError,
                            StaleCalibrationError)
from tactwin.render import make_reference, simulate
from tactwin.suites import screw_part_probes

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture(scope="module")
def cfg():
    return DecodeConfig(noise_sigma=0.0)


@pytest.fixture(scope="module")
def reference(sensor, illum):
    return make_reference(sensor, illum)


@pytest.fixture(scope="module")
def small_decoder(material, illum, sensor, cfg):
    probes = [SphereProbe(10.0), StripProbe(20.0, 4.0)]
    return build_decoder(probes, material, illum, sensor, cfg)


def decode_measurements(img, reference, sensor, cfg):
    from tactwin.decoder import _decode_measurements
    return _decode_measurements(img, reference, sensor, cfg)


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
        sc = ContactScenario(StripProbe(20, 4), 0, 0, 30, 3.0)
        img, _ = simulate(sc, material, illum, sensor)
        blob = decode_measurements(img, reference, sensor, cfg)[0]
        pose = estimate_pose(blob)
        assert pose.confident
        assert pose.theta_deg == pytest.approx(30.0, abs=0.5)

    def test_axis_aligned_strip(self, material, illum, sensor, reference, cfg):
        sc = ContactScenario(StripProbe(20, 4), 0, 0, 0, 3.0)
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
        cls, score = classify(blob, small_decoder.templates,
                              estimate_pose(blob))
        assert cls == "sphere"
        assert score > 0.8

    def test_strip_beats_sphere(self, small_decoder, material, illum, sensor,
                                reference, cfg):
        sc = ContactScenario(StripProbe(20, 4), 0, 0, 40, 4.0)
        img, _ = simulate(sc, material, illum, sensor)
        blob = decode_measurements(img, reference, sensor, cfg)[0]
        cls, score = classify(blob, small_decoder.templates,
                              estimate_pose(blob))
        assert cls == "strip"

    def test_empty_library_rejected(self, material, illum, sensor, reference, cfg):
        sc = ContactScenario(SphereProbe(10), 0, 0, 0, 3.0)
        img, _ = simulate(sc, material, illum, sensor)
        blob = decode_measurements(img, reference, sensor, cfg)[0]
        empty = TemplateLibrary(classes=[], variants={}, offsets={},
                                canonical_size=64, params_hash="x")
        with pytest.raises(ValueError):
            classify(blob, empty)


class TestCalibration:
    def test_zero_force_row(self, small_decoder):
        curve = small_decoder.calibrations["sphere"].curves[0]
        assert curve.forces[0] == 0.0 and curve.areas[0] == 0.0

    def test_strictly_increasing_area(self, small_decoder):
        for table in small_decoder.calibrations.values():
            for curve in table.curves:
                assert np.all(np.diff(curve.areas) > 0)

    def test_non_increasing_area_names_the_forces(self, material, illum, sensor):
        # At noise 0 and 640 px the screw body's deviation area is 74.1 mm^2
        # at both 8.25 and 8.5 N.
        body = next(p for p in screw_part_probes() if p.class_name == "body")
        with pytest.raises(CalibrationError) as err:
            build_decoder([body], material, illum, sensor, DecodeConfig(noise_sigma=0.0))
        message = str(err.value)
        assert "deviation area is not strictly increasing in force" in message
        assert message.endswith("74.1 mm^2 at 8.5 N after 74.1 mm^2 at 8.25 N")
        assert contact._PROFILE_MEMO.get() is None

    def test_stale_hash_rejected(self, material, illum, sensor, cfg,
                                 small_decoder):
        other_cfg = DecodeConfig(noise_sigma=0.05)
        with pytest.raises(StaleCalibrationError):
            TactileDecoder(material, illum, sensor, other_cfg,
                           small_decoder.calibrations, small_decoder.templates)

    def test_json_round_trip(self, small_decoder):
        table = small_decoder.calibrations["strip"]
        back = CalibrationTable.from_json(json.loads(json.dumps(table.to_json())))
        assert back.class_name == table.class_name
        assert back.params_hash == table.params_hash
        for a, b in zip(back.curves, table.curves):
            assert np.array_equal(a.forces, b.forces)
            assert np.array_equal(a.areas, b.areas)

    def test_template_json_round_trip(self, small_decoder):
        lib = small_decoder.templates
        back = TemplateLibrary.from_json(json.loads(json.dumps(lib.to_json())))
        assert back.classes == lib.classes
        for cls in lib.classes:
            for a, b in zip(back.variants[cls], lib.variants[cls]):
                assert np.array_equal(a.mask, b.mask)

    def test_class_coverage_enforced(self, small_decoder, material, illum,
                                     sensor, reference, cfg):
        sc = ContactScenario(SphereProbe(10), 0, 0, 0, 3.0)
        img, _ = simulate(sc, material, illum, sensor)
        blob = decode_measurements(img, reference, sensor, cfg)[0]
        with pytest.raises(CalibrationError):
            estimate_force(blob, "sphere",
                           small_decoder.calibrations["strip"])

    def test_params_hash_sensitivity(self, material, illum, sensor, cfg):
        base = params_hash(material, illum, sensor, cfg)
        assert base == params_hash(material, illum, sensor, cfg)
        other = params_hash(material, illum, sensor,
                            DecodeConfig(noise_sigma=0.01))
        assert other != base


class TestForceRoundTrip:
    def test_sphere_inverse_of_forward(self, small_decoder, material, illum,
                                       sensor, reference, cfg):
        for force in (0.8, 2.5, 6.0, 9.5):
            sc = ContactScenario(SphereProbe(10), 0, 0, 0, force)
            img, _ = simulate(sc, material, illum, sensor)
            blob = decode_measurements(img, reference, sensor, cfg)[0]
            est = estimate_force(blob, "sphere",
                                 small_decoder.calibrations["sphere"])
            assert est.force_n == pytest.approx(force, abs=0.05)
            assert not est.out_of_range

    def test_monotone_in_blob_area(self, small_decoder):
        # force estimates inherit the calibration's monotonicity
        table = small_decoder.calibrations["sphere"]
        curve = table.curves[0]
        forces = []
        for k in range(5, 35, 5):
            blob = _FakeBlob(area=float(curve.areas[k]),
                             contrast=float(curve.contrasts[k]),
                             energy=float(curve.energies[k]))
            forces.append(estimate_force(blob, "sphere", table).force_n)
        assert all(b > a for a, b in zip(forces, forces[1:]))

    def test_out_of_range_flagged(self, small_decoder):
        table = small_decoder.calibrations["sphere"]
        curve = table.curves[0]
        blob = _FakeBlob(area=float(curve.areas[-1]) * 1.5,
                         contrast=float(curve.contrasts[-1]),
                         energy=float(curve.energies[-1]) * 1.5)
        est = estimate_force(blob, "sphere", table)
        assert est.out_of_range
        assert est.force_n == 10.0


class _FakeBlob:
    def __init__(self, area, contrast, energy):
        self.area_mm2 = area
        self.edge_contrast = contrast
        self.deviation_integral = energy


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
        base = ContactScenario(StripProbe(20, 4), 0, 0, 20, 3.0)
        img, _ = simulate(base, material, illum, sensor)
        d0 = small_decoder.decode(img)[0]
        shifted = ContactScenario(StripProbe(20, 4), 2.0, -1.5, 20, 3.0)
        img2, _ = simulate(shifted, material, illum, sensor)
        d1 = small_decoder.decode(img2)[0]
        px = sensor.scale_mm_per_px
        assert d1.box.cx - d0.box.cx == pytest.approx(2.0, abs=2 * px)
        assert d1.box.cy - d0.box.cy == pytest.approx(-1.5, abs=2 * px)

    def test_rotation_consistency(self, small_decoder, material, illum, sensor):
        thetas = []
        for delta in (0.0, 23.0, 77.0, 141.0):
            sc = ContactScenario(StripProbe(20, 4), 0, 0, delta, 3.0)
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
