"""The windowed forward model and calibration against the whole-raster oracle.

``contact_window`` decides which pixels ``simulate`` computes and which the
calibration sweeps measure. Patching it to return the whole raster runs the
same code on every pixel, which is what the windowed results must equal byte
for byte.
"""

import contextlib
import importlib
import json

import numpy as np
import pytest

from tactwin.contact import ContactScenario, SphereProbe
from tactwin.dataset import DatasetSpec, sample_for_index
from tactwin.decoder import (CALIBRATION_FORCES, DecodeConfig,
                             _calibration_blobs, _decode_measurements,
                             build_calibration, build_templates)
from tactwin.frames import PixelWindow, SensorConfig
from tactwin.render import (IlluminationModel, TactileImage, contact_window,
                            make_reference, simulate)
from tactwin.suites import SUITES, footprint_probes

# 160 px over the standard 32 mm active area: windows reach the raster edge
# for edge-placed contacts and for the largest probes' calibration windows.
SENSOR_160 = SensorConfig(input_size=160, scale_mm_per_px=0.2)


@contextlib.contextmanager
def whole_frame():
    """Make every window the whole raster, in simulate and in calibration."""
    def full(scenario, material, illum, sensor):
        return PixelWindow.full(sensor.input_size)
    with pytest.MonkeyPatch.context() as mp:
        for module in ("tactwin.render", "tactwin.decoder"):
            mp.setattr(importlib.import_module(module), "contact_window", full)
        yield


def _simulated_pixels(suite, sensor, count, noise_sigma, material, illum):
    """Raw float64 pixels: equal pixels give equal PGM bytes, and the float
    comparison also catches last-bit differences that PGM rounding hides."""
    spec = DatasetSpec(count=count, master_seed=17, suite=suite,
                       noise_sigma=noise_sigma, sensor=sensor,
                       material=material, illum=illum)
    out = []
    for i in range(count):
        scenario, seed = sample_for_index(spec, i)
        out.append(simulate(scenario, material, illum, sensor, seed=seed)[0].pixels.tobytes())
    return out


def _blob_fields(blobs):
    return [(b.area_mm2, b.n_pixels, b.centroid_mm, b.mu20, b.mu02, b.mu11,
             b.mean_dev, b.peak_dev, b.edge_contrast, b.deviation_integral,
             b.ys.tolist(), b.xs.tolist(), b.weights.tolist(), b.extent_mm)
            for b in blobs]


def _sweep(probe, material, illum, sensor, cfg):
    """Every blob field the calibration sweep measures, for each force."""
    reference = make_reference(sensor, illum)
    return [_blob_fields(_calibration_blobs(probe, force, material, illum,
                                            sensor, cfg, reference)[0])
            for force in CALIBRATION_FORCES[1:]]


def _unique_probes():
    probes = {}
    for suite in sorted(SUITES):
        for probe in SUITES[suite]():
            probes.setdefault(json.dumps(probe.params(), sort_keys=True), probe)
    return list(probes.values())


def _calibration_json(probes, material, illum, sensor, cfg):
    by_class = {}
    for probe in probes:
        by_class.setdefault(probe.class_name, []).append(probe)
    tables = {cls: build_calibration(cls, plist, material, illum, sensor, cfg).to_json()
              for cls, plist in sorted(by_class.items())}
    return json.dumps(tables, sort_keys=True)


def _templates_json(probes, material, illum, sensor, cfg):
    return json.dumps(build_templates(probes, material, illum, sensor, cfg).to_json(),
                      sort_keys=True)


class TestContactWindow:
    def test_window_is_part_of_the_raster(self, material, illum, sensor):
        sc = sample_for_index(DatasetSpec(count=1, master_seed=3), 0)[0]
        w = contact_window(sc, material, illum, sensor)
        assert 0 < (w.y1 - w.y0) * (w.x1 - w.x0) < sensor.input_size ** 2

    def test_horizontal_light_takes_whole_raster(self, material, sensor):
        # l_z = 0 leaves no rounding margin for the flat shading
        illum = IlluminationModel(light_dirs=np.array([[1.0, 0.0, 0.0],
                                                       [0.0, 0.6, 0.8]]))
        sc = sample_for_index(DatasetSpec(count=1, master_seed=3), 0)[0]
        assert contact_window(sc, material, illum, sensor) == PixelWindow.full(640)


    def test_unloaded_contact_off_the_raster(self, material, illum, sensor):
        # zero force skips the bounds check; the window keeps an edge pixel
        sc = ContactScenario(SphereProbe(10.0), 100.0, 3.0, 0.0, 0.0)
        image, _ = simulate(sc, material, illum, sensor)
        assert image.is_reference
        assert np.array_equal(image.pixels, make_reference(sensor, illum).pixels)


class TestMeasurementWindow:
    def test_deviation_at_the_window_edge(self, illum, sensor, decode_cfg):
        # Deviation that fills the window out to its edges: the denoise filter
        # spreads it beyond the window, and the measurement must still see
        # all of it, as on the whole raster.
        reference = make_reference(sensor, illum)
        window = PixelWindow(200, 280, 300, 380, sensor.input_size)
        pixels = reference.pixels.copy()
        pixels[200:206, 300:380] -= 0.05
        pixels[270:280, 300:330] -= 0.05
        image = TactileImage(pixels, sensor.scale_mm_per_px)
        windowed = _decode_measurements(image, reference, sensor, decode_cfg, window)
        assert windowed
        assert _blob_fields(windowed) == _blob_fields(
            _decode_measurements(image, reference, sensor, decode_cfg))


class TestSimulateExact:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_160px_suite(self, suite, noise, material, illum):
        args = (suite, SENSOR_160, 200, noise, material, illum)
        windowed = _simulated_pixels(*args)
        with whole_frame():
            assert windowed == _simulated_pixels(*args)

    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_640px_roundtrip(self, noise, material, illum, sensor):
        args = ("roundtrip", sensor, 12, noise, material, illum)
        windowed = _simulated_pixels(*args)
        with whole_frame():
            assert windowed == _simulated_pixels(*args)


class TestCalibrationExact:
    # Flat probes do not calibrate at 160 px (their area steps are too coarse
    # to rise at every force), so the sweep's measurements are compared
    # directly, force by force, for every probe of every suite.
    @pytest.mark.parametrize("probe", _unique_probes(), ids=lambda p: "-".join(
        [type(p).__name__, p.class_name, f"{getattr(p, 'diameter_mm', '')}"]))
    def test_160px_sweep(self, probe, material, illum, decode_cfg):
        windowed = _sweep(probe, material, illum, SENSOR_160, decode_cfg)
        with whole_frame():
            assert windowed == _sweep(probe, material, illum, SENSOR_160, decode_cfg)

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_160px_templates(self, suite, material, illum, decode_cfg):
        by_class = {}
        for probe in SUITES[suite]():
            by_class.setdefault(probe.class_name, []).append(probe)
        probes = [plist[len(plist) // 2] for _, plist in sorted(by_class.items())]
        windowed = _templates_json(probes, material, illum, SENSOR_160, decode_cfg)
        with whole_frame():
            assert windowed == _templates_json(probes, material, illum,
                                               SENSOR_160, decode_cfg)

    def test_160px_sphere_table(self, material, illum):
        cfg = DecodeConfig(noise_sigma=0.0)
        probes = SUITES["spheres"]()
        windowed = _calibration_json(probes, material, illum, SENSOR_160, cfg)
        with whole_frame():
            assert windowed == _calibration_json(probes, material, illum,
                                                 SENSOR_160, cfg)

    def test_640px_two_roundtrip_probes(self, material, illum, sensor, decode_cfg):
        lshape = next(p for p in footprint_probes() if p.class_name == "lshape")
        probes = [SphereProbe(20.0), lshape]
        windowed = (_calibration_json(probes, material, illum, sensor, decode_cfg),
                    _templates_json(probes, material, illum, sensor, decode_cfg))
        with whole_frame():
            assert windowed == (
                _calibration_json(probes, material, illum, sensor, decode_cfg),
                _templates_json(probes, material, illum, sensor, decode_cfg))
