"""The per-image passes against their whole-raster references in
``oracle``: noisy ``simulate``, ``pgm_bytes`` and ``read_pgm``,
``extract_blobs`` (also at the raster's edges and through a ``window``) and
``classify``'s scores per class, with ties. ``TactileDecoder.decode`` filters
a temporary of its own, never the caller's image. The tracemalloc peaks of
``decode`` and ``pgm_bytes`` are bounded in 640 px rasters.
"""

import tracemalloc

import numpy as np
import pytest

from tactwin.contact import ContactScenario, SphereProbe
from tactwin.dataset import (PGM_MAXVAL, DatasetSpec, generate_dataset, pgm_bytes,
                             read_pgm, sample_for_index)
from tactwin.decoder import (ROTATION_STEP_DEG, ClassModel,
                             _canonical_coords, _canonical_patches, _decode_measurements,
                             classify, difference_image, estimate_pose, extract_blobs)
from tactwin.frames import PixelWindow
from tactwin.render import make_reference, simulate
from tactwin.suites import SUITES

from oracle import (_blob_fields, frozen_canonical_coords, frozen_canonical_patches,
                    frozen_extract_blobs, frozen_pgm_bytes, frozen_scores,
                    frozen_simulate)


def assert_blobs_like_frozen(dev, scale, threshold, min_area_mm2=1.0, window=None):
    blobs = extract_blobs(dev.copy(), scale, threshold, min_area_mm2, window=window)
    assert _blob_fields(blobs) == _blob_fields(
        frozen_extract_blobs(dev, scale, threshold, min_area_mm2, window))
    return blobs


class TestSimulate:
    @pytest.mark.parametrize("noise", [0.02, 0.5])
    def test_640px_edge_contacts(self, noise, material, illum, sensor):
        # Noise 0.5 clips at both ends; a contact at the edge clips the window.
        half = sensor.extent_mm / 2
        for x, y in ((0.0, 0.0), (half - 3.5, -half + 3.5), (-half + 3.5, 3.0)):
            scenario = ContactScenario(SphereProbe(10.0), x, y, 0.0, 4.0, noise)
            got = simulate(scenario, material, illum, sensor, seed=9)[0]
            want = frozen_simulate(scenario, material, illum, sensor, seed=9)[0]
            assert got.tobytes() == want.tobytes()


class TestPgm:
    def test_pgm_bytes(self, rng):
        steps = np.arange(-3, PGM_MAXVAL + 4)
        pixels = np.concatenate([steps / PGM_MAXVAL, (steps + 0.5) / PGM_MAXVAL,
                                 rng.uniform(-0.5, 1.5, 6000), [-0.0, 0.0, 1.0]])
        pixels = pixels[:pixels.size // 256 * 256].reshape(-1, 256)
        before = pixels.copy()
        assert pgm_bytes(pixels) == frozen_pgm_bytes(pixels)
        assert np.array_equal(pixels, before)

    def test_read_pgm(self, tmp_path, rng):
        raw = np.concatenate([np.arange(PGM_MAXVAL + 1),
                              rng.integers(0, PGM_MAXVAL + 1, 3 * 4096)]).astype(">u2")
        raw = raw.reshape(-1, 128)
        path = tmp_path / "x.pgm"
        h, w = raw.shape
        path.write_bytes(f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii") + raw.tobytes())
        got = read_pgm(path)
        assert got.dtype == np.float64
        assert got.tobytes() == (raw.astype(float) / PGM_MAXVAL).tobytes()


def _bar(dev, y, x, h, w, value):
    dev[y:y + h, x:x + w] = value


class TestExtractBlobs:
    SCALE = 0.05
    THRESHOLD = 0.03

    def noisy(self, rng, shape=(200, 220)):
        # Specks: the noise reaches the threshold on about 0.3 % of pixels.
        return rng.normal(0.0, 0.01, shape)

    def test_specks_one_component_and_a_merged_pair(self, rng):
        dev = self.noisy(rng)
        _bar(dev, 20, 20, 30, 30, 0.2)          # kept, alone
        _bar(dev, 120, 40, 12, 40, -0.1)        # the pair, 1.5 mm apart
        _bar(dev, 120, 110, 12, 40, 0.15)
        dev[rng.integers(0, 200, 40), rng.integers(0, 220, 40)] = np.nan
        assert len(assert_blobs_like_frozen(dev, self.SCALE, self.THRESHOLD)) == 2
        assert assert_blobs_like_frozen(dev, self.SCALE, self.THRESHOLD,
                                        window=PixelWindow(30, 230, 5, 225, 300))

    def test_all_components_kept(self):
        # Deviations of exactly +-threshold are in the mask.
        dev = np.zeros((200, 200))
        _bar(dev, 50, 10, 20, 30, 0.2)
        _bar(dev, 50, 70, 20, 30, -self.THRESHOLD)      # 1.5 mm apart: merged
        _bar(dev, 150, 150, 25, 25, self.THRESHOLD)     # 4 mm from the pair
        assert len(assert_blobs_like_frozen(dev, self.SCALE, self.THRESHOLD)) == 2

    @pytest.mark.parametrize("corner", ["top", "bottom", "left", "right"])
    def test_merged_pair_at_the_raster_edge(self, corner, rng):
        # Two fragments 2.25 mm apart, 3 px from the edge: the pixels within
        # half the merge distance of them (30 px at 0.05 mm/px) run off the
        # raster, and the merge box is the fragments' bounding box alone.
        dev = self.noisy(rng, (160, 160))
        _bar(dev, 3, 30, 12, 40, 0.2)
        _bar(dev, 3, 115, 12, 40, -0.2)
        dev = {"top": dev, "bottom": dev[::-1], "left": dev.T,
               "right": dev.T[:, ::-1]}[corner]
        blobs = assert_blobs_like_frozen(np.ascontiguousarray(dev), self.SCALE,
                                         self.THRESHOLD)
        assert len(blobs) == 1

    def test_three_fragments_at_a_coarse_pitch(self):
        # 0.1 mm/px: half the merge distance is 15 px; the fragments chain
        # into one.
        dev = np.zeros((120, 120))
        _bar(dev, 40, 30, 20, 20, 0.1)
        _bar(dev, 45, 75, 20, 20, 0.1)
        _bar(dev, 90, 52, 20, 20, 0.1)
        assert len(assert_blobs_like_frozen(dev, 0.1, self.THRESHOLD)) == 1


def _roundtrip_blobs(decoder, material, illum, sensor, count=6):
    spec = DatasetSpec(count=count, master_seed=41, suite="roundtrip", noise_sigma=0.02,
                       sensor=sensor, material=material, illum=illum)
    for i in range(count):
        scenario, seed = sample_for_index(spec, i)
        image = simulate(scenario, material, illum, sensor, seed=seed)[0]
        yield from _decode_measurements(difference_image(image, decoder.reference),
                                        sensor, decoder.cfg)


def _angles(pose):
    """The rotations ``classify`` samples for this pose."""
    return ([pose.theta_deg, pose.theta_deg + 180.0] if pose and pose.confident
            else list(np.arange(0.0, 360.0, ROTATION_STEP_DEG)))


def _patches(blob, pose):
    """The flattened canonical patches ``classify`` scores for this pose."""
    angles = _angles(pose)
    return frozen_canonical_patches(blob, angles).reshape(len(angles), -1)


def assert_patches_like_frozen(blob, pose):
    # Every rint input bit for bit, then the sampled masks.
    angles = _angles(pose)
    assert ([f.tobytes() for f in _canonical_coords(blob, angles)]
            == [f.tobytes() for f in frozen_canonical_coords(blob, angles)])
    got = _canonical_patches(blob, angles)
    assert got.dtype == bool
    assert got.tobytes() == frozen_canonical_patches(blob, angles).tobytes()


class TestClassify:
    def test_canonical_patches(self, roundtrip_decoder, material, illum, sensor):
        # Of the first ten images, the lshape and the strip have confident poses.
        confident = 0
        for blob in _roundtrip_blobs(roundtrip_decoder, material, illum, sensor, 10):
            pose = estimate_pose(blob)
            confident += pose.confident
            for p in (pose, None):
                assert_patches_like_frozen(blob, p)
        assert confident > 0

    def test_canonical_patches_at_the_raster_edge(self, roundtrip_decoder, material,
                                                  illum, sensor):
        # A sphere at the raster's corner: the blob's box meets two edges,
        # and many sample points fall off it.
        half = sensor.extent_mm / 2
        scenario = ContactScenario(SphereProbe(10.0), half - 3.4, -half + 3.4, 0.0, 4.0,
                                   0.02)
        image = simulate(scenario, material, illum, sensor, seed=5)[0]
        blob, = _decode_measurements(difference_image(image, roundtrip_decoder.reference),
                                     sensor, roundtrip_decoder.cfg)
        assert blob.ys.min() == 0 and blob.xs.max() == sensor.input_size - 1
        assert_patches_like_frozen(blob, None)

    def test_scores_per_class(self, roundtrip_decoder, material, illum, sensor):
        models = roundtrip_decoder.models
        for blob in _roundtrip_blobs(roundtrip_decoder, material, illum, sensor):
            pose = estimate_pose(blob)
            for p in (pose, None):
                want = frozen_scores(_patches(blob, p), models)
                for cls, model in models.items():
                    assert classify(blob, {cls: model}, p) == (cls, want[cls])
                ranked = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))
                assert classify(blob, models, p) == ranked[0]

    def test_ties(self, roundtrip_decoder, material, illum, sensor):
        # "a" and "b" hold one class's variants in either order; "c" holds an
        # empty mask and "d" nothing, so both score 0.
        blob = next(_roundtrip_blobs(roundtrip_decoder, material, illum, sensor, 1))
        pose = estimate_pose(blob)
        variants = next(iter(roundtrip_decoder.models.values())).variants
        empty = np.zeros_like(variants[0][1])
        twins = {name: ClassModel([], 0.0, v) for name, v in (
            ("b", variants), ("a", variants[::-1]), ("c", [(1.0, empty)]), ("d", []))}
        want = frozen_scores(_patches(blob, pose), twins)
        assert want["a"] == want["b"] > 0 and want["c"] == want["d"] == 0.0
        assert classify(blob, twins, pose) == ("a", want["a"])
        low = {name: twins[name] for name in ("d", "c")}
        assert classify(blob, low, pose) == ("c", 0.0)


class TestDecodeLeavesTheImage:
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_pixels_untouched(self, noise, roundtrip_decoder, material, illum, sensor):
        scenario = ContactScenario(SUITES["roundtrip"]()[0], 2.0, -3.0, 20.0, 5.0, noise)
        image = simulate(scenario, material, illum, sensor, seed=3)[0]
        before = image.copy()
        assert roundtrip_decoder.decode(image)
        assert np.array_equal(image, before)
        reference = make_reference(sensor, illum)
        assert np.array_equal(roundtrip_decoder.reference, reference)


def traced_peak(call) -> int:
    """Bytes allocated at the peak of a second ``call``; the first one warms
    caches."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestRasterPeaks:
    def test_decode_frees_the_read_image(self, roundtrip_decoder, sensor, tmp_path):
        # decode drops the image it was handed once the deviation is formed,
        # and the deviation before classification: 2.0-2.4 rasters here,
        # where holding both read 3.1-4.0.
        spec = DatasetSpec(count=20, master_seed=41, force_range=(0.8, 10.0),
                           noise_sigma=0.02, sensor=sensor)
        generate_dataset(spec, tmp_path)
        raster = sensor.input_size ** 2 * 8
        paths = sorted(tmp_path.rglob("*.pgm"))
        assert len(paths) == 20
        for path in paths:
            peak = traced_peak(lambda: roundtrip_decoder.decode(read_pgm(path)))
            assert peak <= 3.0 * raster, (path.name, peak / raster)

    def test_pgm_bytes_has_no_float_copy(self, sensor, rng):
        # The 16-bit payload and the joined file (0.25 raster each) plus one
        # block of rows, where a clipped float copy read 1.25 rasters.
        image = rng.uniform(-0.1, 1.1, (sensor.input_size,) * 2)
        peak = traced_peak(lambda: pgm_bytes(image))
        assert peak <= 0.75 * sensor.input_size ** 2 * 8, peak
