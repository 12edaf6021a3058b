"""Image filters and the keypoint detector/descriptor."""

import numpy as np
import pytest

from parasnet import synth
from parasnet.baseline import filters, sift

import blur_ref
import sift_ref


def brute_force_gaussian_blur(image, sigma):
    kernel = filters.gaussian_kernel1d(sigma)
    radius = len(kernel) // 2
    h, w = image.shape
    padded = np.pad(image, radius, mode="edge")
    k2 = np.outer(kernel, kernel)
    out = np.zeros_like(image, dtype=np.float64)
    for i in range(h):
        for j in range(w):
            out[i, j] = np.sum(padded[i:i + 2 * radius + 1, j:j + 2 * radius + 1] * k2)
    return out


class TestFilters:
    def test_kernel_is_normalized_and_symmetric(self):
        for sigma in [0.5, 1.0, 1.6, 3.2]:
            k = filters.gaussian_kernel1d(sigma)
            assert len(k) % 2 == 1
            assert abs(k.sum() - 1.0) < 1e-12
            np.testing.assert_allclose(k, k[::-1])

    def test_kernel_rejects_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            filters.gaussian_kernel1d(0.0)
        with pytest.raises(ValueError, match="sigma"):
            filters.gaussian_kernel1d(-1.0)

    def test_separable_blur_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(4):
            img = rng.random((int(rng.integers(8, 20)), int(rng.integers(8, 20))))
            sigma = float(rng.uniform(0.6, 2.5))
            got = filters.gaussian_blur(img, sigma)
            want = brute_force_gaussian_blur(img, sigma)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("shape", [(70, 45), (244, 324), (122, 162), (61, 81)])
    def test_blocked_blur_matches_the_tap_loop(self, shape):
        # multi-block and ragged sizes: the pyramid's octaves at full
        # resolution and one not divisible by the block on either axis,
        # at the preprocess blur and four of the pyramid's, rounded
        rng = np.random.default_rng(sum(shape))
        img = rng.random(shape)
        for sigma in (1.0, 1.2263, 1.5450, 2.4525, 3.0898):
            got = filters.gaussian_blur(img, sigma)
            np.testing.assert_allclose(got, blur_ref.gaussian_blur(img, sigma), rtol=1e-14, atol=0)

    def test_radius_wider_than_the_image(self):
        img = np.random.default_rng(15).random((8, 8))
        assert len(filters.gaussian_kernel1d(3.09)) // 2 > 8
        got = filters.gaussian_blur(img, 3.09)
        np.testing.assert_allclose(got, blur_ref.gaussian_blur(img, 3.09), rtol=1e-14, atol=0)

    def test_strided_and_float32_inputs(self):
        rng = np.random.default_rng(16)
        base = rng.random((245, 323))
        # a next octave's seed is a [::2, ::2] view of a level
        for img in (base[::2, ::2], base[3:200, 5:].T, base.astype(np.float32)):
            got = filters.gaussian_blur(img, 1.6)
            assert got.dtype == np.float64 and got.shape == img.shape
            np.testing.assert_allclose(got, blur_ref.gaussian_blur(img, 1.6), rtol=1e-14, atol=0)
        np.testing.assert_array_equal(
            filters.gaussian_blur(base[::2, ::2], 1.6),
            filters.gaussian_blur(np.ascontiguousarray(base[::2, ::2]), 1.6),
        )

    def test_band_is_cached_and_read_only(self):
        band = filters._band(1.6)
        assert filters._band(1.6) is band
        assert not band.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            band[0, 0] = 1.0

    def test_pyramid_levels_are_the_blur_bit_for_bit(self):
        # each level is written in place, and a seed level is copied from
        # a strided view, with no change to the bits gaussian_blur returns
        img = np.random.default_rng(17).random((70, 45)).astype(np.float32)
        step = 2.0 ** (1.0 / sift.SCALES_PER_OCTAVE)
        sigmas = [sift.SIGMA0 * step**s for s in range(sift.SCALES_PER_OCTAVE + 3)]
        diffs = [np.sqrt(b**2 - a**2) for a, b in zip(sigmas, sigmas[1:])]
        current = filters.gaussian_blur(img, np.sqrt(sift.SIGMA0**2 - sift.ASSUMED_BLUR**2))
        octaves = sift.build_pyramid(img)
        assert len(octaves) == 2
        for octave in octaves:
            levels = [current]
            for diff in diffs:
                levels.append(filters.gaussian_blur(levels[-1], diff))
            assert octave.tobytes() == np.stack(levels).tobytes()
            current = levels[sift.SCALES_PER_OCTAVE][::2, ::2]

    def test_blur_preserves_constants(self):
        img = np.full((12, 15), 0.37)
        np.testing.assert_allclose(filters.gaussian_blur(img, 1.3), img, rtol=1e-12)

    def test_blur_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-d"):
            filters.gaussian_blur(np.zeros((4, 4, 1)), 1.0)
        with pytest.raises(ValueError, match="2-d"):
            filters.gaussian_blur(np.zeros((0, 4)), 1.0)

    def test_contrast_stretch_hits_full_range(self):
        rng = np.random.default_rng(1)
        img = rng.random((10, 10)) * 0.3 + 0.2
        out = filters.contrast_stretch(img)
        assert abs(out.min()) < 1e-12
        assert abs(out.max() - 1.0) < 1e-12

    def test_contrast_stretch_flat_image_is_mid_grey(self):
        out = filters.contrast_stretch(np.full((6, 6), 0.8))
        np.testing.assert_array_equal(out, np.full((6, 6), 0.5))
        out = filters.preprocess(np.full((40, 40), 0.13))
        np.testing.assert_array_equal(out, np.full((40, 40), 0.5))

    def test_preprocess_accepts_channel_axis(self):
        rng = np.random.default_rng(2)
        img = rng.random((20, 24, 1))
        out = filters.preprocess(img)
        assert out.shape == (20, 24)
        np.testing.assert_array_equal(out, filters.preprocess(img[:, :, 0]))


def gaussian_blob(h, w, cy, cx, sigma, amplitude=1.0):
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    return amplitude * np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2)))


class TestDetector:
    def test_constant_image_has_no_keypoints(self):
        kps, desc = sift.detect_and_describe(np.full((64, 64), 0.5))
        assert kps == []
        assert desc.shape == (0, sift.DESCRIPTOR_SIZE)

    def test_single_blob_keypoint_sits_on_the_blob(self):
        img = gaussian_blob(96, 96, 40.0, 44.0, 4.0)
        kps, desc = sift.detect_and_describe(img)
        assert len(kps) >= 1
        best = kps[0]
        assert np.hypot(best.y - 40.0, best.x - 44.0) < 2.0
        assert len(desc) == len(kps)

    def test_keypoints_are_sorted_by_response_magnitude(self):
        rng = np.random.default_rng(3)
        img = rng.random((80, 80))
        kps, _ = sift.detect_and_describe(img)
        mags = [abs(k.response) for k in kps]
        assert mags == sorted(mags, reverse=True)

    def test_higher_contrast_threshold_finds_fewer_keypoints(self, monkeypatch):
        rng = np.random.default_rng(4)
        img = rng.random((72, 72))
        counts = []
        for thresh in (0.01, 0.06):
            monkeypatch.setattr(sift, "CONTRAST_THRESH", thresh)
            counts.append(len(sift.detect_and_describe(img)[0]))
        n_loose, n_tight = counts
        assert n_tight <= n_loose

    def test_max_keypoints_caps_the_output(self, monkeypatch):
        rng = np.random.default_rng(5)
        img = rng.random((100, 100))
        monkeypatch.setattr(sift, "MAX_KEYPOINTS", 5)
        kps, desc = sift.detect_and_describe(img)
        assert len(kps) <= 5
        assert desc.shape[0] == len(kps)

    def test_pyramid_respects_octave_cap(self, monkeypatch):
        img = np.random.default_rng(6).random((256, 256))
        monkeypatch.setattr(sift, "MAX_OCTAVES", 2)
        octs = sift.build_pyramid(img)
        assert len(octs) == 2

    def test_pyramid_halves_resolution_per_octave(self):
        img = np.random.default_rng(7).random((64, 96))
        octs = sift.build_pyramid(img)
        assert octs[0].shape[1:] == (64, 96)
        assert octs[1].shape[1:] == (32, 48)
        assert all(o.shape[0] == 6 for o in octs)

    def test_rejects_non_2d_input(self):
        with pytest.raises(ValueError, match="2-d"):
            sift.build_pyramid(np.zeros((8, 8, 1)))

    def test_rejects_tiny_images(self):
        with pytest.raises(ValueError, match="too small"):
            sift.detect_and_describe(np.zeros((31, 40)))

    def test_keypoint_count_survives_whole_pixel_shifts(self):
        rng = np.random.default_rng(11)
        base = np.full((100, 100), 0.4)
        for _ in range(4):
            base += gaussian_blob(
                100, 100,
                float(rng.uniform(35, 65)), float(rng.uniform(35, 65)),
                float(rng.uniform(2.5, 4.0)), float(rng.uniform(0.5, 1.0)),
            )

        def interior_count(img):
            kps, _ = sift.detect_and_describe(img)
            return sum(1 for k in kps if 20 < k.y < 80 and 20 < k.x < 80)

        shifted = np.roll(np.roll(base, 3, axis=0), 5, axis=1)
        assert interior_count(base) == interior_count(shifted)


class TestDescriptor:
    def test_descriptors_are_unit_norm_and_clipped(self):
        rng = np.random.default_rng(8)
        img = rng.random((90, 90))
        _, desc = sift.detect_and_describe(img)
        assert len(desc) > 0
        norms = np.linalg.norm(desc, axis=1)
        np.testing.assert_allclose(norms, np.ones_like(norms), atol=1e-9)
        assert desc.min() >= 0.0
        # renormalization after the 0.2 clip can push entries slightly over
        assert desc.max() <= 0.5

    def test_descriptor_roughly_invariant_to_quarter_rotation(self):
        # a scene of a few blobs; rotating by 90 degrees should map
        # descriptors onto each other thanks to orientation assignment
        img = np.zeros((96, 96))
        rng = np.random.default_rng(9)
        for _ in range(6):
            img += gaussian_blob(
                96, 96,
                float(rng.uniform(20, 76)), float(rng.uniform(20, 76)),
                float(rng.uniform(2.5, 5.0)), float(rng.uniform(0.5, 1.0)),
            )
        rot = np.rot90(img).copy()
        kps_a, desc_a = sift.detect_and_describe(img)
        kps_b, desc_b = sift.detect_and_describe(rot)
        assert len(kps_a) >= 3 and len(kps_b) >= 3
        h = img.shape[0]
        sims = []
        for ka, da in zip(kps_a, desc_a):
            # the same physical point after rot90(counter-clockwise)
            ty, tx = h - 1 - ka.x, ka.y
            dists = [np.hypot(kb.y - ty, kb.x - tx) for kb in kps_b]
            j = int(np.argmin(dists))
            if dists[j] < 3.0:
                na = np.linalg.norm(da)
                nb = np.linalg.norm(desc_b[j])
                sims.append(float(da @ desc_b[j] / (na * nb + 1e-12)))
        assert len(sims) >= 3
        assert np.median(sims) > 0.7


def dense_find_extrema(dog):
    """Reference extremum finder: every pixel against a (26, h, w) neighbour stack.

    The contrast test is applied to the whole level only after the
    neighbour comparison; the shipped finder compares only the pixels
    that pass it. Both read the package's thresholds when called.
    """
    out = []
    n_levels = dog.shape[0]
    threshold = sift.CONTRAST_THRESH
    edge_limit = (sift.EDGE_RATIO + 1.0) ** 2 / sift.EDGE_RATIO
    for lev in range(1, n_levels - 1):
        center = dog[lev, 1:-1, 1:-1]
        neighbours = []
        for dl in (-1, 0, 1):
            plane = dog[lev + dl]
            for dy in (0, 1, 2):
                for dx in (0, 1, 2):
                    if dl == 0 and dy == 1 and dx == 1:
                        continue
                    neighbours.append(
                        plane[dy : dy + center.shape[0], dx : dx + center.shape[1]]
                    )
        stack = np.stack(neighbours)
        is_max = center > stack.max(axis=0)
        is_min = center < stack.min(axis=0)
        mask = (is_max | is_min) & (np.abs(center) >= threshold)
        if not mask.any():
            continue

        plane = dog[lev]
        ys, xs = np.nonzero(mask)
        ys, xs = ys + 1, xs + 1
        dxx = plane[ys, xs + 1] + plane[ys, xs - 1] - 2.0 * plane[ys, xs]
        dyy = plane[ys + 1, xs] + plane[ys - 1, xs] - 2.0 * plane[ys, xs]
        dxy = (
            plane[ys + 1, xs + 1]
            - plane[ys + 1, xs - 1]
            - plane[ys - 1, xs + 1]
            + plane[ys - 1, xs - 1]
        ) / 4.0
        trace = dxx + dyy
        det = dxx * dyy - dxy * dxy
        keep = (det > 0) & (trace * trace / np.where(det > 0, det, 1.0) < edge_limit)
        for y, x, ok in zip(ys, xs, keep):
            if ok:
                out.append((lev, int(y), int(x), float(plane[y, x])))
    return out


def assert_same_extrema(dog):
    got = sift._find_extrema(dog)
    want = dense_find_extrema(dog)
    # repr keeps NaN == NaN and the sign of zero
    assert repr(got) == repr(want)
    return len(got)


class TestExtremaMatchDenseReference:
    def test_dog_stacks_of_synthetic_images(self):
        found = 0
        for label in (0, 1, 2):
            for index in range(2):
                img = synth.gen_sample(label, index, synth.GenConfig(), 5, "test")
                for octave in sift.build_pyramid(filters.preprocess(img)):
                    found += assert_same_extrema(sift.dog_stack(octave))
        assert found > 0

    def test_keypoints_of_synthetic_images_match_the_tap_loop_pipeline(self, monkeypatch):
        # the blocked blur sums in another order; on these images no
        # keypoint moves, appears or disappears
        found = 0
        for label in (0, 1, 2):
            for index in range(2):
                img = synth.gen_sample(label, index, synth.GenConfig(), 5, "test")
                got, got_desc = sift.detect_and_describe(filters.preprocess(img))
                with monkeypatch.context() as m:
                    m.setattr(sift, "build_pyramid", blur_ref.build_pyramid)
                    want, want_desc = sift.detect_and_describe(blur_ref.preprocess(img))
                assert [(k.octave, k.level, k.y, k.x, k.orientation) for k in got] == [
                    (k.octave, k.level, k.y, k.x, k.orientation) for k in want
                ]
                np.testing.assert_allclose(got_desc, want_desc, rtol=0, atol=1e-13)
                found += len(got)
        assert found > 0

    def test_integer_stacks_with_ties_and_plateaus(self, monkeypatch):
        rng = np.random.default_rng(12)
        found = 0
        # a ratio this large turns the edge test off
        monkeypatch.setattr(sift, "EDGE_RATIO", 1e9)
        for thresh in (0.0, 1.0, 2.0):
            monkeypatch.setattr(sift, "CONTRAST_THRESH", thresh)
            for shape in [(5, 24, 31), (3, 3, 3), (4, 7, 5), (6, 17, 9)]:
                for span in (1, 3):
                    dog = rng.integers(-span, span + 1, size=shape).astype(np.float64)
                    found += assert_same_extrema(dog)
        assert found > 0

    def test_values_exactly_at_the_contrast_threshold(self, monkeypatch):
        t = sift.CONTRAST_THRESH
        levels = np.array([-2 * t, -t, -t / 2, 0.0, t / 2, t, 2 * t])
        rng = np.random.default_rng(13)
        found = 0
        for _ in range(6):
            dog = rng.choice(levels, size=(5, 20, 22))
            # isolated peaks and pits of exactly +-t
            dog[1:4, 5:8, 5:8] = 0.0
            dog[2, 6, 6] = t
            dog[1:4, 12:15, 12:15] = 0.0
            dog[2, 13, 13] = -t
            with monkeypatch.context() as m:
                m.setattr(sift, "EDGE_RATIO", 1e9)
                found += assert_same_extrema(dog)
            found += assert_same_extrema(dog)
        assert found > 0

    def test_stacks_containing_nan(self, monkeypatch):
        monkeypatch.setattr(sift, "CONTRAST_THRESH", 0.5)
        rng = np.random.default_rng(14)
        found = 0
        for share in (0.01, 0.1, 0.5):
            dog = rng.normal(size=(5, 30, 26))
            dog[rng.random(dog.shape) < share] = np.nan
            found += assert_same_extrema(dog)
        # a NaN centre or a NaN neighbour removes an otherwise clear peak
        dog = np.zeros((3, 9, 9))
        dog[1, 4, 4] = 1.0
        assert assert_same_extrema(dog) == 1
        dog[0, 3, 5] = np.nan
        assert assert_same_extrema(dog) == 0
        dog[0, 3, 5] = 0.0
        dog[1, 4, 4] = np.nan
        assert assert_same_extrema(dog) == 0
        assert found > 0


def assert_same_description(img):
    got, got_desc = sift.detect_and_describe(img)
    want, want_desc = sift_ref.detect_and_describe(img)
    # repr compares every field's exact float, and the field types
    assert repr(got) == repr(want)
    assert got_desc.dtype == want_desc.dtype and got_desc.shape == want_desc.shape
    assert np.array_equal(got_desc, want_desc)
    return got


def window_crosses_the_border(kp, shape):
    """Whether kp's orientation window leaves its octave's plane."""
    h, w = (-(-n // 2**kp.octave) for n in shape)
    y, x = kp.y / 2.0**kp.octave, kp.x / 2.0**kp.octave
    radius = sift._ORI_RADIUS[kp.level]
    return min(y, x) < radius or y + radius >= h or x + radius >= w


class TestDescriptionMatchesPerKeypointReference:
    def test_synthetic_images(self):
        found = 0
        for label in (0, 1, 2):
            for index in range(2):
                img = synth.gen_sample(label, index, synth.GenConfig(), 5, "test")
                found += len(assert_same_description(filters.preprocess(img)))
        assert found > 0

    @pytest.mark.parametrize(
        "constants",
        [{}, {"MAX_KEYPOINTS": 5}, {"CONTRAST_THRESH": 0.0}],
        ids=["default", "max-keypoints-5", "no-contrast-test"],
    )
    def test_small_random_images_with_windows_across_the_border(self, monkeypatch, constants):
        for name, value in constants.items():
            monkeypatch.setattr(sift, name, value)
        rng = np.random.default_rng(18)
        found = crossing = 0
        for _ in range(12):
            h, w = (int(n) for n in rng.integers(32, 131, size=2))
            img = 0.1 * rng.random((h, w))
            for _ in range(4):
                img += gaussian_blob(
                    h, w, float(rng.uniform(0, h)), float(rng.uniform(0, w)),
                    float(rng.uniform(1.5, 5.0)), float(rng.uniform(-1.0, 1.0)),
                )
            kps = assert_same_description(img)
            found += len(kps)
            crossing += sum(window_crosses_the_border(k, img.shape) for k in kps)
        assert crossing > 0 and found > crossing

    def test_flat_image(self):
        # the reference returns ([], zeros((0, 128)))
        assert assert_same_description(np.full((40, 50), 0.25)) == []

    def test_every_pixel_of_a_noise_octave(self):
        # an orientation is only its histogram's argmax, so a few thousand
        # noisy windows, many with near-ties, check the histogram sums
        levels = np.random.default_rng(19).random((sift.SCALES_PER_OCTAVE + 3, 23, 26))
        grid = np.meshgrid(np.arange(1, 4), np.arange(23), np.arange(26), indexing="ij")
        lev, ys, xs = (a.ravel() for a in grid)
        got = sift._orientations(levels, lev, ys, xs)
        desc = sift._descriptors(levels, lev, ys, xs, got)
        grads = {level: sift_ref.gradients(levels[level]) for level in (1, 2, 3)}
        want, want_desc = [], []
        for level, y, x in zip(lev.tolist(), ys.tolist(), xs.tolist()):
            sigma_rel = sift._SIGMA_REL[level]
            want.append(sift_ref.orientation(*grads[level], y, x, sigma_rel))
            want_desc.append(sift_ref.descriptor(*grads[level], y, x, sigma_rel, want[-1]))
        assert got.tolist() == want
        for row in desc:
            sift._normalise(row)
        assert np.array_equal(desc, np.stack(want_desc))
