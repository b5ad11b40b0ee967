import numpy as np
import pytest

from deformgabor.data import (AugmentConfig, SynthLesionSpec, augment,
                              build_bags, deform_transform, gen_bag,
                              salt_noise)


class TestGenBag:
    def test_forced_positive(self):
        spec = SynthLesionSpec(positive_fraction=1.0, seed=3)
        for i in range(20):
            _, label, truth = gen_bag(spec, i)
            assert label == 1 and len(truth) >= 1

    def test_forced_negative(self):
        spec = SynthLesionSpec(positive_fraction=0.0, seed=3)
        for i in range(20):
            _, label, truth = gen_bag(spec, i)
            assert label == 0 and truth == []

    def test_deterministic_bytes(self):
        spec = SynthLesionSpec(seed=7)
        a, la, _ = gen_bag(spec, 5)
        b, lb, _ = gen_bag(spec, 5)
        assert la == lb and a.tobytes() == b.tobytes()

    def test_intensity_range_and_finiteness(self):
        spec = SynthLesionSpec(contrast=2.0, noise_std=0.5, seed=1)
        for i in range(10):
            img, _, _ = gen_bag(spec, i)
            assert np.isfinite(img).all()
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_zero_contrast_statistics(self):
        # with no lesion signal, positives and negatives share the background law
        spec = SynthLesionSpec(contrast=0.0, seed=2, noise_std=0.1)
        pos = [img for img, y, _ in (gen_bag(spec, i) for i in range(200)) if y == 1]
        neg = [img for img, y, _ in (gen_bag(spec, i) for i in range(200)) if y == 0]
        assert abs(np.mean(pos) - np.mean(neg)) < 5e-3

    def test_lesion_count_validation(self):
        with pytest.raises(ValueError):
            SynthLesionSpec(lesion_count=(0, 2))

    def test_build_bags(self):
        spec = SynthLesionSpec(seed=4)
        bags = build_bags(spec, 5)
        assert len(bags) == 5
        img, label = bags[0]
        assert img.shape == (1, 32, 32) and label in (0, 1)


class TestDeformTransform:
    def test_identity(self):
        rng = np.random.default_rng(0)
        img = rng.random((1, 16, 16))
        np.testing.assert_allclose(deform_transform(img, 1.0, 0.0), img, atol=1e-12)

    def test_half_turn_on_symmetric_image(self):
        n = 15
        yy, xx = np.mgrid[0:n, 0:n].astype(float)
        c = (n - 1) / 2
        img = np.exp(-((yy - c) ** 2 + (xx - c) ** 2) / 10.0)  # centrally symmetric
        np.testing.assert_allclose(deform_transform(img, 1.0, np.pi), img, atol=1e-10)

    def test_shrink_constant_image(self):
        img = np.full((17, 17), 0.8)
        out = deform_transform(img, 0.5, 0.0)
        np.testing.assert_allclose(out[6:11, 6:11], 0.8, atol=1e-12)  # interior constant
        assert out[0, 0] == 0.0 and out[-1, -1] == 0.0  # border zero-filled

    def test_inverse_composition_recovers_interior(self):
        n = 24
        yy, xx = np.mgrid[0:n, 0:n].astype(float)
        img = 0.5 + 0.4 * np.sin(yy / 4.0) * np.cos(xx / 5.0)  # smooth
        fwd = deform_transform(img, 1.25, 0.7)
        back = deform_transform(fwd, 1 / 1.25, -0.7)
        inner = slice(6, n - 6)
        err = np.mean(np.abs(back[inner, inner] - img[inner, inner]))
        assert err < 0.02 * (img.max() - img.min())


class TestSaltNoise:
    def test_prob_zero_identity(self):
        img = np.random.default_rng(1).random((1, 8, 8))
        np.testing.assert_array_equal(salt_noise(img, prob=0.0, seed=0), img)

    def test_prob_one_saturates(self):
        img = np.random.default_rng(2).random((1, 8, 8))
        out = salt_noise(img, prob=1.0, value=1.0, seed=0)
        assert (out == 1.0).all()

    def test_binomial_count(self):
        img = np.zeros((1, 224, 224))
        out = salt_noise(img, prob=0.01, value=1.0, seed=5)
        count = int(out.sum())
        expected = 224 * 224 * 0.01
        sigma = np.sqrt(224 * 224 * 0.01 * 0.99)
        assert abs(count - expected) < 4 * sigma


class TestAugment:
    def test_all_probabilities_zero_is_identity(self):
        img = np.random.default_rng(3).random((1, 16, 16))
        cfg = AugmentConfig(flip_prob=0, rotate_prob=0, shift_prob=0, cutout_prob=0)
        np.testing.assert_array_equal(augment(img, cfg, seed=9), img)

    def test_cutout_zeros_exactly_box_area(self):
        img = np.full((1, 20, 20), 0.7)
        cfg = AugmentConfig(flip_prob=0, rotate_prob=0, shift_prob=0,
                            cutout_prob=1.0, cutout_frac=0.25)
        out = augment(img, cfg, seed=4)
        assert int(np.sum(out == 0.0)) == 5 * 5

    def test_deterministic(self):
        img = np.random.default_rng(5).random((1, 16, 16))
        a = augment(img, AugmentConfig(), seed=11)
        b = augment(img, AugmentConfig(), seed=11)
        assert a.tobytes() == b.tobytes()

    def test_preserves_range(self):
        img = np.random.default_rng(6).random((1, 16, 16))
        out = augment(img, AugmentConfig(), seed=13)
        assert np.isfinite(out).all()
        assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-12
