import warnings

import numpy as np
import pytest

from conftest import fd_grad, rel_err
from deformgabor.deform import (OffsetPredictor, bilinear_sample,
                                deform_conv_backward, deform_conv_forward,
                                predict_offsets, sample_backward, sample_grid,
                                sample_values, zero_predictor)
from deformgabor.tensor import conv2d_naive


class TestPredictOffsets:
    def test_zero_predictor(self):
        x = np.random.default_rng(0).standard_normal((2, 5, 5))
        off = predict_offsets(x, zero_predictor(2, 3), stride=1, pad=1)
        assert off.shape == (18, 5, 5)
        assert not off.any()

    def test_bias_only(self):
        x = np.random.default_rng(1).standard_normal((1, 4, 4))
        pred = OffsetPredictor(weight=np.zeros((18, 1, 3, 3)), bias=np.full(18, 0.5))
        off = predict_offsets(x, pred, stride=1, pad=1)
        np.testing.assert_array_equal(off, np.full((18, 4, 4), 0.5))

    def test_matches_naive_conv_plus_bias(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 6, 6))
        pred = OffsetPredictor(weight=rng.standard_normal((18, 2, 3, 3)),
                               bias=rng.standard_normal(18))
        off = predict_offsets(x, pred, stride=1, pad=1)
        expect = conv2d_naive(x, pred.weight, pad=1) + pred.bias[:, None, None]
        np.testing.assert_allclose(off, expect, atol=1e-12)

    def test_channel_count_enforced(self):
        with pytest.raises(ValueError):
            OffsetPredictor(weight=np.zeros((17, 1, 3, 3)), bias=np.zeros(17))


class TestBilinearSample:
    def test_exact_at_grid_points(self):
        plane = np.arange(12.0).reshape(3, 4)
        assert bilinear_sample(plane, 1, 2) == plane[1, 2]

    def test_center_of_four_corners(self):
        plane = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert bilinear_sample(plane, 0.5, 0.5) == pytest.approx(1.5)

    def test_far_out_of_bounds(self):
        plane = np.ones((3, 3))
        assert bilinear_sample(plane, -5.0, -5.0) == 0.0

    def test_partial_border(self):
        plane = np.ones((2, 2))
        # half a pixel above the top edge: only the lower corners contribute
        assert bilinear_sample(plane, -0.5, 0.0) == pytest.approx(0.5)

    def test_lipschitz_continuity(self):
        rng = np.random.default_rng(3)
        plane = rng.standard_normal((5, 5))
        bound = 2.0 * np.abs(plane).max()
        for _ in range(200):
            y, x = rng.uniform(-1.5, 5.5, size=2)
            dy, dx = rng.uniform(-0.05, 0.05, size=2)
            a = bilinear_sample(plane, y, x)
            b = bilinear_sample(plane, y + dy, x + dx)
            assert abs(a - b) <= bound * (abs(dy) + abs(dx)) + 1e-12


class TestDeformForward:
    def test_zero_offsets_reduce_to_naive(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            hi = int(rng.integers(5, 9))
            x = rng.standard_normal((cin, hi, hi))
            w = rng.standard_normal((cout, cin, 3, 3))
            off = np.zeros((18, hi - 2, hi - 2))
            got = deform_conv_forward(x, w, off)
            np.testing.assert_allclose(got, conv2d_naive(x, w), atol=1e-12)

    def test_constant_field_integer_offsets(self):
        x = np.full((1, 6, 6), 2.5)
        w = np.random.default_rng(5).standard_normal((1, 1, 3, 3))
        zero = np.zeros((18, 4, 4))
        off = np.zeros((18, 4, 4))
        off[3] = 1.0   # dy of one tap
        off[9 + 5] = -1.0  # dx of another
        base = deform_conv_forward(x, w, zero)
        # keep displaced taps in bounds: restrict to interior outputs
        got = deform_conv_forward(x, w, off)
        np.testing.assert_allclose(got[:, 1:-1, 1:-1], base[:, 1:-1, 1:-1], atol=1e-12)

    def test_single_tap_shift(self):
        x = np.array([[[1.0, 2.0, 3.0]]])
        w = np.ones((1, 1, 1, 1))
        off = np.zeros((2, 1, 3))
        off[1] = 1.0  # dx = +1
        got = deform_conv_forward(x, w, off)
        np.testing.assert_allclose(got, [[[2.0, 3.0, 0.0]]], atol=0)

    def test_offset_grid_must_match(self):
        with pytest.raises(ValueError):
            deform_conv_forward(np.zeros((1, 5, 5)), np.zeros((1, 1, 3, 3)),
                                np.zeros((18, 4, 4)))


class TestDeformBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 5, 5))
        w = rng.standard_normal((1, 2, 3, 3))
        off = rng.uniform(-0.4, 0.4, size=(18, 3, 3))
        gx, gw, go = deform_conv_backward(np.zeros((1, 3, 3)), x, w, off)
        assert not gx.any() and not gw.any() and not go.any()

    def test_zero_offsets_input_weight_grads(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 4, 4))
        w = rng.standard_normal((2, 1, 3, 3))
        off = np.zeros((18, 2, 2))
        g = rng.standard_normal((2, 2, 2))

        def loss():
            return float(np.sum(deform_conv_forward(x, w, off) * g))

        gx, gw, _ = deform_conv_backward(g, x, w, off)
        assert rel_err(gx, fd_grad(loss, x)) < 1e-6
        assert rel_err(gw, fd_grad(loss, w)) < 1e-6

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_all_grads_at_fractional_offsets(self, stride, pad):
        rng = np.random.default_rng(8 + stride + pad)
        x = rng.standard_normal((2, 7, 7))
        w = rng.standard_normal((2, 2, 3, 3))
        ho = (7 + 2 * pad - 3) // stride + 1
        off = rng.uniform(0.1, 0.45, size=(18, ho, ho)) * rng.choice([-1, 1], size=(18, ho, ho))
        g = rng.standard_normal((2, ho, ho))

        def loss():
            return float(np.sum(deform_conv_forward(x, w, off, stride, pad) * g))

        gx, gw, go = deform_conv_backward(g, x, w, off, stride, pad)
        assert rel_err(gx, fd_grad(loss, x)) < 1e-5
        assert rel_err(gw, fd_grad(loss, w)) < 1e-5
        assert rel_err(go, fd_grad(loss, off)) < 1e-5


class TestFarTaps:
    """Taps far outside the image read zero and pass no gradient, without warnings."""

    @pytest.mark.parametrize("far", [1e19, -1e19, 1e300])
    def test_read_zero_and_zero_gradients(self, far):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 5, 6))
        offsets = rng.uniform(-0.4, 0.4, size=(2, 18, 5, 6))
        offsets[0, 4, 1, 1] = far           # dy of the centre tap at one position
        offsets[1, 9 + 2, 3, 4] = far       # dx of a corner tap
        offsets[1, 7, 0, 0] = offsets[1, 9 + 7, 0, 0] = -far
        far_taps = [(0, 4, 1, 1), (1, 2, 3, 4), (1, 7, 0, 0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = sample_grid(x, offsets, 3, stride=1, pad=1)
            v = sample_values(cache)
            grad = np.zeros_like(v)
            for b, k, i, j in far_taps:
                assert not v[b, :, k, i, j].any()
                grad[b, :, k, i, j] = rng.standard_normal(3)
            grad_x, grad_off = sample_backward(cache, grad)
            assert not grad_x.any()
            assert not grad_off.any()
            assert v[0, :, 4, 2, 2].all()  # a near tap still reads the image
            for y, x_ in ((far, 1.0), (1.0, far), (far, far)):
                assert bilinear_sample(x[0, 0], y, x_) == 0.0


def offset_grad_per_plane(cache, grad_samples):
    """Offset gradient with the slopes formed on every plane, then reduced over
    planes: the reference for the planes-first contraction in sample_backward."""
    v00, v01, v10, v11 = (cache.corners[:, :, k] for k in range(4))
    dvdy = (1 - cache.fx) * (v10 - v00) + cache.fx * (v11 - v01)
    dvdx = (1 - cache.fy) * (v01 - v00) + cache.fy * (v11 - v10)
    return np.concatenate([(grad_samples * dvdy).sum(axis=1),
                           (grad_samples * dvdx).sum(axis=1)], axis=1)


class TestOffsetGradPlanesFirst:
    """Reducing over the planes before forming the slopes reorders sums only."""

    @pytest.mark.parametrize("b", [1, 3])
    def test_matches_per_plane_slopes(self, b):
        rng = np.random.default_rng(20 + b)
        x = rng.standard_normal((b, 4, 6, 7))
        offsets = rng.uniform(-0.9, 0.9, size=(b, 18, 6, 7))
        far = rng.choice([-1, 1], size=(b, 18, 3)) * rng.uniform(6, 40, (b, 18, 3))
        offsets[:, :, 0, :3] = far  # taps far outside the image
        offsets[:, :, 2:4, 2:5] = rng.integers(-2, 3, size=(b, 18, 2, 3))  # integer taps
        cache = sample_grid(x, offsets, 3, stride=1, pad=1)
        g = rng.standard_normal(sample_values(cache).shape)
        _, grad_off = sample_backward(cache, g)
        ref = offset_grad_per_plane(cache, g)
        assert np.abs(ref).max() > 0
        assert np.abs(grad_off - ref).max() <= 1e-14 * np.abs(ref).max()
