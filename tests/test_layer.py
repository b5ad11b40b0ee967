import numpy as np
import pytest

from conftest import fd_grad, rel_err
from deformgabor.deform import deform_conv_forward, predict_offsets
from deformgabor.gabor import identity_bank, make_bank
from deformgabor.layer import (LayerShape, dgconv_backward, dgconv_forward,
                               expand_orientation, init_params, modulate_conv,
                               modulate_gabor, param_count)
from deformgabor.tensor import conv2d_naive


def small_layer(rng, U=2, V=2, N=1, M=1, H=3, fractional_offsets=True):
    bank = make_bank(U, H)
    shape = LayerShape(U=U, V=V, H=H, N=N, M=M, N0=N, M0=M)
    p = init_params(rng, shape, bank)
    p.masks[:] = rng.uniform(0.5, 1.5, size=p.masks.shape)
    if fractional_offsets:
        # keep sampling points away from integers so gradients are smooth
        p.offset_pred.weight[:] = 0.01 * rng.standard_normal(p.offset_pred.weight.shape)
        p.offset_pred.bias[:] = rng.uniform(0.15, 0.4, size=p.offset_pred.bias.shape) \
            * rng.choice([-1.0, 1.0], size=p.offset_pred.bias.shape)
    return p


class TestExpandOrientation:
    def test_single_orientation(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 3))
        out = expand_orientation(x, 1)
        assert out.shape == (1, 2, 3, 3)
        np.testing.assert_array_equal(out[0], x)

    def test_constant(self):
        out = expand_orientation(np.ones((2, 3, 3)), 4)
        assert out.shape == (4, 2, 3, 3)
        assert (out == 1.0).all()

    def test_slices_identical(self):
        x = np.random.default_rng(1).standard_normal((3, 4, 4))
        out = expand_orientation(x, 5)
        for u in range(5):
            np.testing.assert_array_equal(out[u], out[0])


class TestModulation:
    def test_identity_mask(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal((2, 1, 3, 3, 3))
        d = modulate_conv(c, np.ones((4, 3, 3)))
        for v in range(4):
            np.testing.assert_array_equal(d[:, :, :, v], c)

    def test_zero_mask(self):
        c = np.random.default_rng(3).standard_normal((1, 1, 1, 3, 3))
        assert not modulate_conv(c, np.zeros((2, 3, 3))).any()

    def test_pointwise_oracle(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal((2, 2, 3, 3, 3))
        s = rng.standard_normal((2, 3, 3))
        d = modulate_conv(c, s)
        for m in range(2):
            for n in range(2):
                for u in range(3):
                    for v in range(2):
                        np.testing.assert_array_equal(d[m, n, u, v], c[m, n, u] * s[v])

    def test_gabor_identity_and_scalar_masks(self):
        bank = make_bank(3, 5)
        g1 = modulate_gabor(bank, np.ones((2, 5, 5)))
        for v in range(2):
            np.testing.assert_array_equal(g1[v], bank.filters)
        g2 = modulate_gabor(bank, 2.0 * np.ones((1, 5, 5)))
        np.testing.assert_allclose(g2[0], 2.0 * bank.filters, atol=0)

    def test_gabor_pointwise_oracle(self):
        rng = np.random.default_rng(5)
        bank = make_bank(2, 3)
        s = rng.standard_normal((3, 3, 3))
        ghat = modulate_gabor(bank, s)
        for v in range(3):
            for u in range(2):
                np.testing.assert_array_equal(ghat[v, u], s[v] * bank.filters[u])

    def test_mask_side_mismatch(self):
        with pytest.raises(ValueError):
            modulate_conv(np.zeros((1, 1, 1, 3, 3)), np.zeros((1, 5, 5)))


def stagewise_oracle(x, p, stride, pad):
    """Forward via the already-verified primitives, one stage at a time."""
    u, n, hi, wi = x.shape
    m = p.conv_filters.shape[0]
    v_cnt = p.masks.shape[0]
    h = p.gabor.H
    flat = x.reshape(u * n, hi, wi)
    off = predict_offsets(flat, p.offset_pred, stride=stride, pad=pad)
    dhat = modulate_conv(p.conv_filters, p.masks)  # [M,N,U,V,H,H]
    e = []
    for v in range(v_cnt):
        wv = dhat[:, :, :, v].transpose(0, 2, 1, 3, 4).reshape(m, u * n, h, h)
        e.append(deform_conv_forward(flat, wv, off, stride=stride, pad=pad))
    e = np.stack(e)  # [V, M, Ho, Wo]
    ghat = modulate_gabor(p.gabor, p.masks)
    out = np.empty((u, m) + e.shape[2:])
    for mm in range(m):
        out[:, mm] = conv2d_naive(e[:, mm], ghat.transpose(1, 0, 2, 3), pad=(h - 1) // 2)
    return out


# Layer shapes past the M = 1, H = 3 cases: several output channels make
# the (m, v) order of the modulated filters and the Gabor stage's sum over
# m visible, with 5x5 kernels and with a single orientation and mask.
WIDER_SHAPES = [dict(U=4, V=3, N=2, M=2, H=3), dict(U=2, V=2, N=1, M=3, H=5),
                dict(U=1, V=1, N=2, M=2, H=5)]


def shape_id(dims):
    return "-".join(f"{k}{v}" for k, v in dims.items())


class TestForward:
    def test_plain_conv_reduction(self):
        # masks at one, zero offsets, single orientation, identity Gabor kernel
        rng = np.random.default_rng(6)
        bank = identity_bank(3)
        shape = LayerShape(U=1, V=1, H=3, N=2, M=3, N0=2, M0=3)
        p = init_params(rng, shape, bank)
        x = rng.standard_normal((2, 6, 6))
        y, _ = dgconv_forward(expand_orientation(x, 1), p, stride=1, pad=1)
        plain = conv2d_naive(x, p.conv_filters[:, :, 0], pad=1)
        np.testing.assert_allclose(y[0], plain, atol=1e-12)

    def test_zero_input(self):
        rng = np.random.default_rng(7)
        p = small_layer(rng)
        y, _ = dgconv_forward(np.zeros((2, 1, 6, 6)), p, stride=1, pad=1)
        assert not y.any()

    def test_stagewise_oracle_composition(self):
        rng = np.random.default_rng(8)
        p = small_layer(rng, U=2, V=2, N=1, M=1, H=3)
        x = rng.standard_normal((2, 1, 6, 6))
        y, _ = dgconv_forward(x, p, stride=1, pad=1)
        np.testing.assert_allclose(y, stagewise_oracle(x, p, 1, 1), atol=1e-12)

    @pytest.mark.parametrize("dims", WIDER_SHAPES, ids=shape_id)
    def test_stagewise_oracle_wider(self, dims):
        rng = np.random.default_rng(9)
        p = small_layer(rng, **dims)
        x = rng.standard_normal((dims["U"], dims["N"], 6, 6))
        pad = (dims["H"] - 1) // 2
        y, _ = dgconv_forward(x, p, stride=1, pad=pad)
        np.testing.assert_allclose(y, stagewise_oracle(x, p, 1, pad), atol=1e-12)

    def test_fresh_layer_is_non_deformable(self):
        rng = np.random.default_rng(10)
        p = small_layer(rng, fractional_offsets=False)  # zero-init predictor
        x = rng.standard_normal((2, 1, 6, 6))
        y, cache = dgconv_forward(x, p, stride=1, pad=1)
        assert not cache.offsets.any()
        np.testing.assert_allclose(y, stagewise_oracle(x, p, 1, 1), atol=1e-12)

    def test_mask_permutation_leaves_output_unchanged(self):
        rng = np.random.default_rng(11)
        p = small_layer(rng, V=3)
        x = rng.standard_normal((2, 1, 6, 6))
        y1, _ = dgconv_forward(x, p, stride=1, pad=1)
        p.masks[:] = p.masks[[2, 0, 1]]
        y2, _ = dgconv_forward(x, p, stride=1, pad=1)
        np.testing.assert_allclose(y1, y2, atol=1e-12)

    def test_shape_validation(self):
        rng = np.random.default_rng(12)
        p = small_layer(rng, U=2)
        with pytest.raises(ValueError):
            dgconv_forward(np.zeros((3, 1, 6, 6)), p, stride=1, pad=1)


class TestBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(13)
        p = small_layer(rng)
        x = rng.standard_normal((2, 1, 6, 6))
        y, cache = dgconv_forward(x, p, stride=1, pad=1)
        for mode in ("exact", "paper"):
            grads = dgconv_backward(np.zeros_like(y), cache, mode=mode)
            for g in grads.values():
                assert not g.any()

    @pytest.mark.parametrize("dims", [dict(U=2, V=2, N=1, M=1, H=3)] + WIDER_SHAPES[1:],
                             ids=shape_id)
    def test_exact_gradients_finite_differences(self, dims):
        rng = np.random.default_rng(14)
        p = small_layer(rng, **dims)
        x = rng.standard_normal((dims["U"], dims["N"], 6, 6))
        gy = rng.standard_normal((dims["U"], dims["M"], 6, 6))
        pad = (dims["H"] - 1) // 2

        def loss():
            y, _ = dgconv_forward(x, p, stride=1, pad=pad)
            return float(np.sum(y * gy))

        y, cache = dgconv_forward(x, p, stride=1, pad=pad)
        grads = dgconv_backward(gy, cache, mode="exact")
        assert rel_err(grads["conv_filters"], fd_grad(loss, p.conv_filters)) < 1e-5
        assert rel_err(grads["masks"], fd_grad(loss, p.masks)) < 1e-5
        assert rel_err(grads["offset_weight"], fd_grad(loss, p.offset_pred.weight)) < 1e-5
        assert rel_err(grads["offset_bias"], fd_grad(loss, p.offset_pred.bias)) < 1e-5
        assert rel_err(grads["input"], fd_grad(loss, x)) < 1e-5

    def test_paper_mode_keeps_offset_and_input_exact(self):
        rng = np.random.default_rng(15)
        p = small_layer(rng, U=2, V=2, N=1, M=2)
        x = rng.standard_normal((2, 1, 6, 6))
        y, cache = dgconv_forward(x, p, stride=1, pad=1)
        gy = rng.standard_normal(y.shape)
        exact = dgconv_backward(gy, cache, mode="exact")
        paper = dgconv_backward(gy, cache, mode="paper")
        np.testing.assert_array_equal(paper["offset_weight"], exact["offset_weight"])
        np.testing.assert_array_equal(paper["offset_bias"], exact["offset_bias"])
        np.testing.assert_array_equal(paper["input"], exact["input"])
        # the approximate rule genuinely differs on the masks
        assert np.abs(paper["masks"] - exact["masks"]).max() > 1e-8

    def test_paper_rule_single_orientation_single_mask(self):
        # at V=U=1 the approximate update rules are checked against direct evaluation
        rng = np.random.default_rng(16)
        p = small_layer(rng, U=1, V=1, N=2, M=2)
        x = rng.standard_normal((1, 2, 6, 6))
        y, cache = dgconv_forward(x, p, stride=1, pad=1)
        gy = rng.standard_normal(y.shape)
        paper = dgconv_backward(gy, cache, mode="paper")

        h = p.gabor.H
        pd = (h - 1) // 2
        flat = x.reshape(2, 6, 6)
        off = predict_offsets(flat, p.offset_pred, stride=1, pad=pd)
        wv = (p.conv_filters[:, :, 0] * p.masks[0]).reshape(2, 2, h, h)
        e = deform_conv_forward(flat, wv, off, stride=1, pad=pd)  # [M, 6, 6]
        e_pad = np.zeros((2, 6 + 2 * pd, 6 + 2 * pd))
        e_pad[:, pd:pd + 6, pd:pd + 6] = e

        # dL/dGhat by direct correlation of upstream grad with the stage-2 input
        grad_ghat = np.zeros((h, h))
        for k in range(h):
            for l in range(h):
                grad_ghat[k, l] = np.sum(gy[0] * e_pad[:, k:k + 6, l:l + 6])
        np.testing.assert_allclose(paper["masks"][0], grad_ghat * p.gabor.filters[0],
                                   atol=1e-12)

        # dL/dE by direct full correlation, then dL/dDhat via the sampled taps
        ghat = p.masks[0] * p.gabor.filters[0]
        grad_e = np.zeros_like(e_pad)
        for k in range(h):
            for l in range(h):
                grad_e[:, k:k + 6, l:l + 6] += ghat[k, l] * gy[0]
        grad_e = grad_e[:, pd:pd + 6, pd:pd + 6]
        grad_dhat = np.zeros((2, 2, h, h))
        eps = 1e-7
        for idx in np.ndindex(*grad_dhat.shape):
            delta = np.zeros_like(wv)
            delta[idx] = eps
            bumped = deform_conv_forward(flat, wv + delta, off, stride=1, pad=pd)
            grad_dhat[idx] = np.sum(grad_e * (bumped - e)) / eps
        np.testing.assert_allclose(paper["conv_filters"][:, :, 0],
                                   grad_dhat * p.masks[0], rtol=1e-5, atol=1e-8)


class TestRotationOracle:
    """A quarter turn of the input and the stage-1 filters turns the output and
    shifts its orientation axis by U/2.

    With zero offsets and masks of one, stage 1 is a plain "same"
    correlation, which commutes with a 90-degree rotation of both operands,
    and a quarter turn maps the bank's orientation u to u + U/2 (angles
    u*pi/U, cosine carriers that a half turn leaves unchanged). Luan et al.
    2018, "Gabor Convolutional Networks" (arXiv:1705.01450).
    """

    @pytest.mark.parametrize("shared", [False, True], ids=["oriented", "shared"])
    @pytest.mark.parametrize("H", [3, 5])
    @pytest.mark.parametrize("U", [2, 4])
    def test_quarter_turn(self, U, H, shared):
        rng = np.random.default_rng(40 + 10 * U + H + shared)
        shape = LayerShape(U=U, V=2, H=H, N=2, M=3, N0=2, M0=3)
        p = init_params(rng, shape, make_bank(U, H))  # zero offsets, masks of one
        x = rng.standard_normal((2, 7, 7) if shared else (U, 2, 7, 7))
        pad = (H - 1) // 2
        y, _ = dgconv_forward(x, p, stride=1, pad=pad)
        p.conv_filters = np.ascontiguousarray(np.rot90(p.conv_filters, axes=(-2, -1)))
        y_rot, _ = dgconv_forward(np.rot90(x, axes=(-2, -1)), p, stride=1, pad=pad)
        want = np.rot90(np.roll(y, U // 2, axis=0), axes=(-2, -1))
        np.testing.assert_allclose(y_rot, want, rtol=0, atol=1e-12)
        # without the orientation shift the two differ: the oracle is not vacuous
        assert np.abs(y_rot - np.rot90(y, axes=(-2, -1))).max() > 1e-3


class TestSharedInput:
    """A 3-D input is one map all U orientations read: the layer folds it, not copies it."""

    def layer_and_input(self, seed):
        rng = np.random.default_rng(seed)
        p = small_layer(rng, U=3, V=2, N=2, M=2, H=3)  # non-zero offsets, masks off one
        x = rng.standard_normal((2, 6, 6))
        return rng, p, x

    def test_forward_matches_expanded_input(self):
        _, p, x = self.layer_and_input(30)
        y3, c3 = dgconv_forward(x, p, stride=1, pad=1)
        y4, c4 = dgconv_forward(expand_orientation(x, 3), p, stride=1, pad=1)
        assert np.abs(c3.offsets).min() > 0
        np.testing.assert_allclose(y3, y4, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c3.offsets, c4.offsets, rtol=0, atol=1e-12)
        assert c3.v.shape[1] == 2 and c4.v.shape[1] == 6  # N planes gathered, not N*U

    @pytest.mark.parametrize("mode", ["exact", "paper"])
    def test_backward_matches_expanded_input(self, mode):
        rng, p, x = self.layer_and_input(31)
        y3, c3 = dgconv_forward(x, p, stride=1, pad=1)
        _, c4 = dgconv_forward(expand_orientation(x, 3), p, stride=1, pad=1)
        gy = rng.standard_normal(y3.shape)
        g3 = dgconv_backward(gy, c3, mode=mode)
        g4 = dgconv_backward(gy, c4, mode=mode)
        for name in ("conv_filters", "masks", "offset_weight", "offset_bias"):
            assert g3[name].shape == g4[name].shape, name
            np.testing.assert_allclose(g3[name], g4[name], rtol=0, atol=1e-12, err_msg=name)
        assert g3["input"].shape == x.shape
        np.testing.assert_allclose(g3["input"], g4["input"].sum(axis=0), rtol=0, atol=1e-12)

    def test_exact_input_gradient_finite_differences(self):
        rng, p, x = self.layer_and_input(32)
        gy = rng.standard_normal((3, 2, 6, 6))

        def loss():
            return float(np.sum(dgconv_forward(x, p, stride=1, pad=1)[0] * gy))

        _, cache = dgconv_forward(x, p, stride=1, pad=1)
        grads = dgconv_backward(gy, cache, mode="exact")
        assert rel_err(grads["input"], fd_grad(loss, x)) < 1e-5
        assert rel_err(grads["offset_weight"], fd_grad(loss, p.offset_pred.weight)) < 1e-5

    def test_shape_validation(self):
        _, p, _ = self.layer_and_input(33)
        with pytest.raises(ValueError):
            dgconv_forward(np.zeros((3, 6, 6)), p, stride=1, pad=1)  # N=3, layer has N=2
        with pytest.raises(ValueError):
            dgconv_forward(np.zeros((6, 6)), p, stride=1, pad=1)


class TestParamCount:
    def test_documented_breakdowns(self):
        a = param_count(LayerShape(U=4, V=4, H=3, N=8, M=8, N0=8, M0=8))
        assert (a["filters"], a["masks"], a["offset"]) == (2304, 36, 5184)
        b = param_count(LayerShape(U=1, V=1, H=3, N=1, M=1, N0=1, M0=1))
        assert (b["filters"], b["masks"], b["offset"]) == (9, 9, 162)
        assert b["offset_bias"] == 18

    def test_sqrt_u_rule(self):
        assert LayerShape.from_reference(32, 32, U=4, V=2, H=3).N == 16
        assert LayerShape.from_reference(32, 64, U=2, V=2, H=3).N == 23  # round(32/1.414)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            u = int(rng.integers(1, 5))
            shape = LayerShape(U=u, V=int(rng.integers(1, 5)),
                               H=int(rng.choice([3, 5])),
                               N=int(rng.integers(1, 5)), M=int(rng.integers(1, 5)),
                               N0=1, M0=1)
            p = init_params(rng, shape, make_bank(u, shape.H))
            assert param_count(shape) == p.scalar_counts()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LayerShape(U=4, V=2, H=4, N=1, M=1, N0=1, M0=1)
        with pytest.raises(ValueError):
            LayerShape(U=0, V=2, H=3, N=1, M=1, N0=1, M0=1)
