import struct

import numpy as np
import pytest

from conftest import fd_grad, rel_err
from deformgabor import tensor
from deformgabor.tensor import (conv2d, conv2d_backward, conv2d_naive, dump_csv,
                                load_container, save_container)


def conv_scatter_oracle(x, w, stride=1, pad=0):
    """Independent reimplementation with the opposite loop order (input-scatter)."""
    cin, hi, wi = x.shape
    cout, _, kh, kw = w.shape
    ho = (hi + 2 * pad - kh) // stride + 1
    wo = (wi + 2 * pad - kw) // stride + 1
    out = np.zeros((cout, ho, wo))
    for c in range(cin):
        for iy in range(hi):
            for ix in range(wi):
                for k in range(kh):
                    for l in range(kw):
                        oy, r1 = divmod(iy + pad - k, stride)
                        ox, r2 = divmod(ix + pad - l, stride)
                        if r1 == 0 and r2 == 0 and 0 <= oy < ho and 0 <= ox < wo:
                            out[:, oy, ox] += w[:, c, k, l] * x[c, iy, ix]
    return out


def col2im_loop(g, x_shape, w, stride, pad):
    """Input gradient by a tap-by-tap loop of strided adds into a zeroed padded
    frame, then a crop: the reference for conv2d_backward's col2im."""
    b, cin, hi, wi = x_shape
    cout, _, kh, kw = w.shape
    ho, wo = g.shape[-2:]
    gcols = (w.reshape(cout, -1).T @ g.reshape(b, cout, ho * wo)).reshape(b, cin, kh, kw, ho, wo)
    gxp = np.zeros((b, cin, hi + 2 * pad, wi + 2 * pad))
    for k in range(kh):
        for l in range(kw):
            gxp[:, :, k:k + stride * ho:stride, l:l + stride * wo:stride] += gcols[:, :, k, l]
    return gxp[:, :, pad:pad + hi, pad:pad + wi]


class TestNaiveConv:
    def test_constant_field(self):
        x = np.ones((1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        np.testing.assert_array_equal(conv2d_naive(x, w), [[[9.0]]])

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 4, 4))
        w = np.zeros((2, 2, 3, 3))
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        np.testing.assert_allclose(conv2d_naive(x, w, pad=1), x, atol=0)

    def test_against_scatter_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        np.testing.assert_allclose(conv2d_naive(x, w), conv_scatter_oracle(x, w), atol=1e-13)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 5, 5))
        y = rng.standard_normal((2, 5, 5))
        w = rng.standard_normal((2, 2, 3, 3))
        lhs = conv2d_naive(2.5 * x + 0.3 * y, w)
        rhs = 2.5 * conv2d_naive(x, w) + 0.3 * conv2d_naive(y, w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 6, 6))
        w = rng.standard_normal((2, 1, 3, 3))
        a = conv2d_naive(x, w, stride=1, pad=1)
        b = conv2d_naive(x, w, stride=1, pad=1)
        assert a.tobytes() == b.tobytes()

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            conv2d_naive(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)))


class TestFastConv:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive(self, stride, pad):
        rng = np.random.default_rng(stride * 10 + pad)
        x = rng.standard_normal((1, 3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        np.testing.assert_allclose(conv2d(x, w, stride, pad)[0],
                                   conv2d_naive(x[0], w, stride, pad), atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1)])
    def test_backward_finite_differences(self, stride, pad):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        g = rng.standard_normal(conv2d(x, w, stride, pad).shape)

        def loss():
            return float(np.sum(conv2d(x, w, stride, pad) * g))

        gx, gw = conv2d_backward(g, x, w, stride, pad)
        assert rel_err(gx, fd_grad(loss, x)) < 1e-7
        assert rel_err(gw[0], fd_grad(loss, w)) < 1e-7

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_input_gradient_equals_tap_loop(self, stride, pad, kernel):
        """The bincount col2im adds each pixel's taps in the loop's order: equal bit for bit."""
        rng = np.random.default_rng(100 * stride + 10 * pad + kernel)
        for b in (1, 3):
            for hi, wi in ((7, 5), (9, 5)):
                x = rng.standard_normal((b, 3, hi, wi))
                w = rng.standard_normal((4, 3, kernel, kernel))
                g = rng.standard_normal(conv2d(x, w, stride, pad).shape)
                gx, _ = conv2d_backward(g, x, w, stride, pad)
                assert np.array_equal(gx, col2im_loop(g, x.shape, w, stride, pad)), (b, hi, wi)

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 2)])
    def test_batch_slice_equals_single_bag(self, stride, pad):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 2, 9, 5))
        w = rng.standard_normal((5, 2, 3, 3))
        g = rng.standard_normal(conv2d(x, w, stride, pad).shape)
        gx, gw = conv2d_backward(g, x, w, stride, pad)
        for b in range(3):
            gx1, gw1 = conv2d_backward(g[b:b + 1], x[b:b + 1], w, stride, pad)
            assert np.array_equal(gx[b:b + 1], gx1) and np.array_equal(gw[b:b + 1], gw1)

    def test_col2im_index_is_read_only(self):
        conv2d_backward(np.ones((2, 1, 4, 4)), np.ones((2, 3, 4, 4)), np.ones((1, 3, 3, 3)), pad=1)
        index = tensor._col2im_index(6, 4, 4, 3, 3, 1, 1)
        assert index is tensor._col2im_index(6, 4, 4, 3, 3, 1, 1)
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 0

    def test_non_integral_output_rejected(self):
        with pytest.raises(ValueError):
            conv2d(np.zeros((1, 1, 6, 6)), np.zeros((1, 1, 3, 3)), stride=2, pad=0)

    @pytest.mark.parametrize("shape", [(1, 6, 6), (1, 1, 1, 6, 6)])
    def test_non_batch_input_rejected(self, shape):
        w = np.zeros((1, 1, 3, 3))
        with pytest.raises(ValueError, match="batch"):
            conv2d(np.zeros(shape), w, pad=1)
        with pytest.raises(ValueError, match="batch"):
            conv2d_backward(np.zeros((1, 1, 6, 6)), np.zeros(shape), w, pad=1)


class TestSerialization:
    def test_binary_layout(self, tmp_path):
        p = tmp_path / "c.bin"
        save_container(p, {"ab": np.array([[1.0, 2.0]])})
        raw = p.read_bytes()
        # little endian: magic, u32 section count, then per section u16 name
        # length, name bytes, u32 rank, u32 dims and the f64 payload
        assert raw[:4] == b"DGT1"
        assert raw[4:8] == (1).to_bytes(4, "little")
        assert raw[8:10] == (2).to_bytes(2, "little")
        assert raw[10:12] == b"ab"
        assert raw[12:16] == (2).to_bytes(4, "little")
        assert raw[16:20] == (1).to_bytes(4, "little")
        assert raw[20:24] == (2).to_bytes(4, "little")
        assert np.frombuffer(raw[24:], dtype="<f8").tolist() == [1.0, 2.0]

    def test_container_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        sections = {"a": rng.standard_normal((2, 2)), "b.c": rng.standard_normal(3)}
        p = tmp_path / "c.bin"
        save_container(p, sections)
        back = load_container(p)
        assert set(back) == {"a", "b.c"}
        for k in sections:
            np.testing.assert_array_equal(back[k], sections[k])

    def test_truncated_container_raises_value_error_at_every_cut(self, tmp_path):
        rng = np.random.default_rng(6)
        p = tmp_path / "c.bin"
        save_container(p, {"a": rng.standard_normal((2, 3)), "bb": rng.standard_normal(4)})
        raw = p.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(ValueError):
                load_container(cut)
        cut.write_bytes(raw)
        assert set(load_container(cut)) == {"a", "bb"}

    @pytest.mark.parametrize("dims", [(2 ** 32 - 1, 2 ** 32 - 1), (3, 1000)])
    def test_section_larger_than_file_raises_before_reading(self, tmp_path, dims):
        # the first product overflows int64; the second fits but exceeds the file
        p = tmp_path / "c.bin"
        p.write_bytes(b"DGT1" + struct.pack("<IH", 1, 1) + b"a"
                      + struct.pack("<3I", 2, *dims) + bytes(8))
        with pytest.raises(ValueError, match=f"wanted {8 * dims[0] * dims[1]} bytes, 8 are left"):
            load_container(p)

    def test_csv_roundtrip(self, tmp_path):
        a = np.array([[1.5, -2.25], [0.0, 3.125]])
        p = tmp_path / "m.csv"
        dump_csv(p, a)
        np.testing.assert_array_equal(np.loadtxt(p, delimiter=","), a)

    def test_csv_rejects_3d(self, tmp_path):
        with pytest.raises(ValueError):
            dump_csv(tmp_path / "x.csv", np.zeros((2, 2, 2)))
