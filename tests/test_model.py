import numpy as np
import pytest

from conftest import fd_grad, rel_err
from deformgabor.model import (Model, ModelConfig, ShapeMismatchError,
                               load_checkpoint, matched_plain_config,
                               param_table, save_checkpoint, total_params)


def tiny_cfg(**overrides):
    base = dict(widths=(2, 2), plain_blocks=1, U=2, V=1, H=3, task="mil")
    base.update(overrides)
    return ModelConfig(**base)


def nudge_offsets(model):
    # park sampling points at fractional coordinates and give every block a
    # non-degenerate operating point (zero-init offset weights leave gradient
    # entries near machine noise, where finite differences lose accuracy)
    rng = np.random.default_rng(99)
    for name, p in model.params.items():
        if name.endswith("offset_bias"):
            p[:] = rng.uniform(0.15, 0.35, size=p.shape)
        elif name.endswith("offset_weight"):
            p[:] = 0.1 * rng.standard_normal(p.shape)
        elif name == "head.w":
            p[:] = 2.0 * rng.standard_normal(p.shape)
    return model


class TestForwardShapes:
    def test_mil_patch_grid(self):
        model = Model(tiny_cfg(), np.random.default_rng(0))
        img = np.random.default_rng(1).random((1, 8, 8))
        probs, _ = model.forward(img)
        assert probs.grid == (2, 2)  # 8 -> 4 -> 2 through two pooled blocks
        assert probs.p.shape == (4,)
        assert ((0 < probs.p) & (probs.p < 1)).all()

    def test_miml_patch_grid(self):
        model = Model(tiny_cfg(task="miml", n_labels=3), np.random.default_rng(0))
        probs, _ = model.forward(np.random.default_rng(1).random((1, 8, 8)))
        assert probs.p.shape == (3, 4)

    def test_all_plain_stack(self):
        model = Model(tiny_cfg(plain_blocks=2), np.random.default_rng(0))
        probs, _ = model.forward(np.random.default_rng(1).random((1, 8, 8)))
        assert probs.p.shape == (4,)
        assert model.bank is None

    def test_all_gabor_stack(self):
        model = Model(tiny_cfg(plain_blocks=0), np.random.default_rng(0))
        probs, _ = model.forward(np.random.default_rng(1).random((1, 8, 8)))
        assert probs.p.shape == (4,)

    def test_wrong_channels_rejected(self):
        model = Model(tiny_cfg(), np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            model.forward(np.zeros((2, 8, 8)))

    def test_odd_size_rejected_by_pooling(self):
        model = Model(tiny_cfg(), np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            model.forward(np.zeros((1, 9, 9)))


def _einsum_module():
    try:
        from numpy._core import einsumfunc
    except ImportError:  # numpy 1.x
        from numpy.core import einsumfunc
    return einsumfunc


@pytest.mark.parametrize("plain", [False, True], ids=["gabor", "matched_plain"])
def test_hot_path_plans_no_einsum(monkeypatch, plain):
    # einsum(..., optimize=True) plans every call through einsum_path, which
    # dominated small-map training before the contractions became matmuls
    module = _einsum_module()
    calls = []
    original = module.einsum_path

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "einsum_path", counting)
    np.einsum("ij,jk->ik", np.ones((2, 2)), np.ones((2, 2)), optimize=True)
    assert len(calls) == 1  # the probe sees planned einsums
    calls.clear()

    cfg = ModelConfig(widths=(4, 8, 8), plain_blocks=2, U=4, V=2, H=3)
    if plain:
        cfg = matched_plain_config(cfg)
    model = Model(cfg, np.random.default_rng(0))
    probs, cache = model.forward(np.random.default_rng(1).random((1, 32, 32)))
    model.backward(cache, np.ones_like(probs.p))
    assert calls == []


@pytest.mark.parametrize("plain_blocks", [1, 0])
def test_image_gradient_never_formed(plain_blocks, monkeypatch):
    """Block 0's input gradient is the gradient wrt the image, which nothing reads.

    Each call that could form an input gradient is recorded with the plane
    count of its input: the image has 1 plane, every later block's input 2
    or more.
    """
    from deformgabor import layer, model as model_module

    formed = []

    def spy(module, name, planes_of):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            result = original(*args, **kwargs)
            formed.append((planes_of(args), result[0] is not None))
            return result

        monkeypatch.setattr(module, name, wrapped)

    spy(model_module, "conv2d_backward", lambda args: args[1].shape[-3])
    spy(layer, "conv2d_backward", lambda args: args[1].shape[-3])
    spy(layer, "sample_backward", lambda args: args[1].shape[-4])
    rng = np.random.default_rng(3)
    model = nudge_offsets(Model(tiny_cfg(plain_blocks=plain_blocks), rng))
    probs, cache = model.forward(rng.random((1, 8, 8)))
    model.backward(cache, np.ones_like(probs.p))
    assert {planes == 1 for planes, _ in formed} == {True, False}
    assert all(was_formed == (planes > 1) for planes, was_formed in formed), formed


class TestModelGradients:
    def test_miml_stack_finite_differences(self):
        from deformgabor.mil import miml_loss

        rng = np.random.default_rng(4)
        model = nudge_offsets(Model(tiny_cfg(task="miml", n_labels=2), rng))
        img = 3.0 * rng.random((1, 8, 8))

        def loss():
            probs, _ = model.forward(img)
            return miml_loss([(probs, [1, 0])])[0]

        probs, cache = model.forward(img)
        _, grads_p = miml_loss([(probs, [1, 0])])
        grads = model.backward(cache, grads_p[0], mode="exact")
        for name, p in model.params.items():
            assert rel_err(grads[name], fd_grad(loss, p)) < 1e-5, name


class TestParamAccounting:
    @pytest.mark.parametrize("cfg", [tiny_cfg(), tiny_cfg(plain_blocks=0),
                                     tiny_cfg(plain_blocks=2),
                                     tiny_cfg(task="miml", n_labels=4)])
    def test_table_matches_live_model(self, cfg):
        model = Model(cfg, np.random.default_rng(0))
        assert total_params(cfg) == sum(p.size for p in model.params.values())

    def test_sqrt_u_width_pairing(self):
        # consecutive-stage filter counts match between the paired width lists
        plain = ModelConfig(widths=(32, 64, 128, 256), plain_blocks=4)
        gabor = ModelConfig(widths=(16, 32, 64, 128), plain_blocks=0, U=4)
        pt = param_table(plain)
        gt = param_table(gabor)
        for i in range(1, 4):
            assert pt[i][2]["filters"] == gt[i][2]["filters"]

    def test_matched_plain_at_least_as_large(self):
        cfg = tiny_cfg(widths=(4, 8), U=4)
        plain = matched_plain_config(cfg)
        assert plain.plain_blocks == 2
        assert total_params(plain) >= total_params(cfg)


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        model = Model(tiny_cfg(), rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        saved = {k: v.copy() for k, v in model.params.items()}
        for p in model.params.values():
            p += 1.0
        load_checkpoint(path, model)
        for k, v in model.params.items():
            np.testing.assert_array_equal(v, saved[k])

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Model(tiny_cfg(), np.random.default_rng(0)))
        other = Model(tiny_cfg(widths=(2, 3)), np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            load_checkpoint(path, other)

    def test_truncated_checkpoint_is_shape_error_at_every_cut(self, tmp_path):
        model = Model(tiny_cfg(), np.random.default_rng(0))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        before = {k: v.copy() for k, v in model.params.items()}
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(ShapeMismatchError):
                load_checkpoint(path, model)
        for k, v in model.params.items():
            assert np.array_equal(v, before[k]), k

    def test_gabor_bank_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Model(tiny_cfg(sigma=0.5), np.random.default_rng(0)))
        other = Model(tiny_cfg(sigma=2.0), np.random.default_rng(0))
        before = {k: v.copy() for k, v in other.params.items()}
        with pytest.raises(ShapeMismatchError, match="sigma=0.5.*sigma=2"):
            load_checkpoint(path, other)
        for k, v in other.params.items():  # nothing was copied
            assert np.array_equal(v, before[k]), k
        load_checkpoint(path, Model(tiny_cfg(sigma=0.5), np.random.default_rng(1)))

    def test_identity_preserved_for_layer_views(self, tmp_path):
        # loading must write through the same arrays the layer objects hold
        model = Model(tiny_cfg(), np.random.default_rng(6))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        model.params["block1.masks"] += 5.0
        load_checkpoint(path, model)
        dg = model.dg_params[1]
        np.testing.assert_array_equal(dg.masks, model.params["block1.masks"])
        assert dg.masks is model.params["block1.masks"]
