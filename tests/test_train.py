import csv
import tracemalloc

import numpy as np
import pytest

from deformgabor.data import SynthLesionSpec, build_bags
from deformgabor.mil import class_weights, weighted_mil_loss
from deformgabor.model import Model, ModelConfig, matched_plain_config
from deformgabor.train import (NumericsError, OptimizerConfig, adam_step,
                               batch_loss_and_grads, evaluate, fd_grad, grad_check,
                               gradcheck_problem, rel_err, sgd_step, train_model)


def cfg9(**kw):
    base = dict(kind="sgd_momentum", lr_masks=0.1, lr_filters=0.1, momentum=0.0,
                weight_decay=0.0, epochs=1, batch_size=4, seed=0)
    base.update(kw)
    return OptimizerConfig(**base)


class TestSGD:
    def test_vanilla_step(self):
        params = {"w": np.array([1.0, 2.0])}
        grads = {"w": np.array([0.5, -0.5])}
        sgd_step(params, grads, {}, cfg9())
        np.testing.assert_allclose(params["w"], [0.95, 2.05], atol=1e-15)

    def test_zero_grad_fixed_point(self):
        params = {"w": np.array([3.0])}
        sgd_step(params, {"w": np.zeros(1)}, {}, cfg9())
        assert params["w"][0] == 3.0

    def test_two_step_momentum_recursion(self):
        params = {"w": np.array([0.0])}
        state = {}
        cfg = cfg9(momentum=0.9)
        for _ in range(2):
            sgd_step(params, {"w": np.array([1.0])}, state, cfg)
        assert params["w"][0] == pytest.approx(-0.29, abs=1e-15)

    def test_mask_rate_applies_to_masks_only(self):
        params = {"block0.masks": np.ones(2), "block0.weight": np.ones(2)}
        grads = {"block0.masks": np.ones(2), "block0.weight": np.ones(2)}
        sgd_step(params, grads, {}, cfg9(lr_masks=0.0, lr_filters=0.1))
        np.testing.assert_array_equal(params["block0.masks"], np.ones(2))
        np.testing.assert_allclose(params["block0.weight"], 0.9 * np.ones(2))

    def test_weight_decay(self):
        params = {"w": np.array([2.0])}
        sgd_step(params, {"w": np.zeros(1)}, {}, cfg9(weight_decay=0.5))
        # theta - lr*wd*theta = 2 - 0.1*0.5*2
        assert params["w"][0] == pytest.approx(1.9, abs=1e-15)


class TestAdam:
    def test_zero_grad_fixed_point(self):
        params = {"w": np.array([1.5])}
        state = {}
        cfg = cfg9(kind="adam", lr_filters=0.01)
        for _ in range(5):
            adam_step(params, {"w": np.zeros(1)}, state, cfg)
        assert params["w"][0] == 1.5

    def test_first_step_scale_invariance(self):
        cfg = cfg9(kind="adam", lr_filters=0.001)
        for g in (1e-4, 1.0, 1e4):
            params = {"w": np.array([0.0])}
            adam_step(params, {"w": np.array([g])}, {}, cfg)
            assert params["w"][0] == pytest.approx(-0.001, rel=1e-3)

    def test_three_step_hand_recursion(self):
        cfg = cfg9(kind="adam", lr_filters=0.001)
        params = {"w": np.array([0.0])}
        state = {}
        for _ in range(3):
            adam_step(params, {"w": np.array([1.0])}, state, cfg)

        # independent unrolling of the bias-corrected recursion
        theta, m, v = 0.0, 0.0, 0.0
        for t in range(1, 4):
            m = 0.9 * m + 0.1 * 1.0
            vv = 0.999 * v + 0.001 * 1.0
            v = vv
            mh = m / (1 - 0.9 ** t)
            vh = v / (1 - 0.999 ** t)
            theta -= 0.001 * mh / (np.sqrt(vh) + 1e-8)
        assert params["w"][0] == pytest.approx(theta, abs=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, {}, cfg9(kind="adam"))


def assert_live(grads):
    """Every parameter block has a non-zero gradient entry: on a dead stack (every
    ReLU off) a finite-difference check passes without testing anything."""
    dead = [name for name, g in grads.items() if not g.any()]
    assert not dead, f"all-zero gradients: {dead}"


class TestGradCheck:
    def test_linear_map_sanity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        params = {"w": rng.standard_normal((3, 4))}

        def loss_and_grads():
            return float(np.sum(a * params["w"])), {"w": a}

        def loss_only():
            return float(np.sum(a * params["w"]))

        report = grad_check(loss_and_grads, loss_only, params)
        assert report["w"] < 1e-9

    @pytest.mark.parametrize("where", ["loss", "gradient"])
    def test_non_finite_reports_nan(self, where):
        a = np.arange(1.0, 13.0).reshape(3, 4)
        params = {"w": np.ones((3, 4))}
        analytic = a.copy()
        if where == "gradient":
            analytic[1, 2] = np.nan

        def loss_only():
            return np.nan if where == "loss" else float(np.sum(a * params["w"]))

        report = grad_check(lambda: (loss_only(), {"w": analytic}), loss_only, params)
        assert np.isnan(report["w"])

    def test_fd_grad_rejects_non_contiguous(self):
        x = np.ones((3, 4))
        with pytest.raises(ValueError, match="C-contiguous"):
            fd_grad(lambda: float(np.sum(x)), x.T)

    def test_rel_err_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal shapes"):
            rel_err(np.ones(3), np.ones((1, 3)))

    def test_tiny_stack_all_blocks_pass(self):
        cfg = ModelConfig(widths=(2, 2), plain_blocks=1, U=2, V=1, H=3)
        model, lag, lo = gradcheck_problem(cfg, seed=0)
        assert_live(lag()[1])
        report = grad_check(lag, lo, model.params)
        assert max(report.values()) < 1e-5

    def test_paper_mode_flags_approximate_blocks(self):
        cfg = ModelConfig(widths=(2, 2), plain_blocks=1, U=2, V=2, H=3)
        model, lag, lo = gradcheck_problem(cfg, seed=0, mode="paper")
        assert_live(lag()[1])
        report = grad_check(lag, lo, model.params)
        # the approximate rule shows up on masks and filters, nowhere else
        assert report["block1.masks"] > 1e-4
        assert report["block0.weight"] < 1e-5
        assert report["block1.offset_weight"] < 1e-4
        assert report["head.w"] < 1e-5


def tiny_dataset(n, seed=0, size=8):
    spec = SynthLesionSpec(image_size=size, lesion_count=(1, 1),
                           lesion_radius=(2.0, 3.0), contrast=0.6,
                           noise_std=0.05, positive_fraction=0.5, seed=seed)
    return build_bags(spec, n)


class TestTrainingLoop:
    def test_epochs_zero_writes_initial_checkpoint_only(self, tmp_path):
        model = Model(ModelConfig(widths=(2,), plain_blocks=1), np.random.default_rng(0))
        bags = tiny_dataset(8)
        history = train_model(model, bags, bags, cfg9(epochs=0, kind="adam"),
                              out_dir=str(tmp_path))
        assert history == []
        assert (tmp_path / "initial.ckpt").exists()
        assert not (tmp_path / "best.ckpt").exists()
        assert not (tmp_path / "last.ckpt").exists()

    def test_deterministic_runs_byte_identical_logs(self, tmp_path):
        logs = []
        for run in ("a", "b"):
            model = Model(ModelConfig(widths=(2, 2), plain_blocks=1, U=2, V=1),
                          np.random.default_rng(5))
            bags = tiny_dataset(12, seed=3)
            history = train_model(model, bags[:8], bags[8:],
                                  cfg9(kind="adam", lr_filters=0.01, lr_masks=0.01, epochs=3),
                                  out_dir=str(tmp_path / run))
            logs.append((tmp_path / run / "train_log.csv").read_bytes())
        assert logs[0] == logs[1]
        # and the log reads back as the history it was written from, exactly
        rows = list(csv.DictReader(logs[1].decode().splitlines()))
        assert [int(r["epoch"]) for r in rows] == [h["epoch"] for h in history]
        for key in ("train_loss", "val_loss", "val_auc"):
            assert [float(r[key]) for r in rows] == [h[key] for h in history], key

    def test_frozen_masks_with_zero_mask_rate(self):
        model = Model(ModelConfig(widths=(2, 2), plain_blocks=1, U=2, V=2),
                      np.random.default_rng(1))
        before = model.params["block1.masks"].copy()
        bags = tiny_dataset(8, seed=1)
        train_model(model, bags, bags[:4],
                    cfg9(kind="adam", lr_masks=0.0, lr_filters=0.01, epochs=2))
        np.testing.assert_array_equal(model.params["block1.masks"], before)
        assert not np.array_equal(model.params["block1.conv_filters"],
                                  Model(ModelConfig(widths=(2, 2), plain_blocks=1, U=2, V=2),
                                        np.random.default_rng(1)).params["block1.conv_filters"])

    def test_numerics_error_on_nan(self):
        model = Model(ModelConfig(widths=(2,), plain_blocks=1), np.random.default_rng(0))
        model.params["head.w"][0] = np.nan
        with pytest.raises(NumericsError):
            train_model(model, tiny_dataset(8), tiny_dataset(8), cfg9(kind="adam", epochs=1))

    def test_single_step_does_not_increase_single_bag_loss(self):
        # exact gradients plus a small enough rate never hurt the bag just seen
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(100):
            cfg = ModelConfig(widths=(2,), plain_blocks=0, U=2, V=1)
            model = Model(cfg, np.random.default_rng(trial))
            for name, p in model.params.items():
                if name.endswith("offset_bias"):
                    p[:] = rng.uniform(0.1, 0.3, size=p.shape)
                elif name == "head.w":
                    p[:] = rng.standard_normal(p.shape)
            img = rng.random((1, 8, 8))
            y = int(rng.integers(0, 2))
            weights = {0: 1.0, 1: 1.0}
            loss0, grads = batch_loss_and_grads(model, [img], [y], weights)
            sgd_step(model.params, grads, {}, cfg9(lr_masks=1e-6, lr_filters=1e-6))
            loss1, _ = batch_loss_and_grads(model, [img], [y], weights)
            worst = max(worst, loss1 - loss0)
        assert worst <= 1e-12

    def test_evaluate_outputs(self):
        model = Model(ModelConfig(widths=(2,), plain_blocks=1), np.random.default_rng(2))
        bags = tiny_dataset(6, seed=5)
        scores, labels, loss = evaluate(model, bags, {0: 1.0, 1: 1.0})
        assert scores.shape == (6,) and labels.shape == (6,)
        assert np.isfinite(loss)
        assert ((0 < scores) & (scores < 1)).all()

    def test_evaluate_without_weights_reports_unit_weight_loss(self):
        model = Model(ModelConfig(widths=(2,), plain_blocks=1), np.random.default_rng(2))
        bags = tiny_dataset(6, seed=5)
        want = 0.0
        for img, y in bags:  # in bag order
            want += weighted_mil_loss([(model.forward(img)[0], y)])[0]
        loss = evaluate(model, bags)[2]
        assert loss == want / len(bags)
        assert loss > 0

    def test_loss_strictly_decreases_early(self):
        # frozen observation on the seeded run: the first five epochs all improve
        from deformgabor.data import SynthLesionSpec, build_bags as bb

        spec = SynthLesionSpec(image_size=32, lesion_count=(1, 2), lesion_radius=(4.0, 7.0),
                               contrast=0.6, noise_std=0.15, positive_fraction=0.5, seed=100)
        bags = bb(spec, 200)
        model = Model(ModelConfig(widths=(4, 8), plain_blocks=1, U=4, V=2, H=3),
                      np.random.default_rng(0))
        history = train_model(model, bags, bags[:40],
                              cfg9(kind="adam", lr_filters=0.005, lr_masks=0.005,
                                   epochs=5, batch_size=16))
        losses = [row["train_loss"] for row in history]
        assert all(a > b for a, b in zip(losses, losses[1:])), losses

    def test_sgd_training_runs_deterministically(self):
        results = []
        for _ in range(2):
            model = Model(ModelConfig(widths=(2, 2), plain_blocks=1, U=2, V=1),
                          np.random.default_rng(3))
            bags = tiny_dataset(12, seed=9)
            history = train_model(model, bags[:8], bags[8:],
                                  cfg9(kind="sgd_momentum", momentum=0.9,
                                       lr_filters=0.05, lr_masks=0.05, epochs=3,
                                       plateau_patience=1))
            results.append((history[-1]["train_loss"], model.params["head.w"].tobytes()))
        assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Passes of several bags against the bag-by-bag loop, compared bit for bit.
# ---------------------------------------------------------------------------

ACCEPTANCE_STACK = ModelConfig(widths=(4, 8, 8), plain_blocks=2, U=4, V=2, H=3)
BATCH_CONFIGS = {
    "4-8-8": ACCEPTANCE_STACK,
    "matched_plain": matched_plain_config(ACCEPTANCE_STACK),
    "plain_blocks0": ModelConfig(widths=(2, 4), plain_blocks=0, U=2, V=2, H=3),
    "H5": ModelConfig(widths=(2, 4), plain_blocks=1, U=2, V=2, H=5),
    "miml": ModelConfig(widths=(2, 4), plain_blocks=1, U=2, V=2, task="miml", n_labels=2),
    "miml1": ModelConfig(widths=(2, 4), plain_blocks=1, U=2, V=2, task="miml", n_labels=1),
}


def deformed_model(cfg, seed=0):
    """A model whose offsets sit at fractional, non-zero positions."""
    model = Model(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng([seed, 1])
    for name, p in model.params.items():
        if name.endswith("offset_bias"):
            p[:] = rng.uniform(0.1, 0.3, size=p.shape)
        elif name.endswith("offset_weight"):
            p[:] = 0.05 * rng.standard_normal(p.shape)
    return model


def bags_for(cfg, sizes, seed=0):
    """Images with labels shaped like the head's rows: label channel c of bag i is bit c of i."""
    rng = np.random.default_rng(seed)
    images = [rng.random((1, s, s)) for s in sizes]
    bits = [[(i >> c) % 2 for c in range(cfg.n_labels)] for i in range(len(sizes))]
    labels = list(np.reshape(bits, (len(sizes),) + cfg.head_shape()[:-1]))
    return images, labels, class_weights(labels)


def bag_loss(probs, y, weights):
    return weighted_mil_loss([(probs, y)], weights)


def bag_by_bag(model, images, labels, weights, mode):
    """The reference: Model.forward/backward per bag, summed in bag order."""
    total = 0.0
    acc = {}
    for img, y in zip(images, labels):
        probs, cache = model.forward(img)
        loss, gp = bag_loss(probs, y, weights)
        total += loss
        for name, g in model.backward(cache, gp[0], mode=mode).items():
            if name in acc:
                acc[name] += g
            else:
                acc[name] = g.copy()
    for g in acc.values():
        g /= len(images)
    return total / len(images), acc


class TestBatchedPasses:
    @pytest.mark.parametrize("mode", ["exact", "paper"])
    @pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
    def test_batch_loss_and_grads_equal_bag_by_bag(self, name, mode):
        cfg = BATCH_CONFIGS[name]
        model = deformed_model(cfg)
        images, labels, weights = bags_for(cfg, [16] * 7)  # passes of 4 and 3
        loss, grads = batch_loss_and_grads(model, images, labels, weights, mode=mode)
        ref_loss, ref_grads = bag_by_bag(model, images, labels, weights, mode)
        assert loss == ref_loss
        assert grads.keys() == ref_grads.keys()
        for key, g in grads.items():
            assert np.array_equal(g, ref_grads[key]), key

    @pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
    def test_evaluate_equals_single_forwards_on_mixed_sizes(self, name, monkeypatch):
        cfg = BATCH_CONFIGS[name]
        model = deformed_model(cfg)
        sizes = [16, 8, 16, 16, 8, 16, 16, 8, 16]
        images, labels, weights = bags_for(cfg, sizes)
        passes = []
        forward_batch = model.forward_batch

        def spy(batch, keep_cache=True):
            passes.append((len(batch), batch.shape[-1], keep_cache))
            return forward_batch(batch, keep_cache)

        monkeypatch.setattr(model, "forward_batch", spy)
        scores, got_labels, loss = evaluate(model, list(zip(images, labels)), weights)
        # bags of equal shape share a pass, no pass keeps a backward cache
        assert sorted(passes) == [(2, 16, False), (3, 8, False), (4, 16, False)]

        ref_loss = 0.0
        for i, (img, y) in enumerate(zip(images, labels)):
            probs, _ = model.forward(img)
            assert np.array_equal(scores[i], probs.p.max(axis=-1)), i
            ref_loss += bag_loss(probs, y, weights)[0]
        assert loss == ref_loss / len(images)
        assert np.array_equal(got_labels, np.asarray(labels))


def test_pass_working_set_stays_small():
    """A 16-bag step runs in passes, so its peak stays near one pass's, not 16 bags'."""
    model = Model(ACCEPTANCE_STACK, np.random.default_rng(0))
    images, labels, weights = bags_for(ACCEPTANCE_STACK, [32] * 16)

    def peak(n):
        tracemalloc.start()
        try:
            batch_loss_and_grads(model, images[:n], labels[:n], weights)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16)  # warm caches, the col2im indices of a full pass among them
    peak(1)  # and of a one-bag pass
    one, sixteen = peak(1), peak(16)
    assert sixteen <= 4 * one, (one, sixteen)


# ---------------------------------------------------------------------------
# gradcheck_problem runs both bags as one pass: equal to the per-image loop.
# ---------------------------------------------------------------------------

GRADCHECK_CONFIGS = {
    "mil": ModelConfig(widths=(2, 2), plain_blocks=1, U=2, V=2, H=3),
    "miml": ModelConfig(widths=(2, 2), plain_blocks=1, U=2, V=2, H=3, task="miml", n_labels=3),
}


def gradcheck_bags(cfg, seed, image_size=8):
    """The problem's two images, labels and weights, drawn as gradcheck_problem draws them."""
    rng = np.random.default_rng(seed)
    Model(cfg, rng)
    images = 3.0 * rng.random((2, cfg.in_channels, image_size, image_size))
    if cfg.task == "mil":
        return images, [1, 0], {0: 2.0, 1: 3.0}
    n = cfg.n_labels
    return images, [[1] + [0] * (n - 1), [0] * (n - 1) + [1]], None


@pytest.mark.parametrize("mode", ["exact", "paper"])
@pytest.mark.parametrize("task", sorted(GRADCHECK_CONFIGS))
def test_gradcheck_problem_equals_per_image_loop(task, mode):
    cfg = GRADCHECK_CONFIGS[task]
    model, loss_and_grads, loss_only = gradcheck_problem(cfg, seed=3, mode=mode)
    images, labels, weights = gradcheck_bags(cfg, seed=3)

    assert loss_only() == sum(bag_loss(model.forward(img)[0], y, weights)[0]
                              for img, y in zip(images, labels))

    ref_total = 0.0
    ref = {k: np.zeros_like(v) for k, v in model.params.items()}
    for img, y in zip(images, labels):
        probs, cache = model.forward(img)
        loss, gp = bag_loss(probs, y, weights)
        ref_total += loss
        for k, g in model.backward(cache, gp[0], mode=mode).items():
            ref[k] += g
    total, grads = loss_and_grads()
    assert_live(grads)
    assert total == ref_total
    assert grads.keys() == ref.keys()
    for k, g in grads.items():
        assert np.array_equal(g, ref[k]), k


# ---------------------------------------------------------------------------
# The single-label task is the one-label case of the multi-label task.
# ---------------------------------------------------------------------------

def test_one_label_miml_equals_mil():
    """task=miml with n_labels=1 trains and scores as task=mil bit for bit, up to the head's shape."""
    mil = ModelConfig(widths=(2, 2), plain_blocks=1, U=2, V=2, H=3)
    miml = ModelConfig(widths=(2, 2), plain_blocks=1, U=2, V=2, H=3, task="miml", n_labels=1)
    models = {cfg.task: Model(cfg, np.random.default_rng(4)) for cfg in (mil, miml)}
    assert models["mil"].params["head.w"].shape == (mil.head_channels(),)
    assert models["miml"].params["head.w"].shape == (1, mil.head_channels())

    def same_params():
        a, b = models["mil"].params, models["miml"].params
        return a.keys() == b.keys() and all(np.array_equal(a[k], b[k].reshape(a[k].shape))
                                            for k in a)

    assert same_params()
    bags = tiny_dataset(16, seed=2)
    as_miml = [(img, [y]) for img, y in bags]
    opt = cfg9(kind="adam", lr_filters=0.01, lr_masks=0.01, epochs=2)
    h_mil = train_model(models["mil"], bags[:12], bags[12:], opt)
    h_miml = train_model(models["miml"], as_miml[:12], as_miml[12:], opt)
    assert h_mil == h_miml
    assert same_params()

    weights = class_weights([y for _, y in bags])
    assert np.array_equal(class_weights([y for _, y in as_miml]), weights[None])
    s_mil, y_mil, l_mil = evaluate(models["mil"], bags, weights)
    s_miml, y_miml, l_miml = evaluate(models["miml"], as_miml, weights[None])
    assert s_miml.shape == (16, 1)
    assert np.array_equal(s_mil, s_miml[:, 0]) and np.array_equal(y_mil, y_miml[:, 0])
    assert l_mil == l_miml
