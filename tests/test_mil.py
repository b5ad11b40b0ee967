import numpy as np
import pytest

from conftest import fd_grad, rel_err
from deformgabor.mil import (PatchProbabilities, bag_prob, class_weights,
                             head_backward, mil_loss, miml_loss, patch_probs,
                             save_heatmap, weighted_mil_loss)


def probs_of(p):
    p = np.asarray(p, dtype=np.float64)
    return PatchProbabilities(p=p, grid=(1, p.shape[-1]))


class TestPatchProbs:
    def test_zero_head_gives_half(self):
        f = np.random.default_rng(0).standard_normal((1, 3, 2, 2))
        [out] = patch_probs(f, np.zeros(3), 0.0)
        np.testing.assert_array_equal(out.p, np.full(4, 0.5))
        assert out.grid == (2, 2)

    def test_saturated_bias(self):
        f = np.zeros((1, 2, 2, 2))
        [out] = patch_probs(f, np.zeros(2), 20.0)
        np.testing.assert_allclose(out.p, 1.0, atol=1e-8)

    def test_hand_computed_sigmoid(self):
        f = np.array([1.0, 2.0]).reshape(1, 2, 1, 1)
        [out] = patch_probs(f, np.array([0.5, -0.25]), 0.1)
        assert out.p[0] == pytest.approx(0.5249791874789399, abs=1e-12)

    def test_multilabel_shape(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((1, 3, 2, 2))
        [out] = patch_probs(f, rng.standard_normal((5, 3)), np.zeros(5))
        assert out.p.shape == (5, 4)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            patch_probs(np.zeros((1, 3, 2, 2)), np.zeros(4), 0.0)

    def test_single_image_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            patch_probs(np.zeros((3, 2, 2)), np.zeros(3), 0.0)

    def test_head_backward_finite_differences(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((3, 2, 2))
        w = rng.standard_normal(3)
        b = 0.3
        gp = rng.standard_normal(4)

        def loss():
            return float(np.sum(patch_probs(f[None], w, b)[0].p * gp))

        probs = patch_probs(f[None], w, b)
        [gw], _, [gf] = head_backward([gp], f[None], w, probs)
        assert rel_err(gw, fd_grad(loss, w)) < 1e-7
        assert rel_err(gf, fd_grad(loss, f)) < 1e-7


class TestBagProb:
    def test_max(self):
        assert bag_prob(probs_of([0.1, 0.9, 0.3])) == 0.9

    def test_singleton(self):
        assert bag_prob(probs_of([0.4])) == 0.4

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        p = rng.random(7)
        assert bag_prob(probs_of(p)) == bag_prob(probs_of(p[::-1]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bag_prob(PatchProbabilities(p=np.zeros(0), grid=(0, 0)))


class TestMILLoss:
    def test_hand_values(self):
        loss1, _ = mil_loss([(probs_of([0.2, 0.7]), 1)])
        assert loss1 == pytest.approx(0.35667494393873245, abs=1e-9)
        loss0, _ = mil_loss([(probs_of([0.2, 0.7]), 0)])
        assert loss0 == pytest.approx(1.2039728043259361, abs=1e-9)

    def test_perfect_confidence(self):
        loss, _ = mil_loss([(probs_of([1.0 - 1e-12]), 1)])
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_gradient_support_is_argmax_only(self):
        _, grads = mil_loss([(probs_of([0.2, 0.7, 0.3]), 1)])
        assert np.count_nonzero(grads[0]) == 1
        assert grads[0][1] != 0.0

    def test_tie_break_lowest_index(self):
        _, grads = mil_loss([(probs_of([0.7, 0.7]), 1)])
        assert grads[0][0] != 0.0 and grads[0][1] == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        p = rng.random(6)
        perm = rng.permutation(6)
        l1, g1 = mil_loss([(probs_of(p), 1)])
        l2, g2 = mil_loss([(probs_of(p[perm]), 1)])
        assert l1 == l2
        assert sorted(g1[0]) == sorted(g2[0])

    def test_monotone_in_max_for_positive(self):
        losses = [mil_loss([(probs_of([0.1, pm]), 1)])[0] for pm in (0.3, 0.5, 0.7, 0.9)]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(5)
        p = np.sort(rng.uniform(0.1, 0.9, size=5))  # distinct, away from clamp
        for y in (0, 1):
            _, grads = mil_loss([(probs_of(p), y)])

            def loss():
                return mil_loss([(probs_of(p), y)])[0]

            assert rel_err(grads[0], fd_grad(loss, p, eps=1e-7)) < 1e-6


class TestWeights:
    def test_inverse_frequency(self):
        w = class_weights([1, 0, 0, 0, 0])
        assert w[1] == 5.0 and w[0] == 1.25

    def test_balanced(self):
        w = class_weights([1, 1, 0, 0])
        assert w[0] == w[1] == 2.0

    def test_one_in_five_imbalance(self):
        # a 1/5 positive fraction puts the weight ratio at about 5
        labels = [1] * 20 + [0] * 80
        w = class_weights(labels)
        assert w[1] / w[0] == pytest.approx(4.0)
        labels = [1] * 17 + [0] * 83
        w = class_weights(labels)
        assert w[1] / w[0] == pytest.approx(83 / 17)

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError):
            class_weights([1, 1, 1])

    def test_single_label_is_the_one_channel_row(self):
        labels = [1, 0, 0, 1, 0]
        w = class_weights(labels)
        assert w.shape == (2,)
        assert np.array_equal(class_weights(np.reshape(labels, (-1, 1))), w[None])


class TestWeightedMIL:
    def test_unit_weights_match_exactly(self):
        rng = np.random.default_rng(6)
        bags = [(probs_of(rng.random(4)), int(rng.integers(0, 2))) for _ in range(5)]
        l1, g1 = mil_loss(bags)
        l2, g2 = weighted_mil_loss(bags, {0: 1.0, 1: 1.0})
        assert l1 == l2
        for a, b in zip(g1, g2):
            np.testing.assert_array_equal(a, b)

    def test_hand_value(self):
        loss, _ = weighted_mil_loss([(probs_of([0.2, 0.7]), 1)], {0: 1.0, 1: 5.0})
        assert loss == pytest.approx(1.7833747196936623, abs=1e-9)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(7)
        bags = [(probs_of(rng.random(3)), int(rng.integers(0, 2))) for _ in range(4)]
        l1, _ = weighted_mil_loss(bags, {0: 1.5, 1: 3.0})
        l2, _ = weighted_mil_loss(bags, {0: 3.0, 1: 6.0})
        assert l2 == pytest.approx(2 * l1, rel=1e-12)


class TestMIML:
    def test_single_channel_reduces_to_mil(self):
        rng = np.random.default_rng(8)
        p = rng.random(5)
        for y in (0, 1):
            l_miml, g_miml = miml_loss([(PatchProbabilities(p=p[None], grid=(1, 5)), [y])])
            l_mil, g_mil = mil_loss([(probs_of(p), y)])
            assert l_miml == l_mil
            np.testing.assert_array_equal(g_miml[0][0], g_mil[0])

    def test_all_negative_near_zero_probs(self):
        p = np.full((3, 4), 1e-3)
        loss, _ = miml_loss([(PatchProbabilities(p=p, grid=(1, 4)), [0, 0, 0])])
        assert loss < 0.01

    def test_hand_value_two_channels(self):
        p = np.array([[0.6, 0.1], [0.2, 0.05]])
        loss, _ = miml_loss([(PatchProbabilities(p=p, grid=(1, 2)), [1, 0])])
        assert loss == pytest.approx(0.7339691750802004, abs=1e-9)

    def test_one_gradient_per_channel(self):
        rng = np.random.default_rng(9)
        p = rng.random((4, 6))
        _, grads = miml_loss([(PatchProbabilities(p=p, grid=(2, 3)), [1, 0, 1, 0])])
        assert (np.count_nonzero(grads[0], axis=1) == 1).all()

    def test_per_class_weights(self):
        p = np.array([[0.6], [0.2]])
        w = np.array([[1.0, 3.0], [2.0, 1.0]])
        loss, _ = miml_loss([(PatchProbabilities(p=p, grid=(1, 1)), [1, 0])], weights=w)
        assert loss == pytest.approx(-3.0 * np.log(0.6) - 2.0 * np.log(0.8), abs=1e-12)

    def test_labels_and_weights_must_match_channels(self):
        probs = PatchProbabilities(p=np.array([[0.6, 0.1], [0.2, 0.05]]), grid=(1, 2))
        for y, w in (([1], None), ([1, 0, 1], None), ([1, 0], {0: 1.0, 1: 2.0})):
            with pytest.raises(ValueError, match="label channels"):
                weighted_mil_loss([(probs, y)], w)

    def test_frequency_weights(self):
        labels = np.array([[1, 0], [0, 0], [1, 1], [1, 0]])
        w = class_weights(labels)
        assert w[0, 1] == pytest.approx(4 / 3)
        assert w[0, 0] == pytest.approx(4.0)
        assert w[1, 1] == pytest.approx(4.0)


class TestHeatmap:
    def test_roundtrip_files(self, tmp_path):
        rng = np.random.default_rng(10)
        p = rng.random(16)
        probs = PatchProbabilities(p=p, grid=(4, 4))
        stem = tmp_path / "bag0"
        save_heatmap(str(stem), probs, upscale=4)
        grid = np.loadtxt(f"{stem}.csv", delimiter=",")
        np.testing.assert_allclose(grid, p.reshape(4, 4), atol=1e-15)
        tokens = (tmp_path / "bag0.pgm").read_text().split()
        assert tokens[:4] == ["P2", "16", "16", "255"]  # magic, width, height, maxval
        assert len(tokens) == 4 + 16 * 16

    def test_multilabel_needs_channel(self, tmp_path):
        probs = PatchProbabilities(p=np.random.default_rng(11).random((2, 4)), grid=(2, 2))
        with pytest.raises(ValueError):
            save_heatmap(str(tmp_path / "x"), probs)
        save_heatmap(str(tmp_path / "x"), probs, channel=1)


class TestBatchedPatchProbs:
    @pytest.mark.parametrize("n_bags", [1, 2, 5])
    @pytest.mark.parametrize("labels", [None, 3])
    def test_batch_equals_per_bag(self, n_bags, labels):
        rng = np.random.default_rng(n_bags)
        feats = rng.standard_normal((n_bags, 4, 3, 2)) * 3
        if labels is None:
            w, b = rng.standard_normal(4), 0.3
        else:
            w, b = rng.standard_normal((labels, 4)), rng.standard_normal(labels)
        batch = patch_probs(feats, w, b)
        assert len(batch) == n_bags
        grad_ps = [rng.standard_normal(pr.p.shape) for pr in batch]
        grad_w, grad_b, grad_f = head_backward(grad_ps, feats, w, batch)
        assert grad_w.shape == (n_bags,) + w.shape
        assert grad_b.shape == (n_bags, 1 if labels is None else labels)
        assert grad_f.shape == feats.shape
        for i, (f, got) in enumerate(zip(feats, batch)):
            [want] = patch_probs(f[None], w, b)
            assert got.grid == want.grid == (3, 2)
            assert got.p.shape == want.p.shape
            assert np.array_equal(got.p, want.p)
            # the pass's head gradients are its bags' one-bag calls, bit for bit
            one = head_backward([grad_ps[i]], f[None], w, [want])
            for pass_grad, bag_grad in zip((grad_w, grad_b, grad_f), one):
                assert np.array_equal(pass_grad[i], bag_grad[0])
