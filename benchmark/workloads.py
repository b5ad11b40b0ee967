"""The benchmark's workloads: inputs from a seed, checked operations, timings.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. Operations run in whole rounds (a
training epoch, a pass over the scored bags, a gradient check), and every
operation's output is compared with the same operation in the run's first
round, so a run also checks that the program is deterministic. Fixed-seed
reference instances, stored in `reference.json`, check the arithmetic
itself (see `reference`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from deformgabor import data, deform, layer, mil, model, train
from deformgabor.cli import GRADCHECK_TOLERANCE
from deformgabor.config import parse_config
from deformgabor.metrics import auc
from deformgabor.model import Model, ModelConfig, matched_plain_config
from deformgabor.train import OptimizerConfig
from probes import Site

# The acceptance suite's model, data recipe and optimizer.
DG_CFG = ModelConfig(widths=(4, 8, 8), plain_blocks=2, U=4, V=2, H=3)
PLAIN_CFG = matched_plain_config(DG_CFG)
DATA_SPEC = data.SynthLesionSpec(image_size=32, lesion_count=(1, 2), lesion_radius=(4.0, 7.0),
                                 contrast=0.6, noise_std=0.15, positive_fraction=0.5, seed=100)
OPT = dict(kind="adam", lr_masks=0.005, lr_filters=0.005, batch_size=16)

# Seed of everything that must not depend on --seed: the stored reference
# instances and the model that eval_corrupt scores with.
FIXED_SEED = 0


def _gradcheck_config() -> ModelConfig:
    """The proxy model `deformgabor gradcheck` checks under the default config."""
    m = parse_config().model
    return ModelConfig(widths=(2, 2), plain_blocks=min(m.plain_blocks, 1),
                       in_channels=m.in_channels, U=m.U, V=m.V, H=m.H, sigma=m.sigma,
                       lam=m.lam, task=m.task, n_labels=m.n_labels)


@dataclass(frozen=True)
class Sizes:
    image: int = 32              # train_* bag side
    n_train: int = 200
    n_val: int = 60
    ref_train: int = 48          # reference instance of the train workloads
    ref_val: int = 24
    ref_epochs: int = 2
    eval_image: int = 64         # eval_corrupt bag side
    fit_train: int = 64          # training of the scored model, in set-up
    fit_val: int = 16
    fit_epochs: int = 2
    n_test: int = 64             # clean test bags; each gives two corrupted bags
    ref_bags: int = 16           # corrupted bags in eval_corrupt's reference
    gradcheck: ModelConfig = field(default_factory=_gradcheck_config)


FULL = Sizes()
TINY = Sizes(image=16, n_train=32, n_val=16, ref_train=32, ref_val=16, eval_image=32,
             fit_train=32, fit_val=16, fit_epochs=1, n_test=4, ref_bags=4,
             gradcheck=replace(_gradcheck_config(), widths=(1, 1), U=2, V=1))


def fingerprint(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# train_dg and train_plain: one epoch of a fresh model per operation.
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    cfg: ModelConfig
    train: list
    val: list
    opt: OptimizerConfig
    seed: int

    def fingerprint(self):
        return fingerprint(*(img for img, _ in self.train + self.val),
                           [y for _, y in self.train + self.val])


def _train_bags(sizes: Sizes, seed: int, n_train: int, n_val: int):
    spec = replace(DATA_SPEC, image_size=sizes.image, seed=seed)
    return (data.build_bags(spec, n_train),
            data.build_bags(spec, n_val, start_index=n_train))


class TrainWorkload:
    """Adam training of one stack on the acceptance data, exact backward.

    An operation builds the model from the seed and trains it for one
    epoch, validation included, so every operation does the same work on
    the same state and can be compared bitwise with the first.
    """

    request = "optimizer step"
    reference_items = "per-epoch train loss and val_auc"

    def __init__(self, cfg: ModelConfig, sizes: Sizes):
        self.cfg = cfg
        self.sizes = sizes

    def setup(self, seed: int) -> TrainState:
        tr, va = _train_bags(self.sizes, seed, self.sizes.n_train, self.sizes.n_val)
        return TrainState(self.cfg, tr, va, OptimizerConfig(seed=seed, epochs=1, **OPT), seed)

    def ops_per_round(self, state) -> int:
        return 1

    def bags_per_round(self, state) -> int:
        return len(state.train)

    def op(self, state: TrainState, i: int, tracer):
        m = Model(state.cfg, np.random.default_rng(state.seed))
        (row,) = train.train_model(m, state.train, state.val, state.opt)
        return (row["train_loss"], row["val_loss"], row["val_auc"])

    def valid(self, result) -> bool:
        return all(math.isfinite(v) for v in result) and 0.0 <= result[2] <= 1.0

    def request_seconds(self, tracer) -> np.ndarray:
        """Optimizer steps: batch forward and backward through the optimizer update."""
        start, _ = tracer.spans("train.batch_loss_and_grads")
        _, end = tracer.spans("train.optimizer_step")
        n = min(len(start), len(end))
        return end[:n] - start[:n]

    def quality(self, state, results) -> dict:
        return {"val_auc": results[0][2], "train_loss": results[0][0]}

    def reference(self, state):
        tr, va = _train_bags(self.sizes, FIXED_SEED, self.sizes.ref_train, self.sizes.ref_val)
        m = Model(self.cfg, np.random.default_rng(FIXED_SEED))
        opt = OptimizerConfig(seed=FIXED_SEED, epochs=self.sizes.ref_epochs, **OPT)
        return [[row["train_loss"], row["val_auc"]] for row in train.train_model(m, tr, va, opt)]


# ---------------------------------------------------------------------------
# eval_corrupt: forward-only scoring of corrupted bags at 64x64.
# ---------------------------------------------------------------------------

@dataclass
class EvalState:
    model: Model
    bags: list

    def fingerprint(self):
        return fingerprint(*self.model.params.values(), *(img for img, _ in self.bags),
                           [y for _, y in self.bags])


def corrupted_bags(sizes: Sizes, seed: int, n_clean: int):
    """One rotate+scale copy and one 1% salt-noise copy of each clean test bag."""
    spec = replace(DATA_SPEC, image_size=sizes.eval_image, seed=seed)
    rng = np.random.default_rng([seed, 777])
    out = []
    for img, y in data.build_bags(spec, n_clean):
        out.append((data.deform_transform(img, rng.uniform(0.5, 1.5),
                                          rng.uniform(0.0, 2.0 * np.pi)), y))
        out.append((data.salt_noise(img, prob=0.01, value=1.0,
                                    seed=int(rng.integers(2 ** 31))), y))
    return out


class EvalWorkload:
    """Scores corrupted bags with a deformable Gabor model trained in set-up.

    The model is trained from FIXED_SEED, so its offsets and masks have
    moved off the zero-offset, all-ones initialisation where every tap
    lands on an integer point. Only the bags depend on --seed.
    """

    request = "bag scored"
    reference_items = "bag scores of fixed-seed corrupted bags"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def fit(self) -> Model:
        tr, va = _train_bags(self.sizes, FIXED_SEED, self.sizes.fit_train, self.sizes.fit_val)
        m = Model(DG_CFG, np.random.default_rng(FIXED_SEED))
        train.train_model(m, tr, va, OptimizerConfig(seed=FIXED_SEED,
                                                     epochs=self.sizes.fit_epochs, **OPT))
        return m

    def setup(self, seed: int) -> EvalState:
        return EvalState(self.fit(), corrupted_bags(self.sizes, seed, self.sizes.n_test))

    def ops_per_round(self, state) -> int:
        return len(state.bags)

    def bags_per_round(self, state) -> int:
        return len(state.bags)

    def op(self, state: EvalState, i: int, tracer):
        probs, _ = state.model.forward(state.bags[i][0])
        return mil.bag_prob(probs)

    def valid(self, result) -> bool:
        return 0.0 <= result <= 1.0

    def request_seconds(self, tracer) -> np.ndarray:
        start, end = tracer.spans("bench.op")
        return end - start

    def quality(self, state, results) -> dict:
        return {"corrupt_auc": auc(results, [y for _, y in state.bags])}

    def reference(self, state):
        bags = corrupted_bags(self.sizes, FIXED_SEED, self.sizes.ref_bags // 2)
        return [mil.bag_prob(state.model.forward(img)[0]) for img, _ in bags]


# ---------------------------------------------------------------------------
# gradcheck: central finite differences on the CLI's proxy model.
# ---------------------------------------------------------------------------

@dataclass
class GradcheckState:
    model: Model
    loss_and_grads: object
    loss_only: object

    def fingerprint(self):
        return fingerprint(*self.model.params.values())


class GradcheckWorkload:
    """`train.grad_check` over every parameter of the `gradcheck` proxy model.

    Each loss evaluation forwards the problem's two 8x8 bags, so the run is
    thousands of single-image forwards. An operation is one full check;
    it passes when every block stays below the CLI's tolerance.
    """

    request = "loss evaluation"
    reference_items = None

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int) -> GradcheckState:
        return GradcheckState(*train.gradcheck_problem(self.sizes.gradcheck, seed=seed))

    def ops_per_round(self, state) -> int:
        return 1

    def bags_per_round(self, state) -> int:
        n_params = sum(p.size for p in state.model.params.values())
        return 2 * 2 * n_params  # two loss evaluations per entry, two bags per loss

    def op(self, state: GradcheckState, i: int, tracer):
        def loss_only():
            with tracer.span("bench.loss_eval", new_request=True):
                return state.loss_only()

        return train.grad_check(state.loss_and_grads, loss_only, state.model.params)

    def valid(self, result) -> bool:
        return all(math.isfinite(e) and e < GRADCHECK_TOLERANCE for e in result.values())

    def request_seconds(self, tracer) -> np.ndarray:
        start, end = tracer.spans("bench.loss_eval")
        return end - start

    def quality(self, state, results) -> dict:
        return {"max_rel_error": max(results[0].values()), "tolerance": GRADCHECK_TOLERANCE}


def make(name: str, sizes: Sizes):
    if name == "train_dg":
        return TrainWorkload(DG_CFG, sizes)
    if name == "train_plain":
        return TrainWorkload(PLAIN_CFG, sizes)
    if name == "eval_corrupt":
        return EvalWorkload(sizes)
    if name == "gradcheck":
        return GradcheckWorkload(sizes)
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Probes. Untraced runs install only what the end-to-end timings need;
# traced runs wrap every public function the layers' callers look up.
# ---------------------------------------------------------------------------

UNTRACED_SITES = (
    Site(train, "batch_loss_and_grads", "train.batch_loss_and_grads", request=True),
    Site(train, "optimizer_step", "train.optimizer_step"),
)


def _dgconv_counts(args, kwargs, result):
    x, p = args[0], args[1]
    y, cache = result
    u, n = x.shape[0], x.shape[1]
    m, h, v = p.conv_filters.shape[0], p.conv_filters.shape[3], p.masks.shape[0]
    hh, grid = h * h, y.shape[2] * y.shape[3]
    macs = (2 * hh * n * u * hh * grid      # offset prediction
            + v * m * n * u * hh * grid     # deformable contraction
            + u * m * v * hh * grid)        # Gabor stage
    arrays = [a for a in vars(cache).values() if isinstance(a, np.ndarray)]
    arrays += [a for a in vars(cache.samples).values() if isinstance(a, np.ndarray)]
    return {"macs": macs, "cache_bytes": sum(a.nbytes for a in arrays)}


def _conv_counts(args, kwargs, result):
    return {"macs": result.size * args[1][0].size}


def _conv_backward_counts(args, kwargs, result):
    return {"macs": 2 * args[0].size * args[2][0].size}  # grad_w and grad_x


def _offset_counts(args, kwargs, result):
    return {"macs": result.size * args[1].weight[0].size}


def _sample_counts(args, kwargs, result):
    x, offsets = args[0], args[1]
    return {"reads": 4 * x.shape[0] * (offsets.size // 2)}  # four corners per tap


def _einsum_module():
    try:
        from numpy._core import einsumfunc
    except ImportError:  # numpy 1.x
        from numpy.core import einsumfunc
    return einsumfunc


TRACED_SITES = UNTRACED_SITES + (
    Site(layer, "dgconv_forward", "layer.dgconv_forward", _dgconv_counts),
    Site(layer, "dgconv_backward", "layer.dgconv_backward"),
    Site(layer, "predict_offsets", "deform.predict_offsets", _offset_counts),
    Site(layer, "sample_grid", "deform.sample_grid", _sample_counts),
    Site(layer, "sample_values", "deform.sample_values"),
    Site(layer, "sample_backward", "deform.sample_backward"),
    Site(model, "conv2d", "tensor.conv2d.plain", _conv_counts),
    Site(model, "conv2d_backward", "tensor.conv2d_backward.plain", _conv_backward_counts),
    Site(deform, "conv2d", "tensor.conv2d.offset", _conv_counts),
    Site(layer, "conv2d_backward", "tensor.conv2d_backward.offset", _conv_backward_counts),
    Site(Model, "forward", "model.forward"),
    Site(Model, "backward", "model.backward"),
    Site(model, "patch_probs", "mil.patch_probs"),
    Site(model, "head_backward", "mil.head_backward"),
    Site(train, "weighted_mil_loss", "mil.loss"),
    Site(train, "evaluate", "train.evaluate", request=True),
    Site(train, "grad_check", "train.grad_check"),
    Site(data, "build_bags", "data.build_bags"),
    Site(data, "deform_transform", "data.deform_transform"),
    Site(data, "salt_noise", "data.salt_noise"),
    Site(_einsum_module(), "einsum_path", "numpy.einsum_path"),
)
