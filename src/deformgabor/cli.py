"""Command-line front end.

Subcommands: gradcheck, params, train, eval, dump-gabor.
All take an optional declarative config file plus repeatable
`--set section.key=value` overrides. Exit codes: 0 ok, 1 check failed,
2 config error, 3 numeric failure, 4 shape error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .data import build_bags, deform_transform, salt_noise
from .gabor import make_bank
from .ioutils import save_pgm
from .metrics import accuracy, auc
from .mil import save_heatmap
from .model import (Model, ShapeMismatchError, load_checkpoint,
                    matched_plain_config, param_table, total_params)
from .tensor import dump_csv
from .train import NumericsError, grad_check, gradcheck_problem, train_model

GRADCHECK_TOLERANCE = 1e-4


def _out_dir(args, cfg: RunConfig) -> str:
    path = args.output or cfg.run.output or os.environ.get("DEFORMGABOR_OUT", "runs")
    os.makedirs(path, exist_ok=True)
    return path


def _split(cfg: RunConfig, name: str):
    """The bags of one split; bags are a pure function of (spec, index), so
    each split is rebuilt from where it starts in the train, val, test order."""
    d = cfg.data
    start = {"train": 0, "val": d.n_train, "test": d.n_train + d.n_val}[name]
    return build_bags(d.lesion_spec(), getattr(d, f"n_{name}"), start_index=start)


def cmd_gradcheck(args, cfg: RunConfig) -> int:
    # a tiny proxy model keeps finite differences tractable: two stages of
    # width 2 with the configured U/V/H/task, on an 8x8 input
    tiny = replace(cfg.model, widths=(2, 2), plain_blocks=min(cfg.model.plain_blocks, 1))
    model, loss_and_grads, loss_only = gradcheck_problem(tiny, seed=cfg.optimizer.seed,
                                                         mode=cfg.run.mode)
    report = grad_check(loss_and_grads, loss_only, model.params)
    # a NaN error compares False and so fails too
    status = {name: "ok" if err < GRADCHECK_TOLERANCE else "FAIL" for name, err in report.items()}
    out = _out_dir(args, cfg)
    with open(os.path.join(out, "gradcheck_report.csv"), "w") as fh:
        fh.write("block,max_rel_error,status\n")
        for name, err in report.items():
            fh.write(f"{name},{err:.3e},{status[name]}\n")
            print(f"{name}: {err:.3e} {status[name]}")
    failing = [name for name, s in status.items() if s == "FAIL"]
    if failing:
        print(f"gradcheck failed ({cfg.run.mode} mode): {', '.join(failing)}", file=sys.stderr)
        return 1
    print(f"gradcheck passed ({cfg.run.mode} mode, tolerance {GRADCHECK_TOLERANCE:g})")
    return 0


def cmd_params(args, cfg: RunConfig) -> int:
    rows = param_table(cfg.model)
    print(f"{'block':<8} {'kind':<6} {'filters':>10} {'masks':>8} {'offset':>10} "
          f"{'bias':>6} {'total':>10}")
    for name, kind, counts in rows:
        total = sum(counts.values())
        print(f"{name:<8} {kind:<6} {counts.get('filters', 0):>10} "
              f"{counts.get('masks', 0):>8} {counts.get('offset', 0):>10} "
              f"{counts.get('offset_bias', counts.get('bias', 0)):>6} {total:>10}")
    print(f"total learnable parameters: {total_params(cfg.model)}")
    if cfg.model.plain_blocks < cfg.model.n_blocks:
        plain = matched_plain_config(cfg.model)
        print(f"matched plain reference: widths {'-'.join(map(str, plain.widths))}, "
              f"total {total_params(plain)}")
    return 0


def _check_classes(split: str, bags, needs: str) -> None:
    """A split of one class ends as a config error: `needs` names what needs both."""
    present = {y for _, y in bags}
    for y in (0, 1):
        if y not in present:
            raise ConfigError(
                f"the {split} split ({len(bags)} bags) has no bag of class {y}, "
                f"and {needs} needs both classes; change data.positive_fraction "
                f"or data.n_{split}")


def _check_single_label(cfg: RunConfig) -> None:
    """train and eval run on the synthetic bags, which carry one label each."""
    if cfg.model.task != "mil":
        raise ConfigError(f"model.task={cfg.model.task} needs multi-label bags, and the "
                          "synthetic dataset has one label per bag; train and eval take task=mil")


def cmd_train(args, cfg: RunConfig) -> int:
    from .data import AugmentConfig

    _check_single_label(cfg)
    train, val = _split(cfg, "train"), _split(cfg, "val")
    _check_classes("train", train, "the class weighting")
    _check_classes("val", val, "the validation AUC")
    out = _out_dir(args, cfg)
    model = Model(cfg.model, np.random.default_rng(cfg.optimizer.seed))
    history = train_model(model, train, val, cfg.optimizer, out_dir=out,
                          mode=cfg.run.mode,
                          augment_cfg=AugmentConfig() if cfg.data.augment else None)
    if history:
        last = history[-1]
        print(f"epoch {last['epoch']}: train_loss {last['train_loss']:.4f} "
              f"val_loss {last['val_loss']:.4f} val_auc {last['val_auc']:.4f}")
    print(f"wrote checkpoints and train_log.csv to {out}")
    return 0


def _corrupted_test_set(test, cfg: RunConfig, corrupt: str):
    if corrupt == "none":
        return test
    rng = np.random.default_rng([cfg.data.seed, 999])
    bags = []
    if corrupt == "deform":
        for img, y in test:
            for _ in range(cfg.data.deform_variants):
                scale = rng.uniform(0.5, 1.5)
                angle = rng.uniform(0.0, 2.0 * np.pi)
                bags.append((deform_transform(img, scale, angle), y))
    elif corrupt == "noise":
        for img, y in test:
            bags.append((salt_noise(img, prob=cfg.data.noise_prob, value=1.0,
                                    seed=int(rng.integers(2 ** 31))), y))
    else:
        raise ConfigError(f"unknown corruption {corrupt!r}")
    return bags


def cmd_eval(args, cfg: RunConfig) -> int:
    from .train import evaluate

    _check_single_label(cfg)
    test = _split(cfg, "test")
    _check_classes("test", test, "the test AUC")
    out = _out_dir(args, cfg)
    model = Model(cfg.model, np.random.default_rng(cfg.optimizer.seed))
    load_checkpoint(args.checkpoint, model)
    test = _corrupted_test_set(test, cfg, args.corrupt)

    scores, labels, _ = evaluate(model, test)
    a = auc(scores, labels)
    acc = accuracy(scores, labels)
    with open(os.path.join(out, "metrics.csv"), "w") as fh:
        fh.write(f"metric,value\nauc,{a:.6f}\naccuracy,{acc:.6f}\n")
    print(f"auc {a:.4f}  accuracy {acc:.4f}  ({len(test)} bags, corrupt={args.corrupt})")

    for i in range(min(cfg.run.heatmaps, len(test))):
        probs, _ = model.forward(test[i][0])
        save_heatmap(os.path.join(out, f"heatmap_bag{i}"), probs)
    print(f"wrote metrics and {min(cfg.run.heatmaps, len(test))} heatmaps to {out}")
    return 0


def cmd_dump_gabor(args, cfg: RunConfig) -> int:
    out = _out_dir(args, cfg)
    bank = make_bank(cfg.model.U, cfg.model.H, cfg.model.sigma, cfg.model.lam)
    for u in range(bank.U):
        stem = os.path.join(out, f"gabor_u{u}")
        dump_csv(f"{stem}.csv", bank.filters[u])
        save_pgm(f"{stem}.pgm", bank.filters[u])
    print(f"wrote {bank.U} filters (sigma {bank.sigma:.3f}, lambda {bank.lam:.3f}) to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deformgabor",
        description="Deformable Gabor convolution experiments: gradient checks, "
                    "parameter accounting, training, and evaluation on synthetic bags.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override one config value (repeatable)")
        p.add_argument("--output", default=None,
                       help="output directory (default: config, then $DEFORMGABOR_OUT, then ./runs)")

    p = sub.add_parser("gradcheck", help="finite-difference check of a tiny model's gradients")
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("params", help="per-layer parameter counts and the matched plain reference")
    common(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("train", help="train on the synthetic dataset, writing logs and checkpoints")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint; writes metrics and patch heatmaps")
    common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint file from train")
    p.add_argument("--corrupt", choices=("none", "deform", "noise"), default="none",
                   help="test-time corruption protocol")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("dump-gabor", help="write each orientation filter as CSV and PGM")
    common(p)
    p.set_defaults(func=cmd_dump_gabor)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.set)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ShapeMismatchError as exc:
        print(f"shape error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
