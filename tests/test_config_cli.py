import struct
from dataclasses import fields

import numpy as np
import pytest

from deformgabor.cli import main
from deformgabor.config import ConfigError, DataConfig, RunConfig, RunSettings, parse_config
from deformgabor.data import build_bags
from deformgabor.model import ModelConfig
from deformgabor.train import OptimizerConfig


class TestParseConfig:
    def test_all_defaults(self):
        cfg = parse_config()
        assert cfg.model.widths == (4, 8)
        assert cfg.model.U == 4
        assert cfg.optimizer.kind == "adam"
        assert cfg.data.n_train == 200
        assert cfg.run.mode == "exact"
        assert cfg == RunConfig(ModelConfig(), OptimizerConfig(), DataConfig(), RunSettings())

    def test_every_key_lands_on_its_field(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("""
[model]
widths = 6-5-3
plain_blocks = 2
in_channels = 3
orientations = 2
mask_count = 3
kernel_size = 5
sigma = 1.5
lambda = 2.5
task = miml
n_labels = 4

[optimizer]
kind = sgd_momentum
lr_masks = 0.002
lr_filters = 0.003
momentum = 0.5
weight_decay = 0.001
epochs = 7
batch_size = 8
lr_decay_every = 20
lr_decay_factor = 0.5
plateau_patience = 3
seed = 11

[data]
image_size = 24
lesion_min = 2
lesion_max = 3
radius_min = 2.5
radius_max = 5.5
contrast = 0.7
oriented_texture = false
noise_std = 0.2
positive_fraction = 0.4
seed = 5
n_train = 30
n_val = 10
n_test = 12
augment = true
deform_variants = 3
noise_prob = 0.05

[run]
output = out/dir
mode = paper
heatmaps = 2
""")
        cfg = parse_config(p)
        assert cfg == RunConfig(
            ModelConfig(widths=(6, 5, 3), plain_blocks=2, in_channels=3, U=2, V=3, H=5,
                        sigma=1.5, lam=2.5, task="miml", n_labels=4),
            OptimizerConfig(kind="sgd_momentum", lr_masks=0.002, lr_filters=0.003,
                            momentum=0.5, weight_decay=0.001, epochs=7, batch_size=8,
                            lr_decay_every=20, lr_decay_factor=0.5, plateau_patience=3,
                            seed=11),
            DataConfig(image_size=24, lesion_min=2, lesion_max=3, radius_min=2.5,
                       radius_max=5.5, contrast=0.7, oriented_texture=False, noise_std=0.2,
                       positive_fraction=0.4, seed=5, n_train=30, n_val=10, n_test=12,
                       augment=True, deform_variants=3, noise_prob=0.05),
            RunSettings(output="out/dir", mode="paper", heatmaps=2))
        # the file leaves no field at its default, so it names every key
        for section in fields(cfg):
            values = getattr(cfg, section.name)
            for f in fields(values):
                assert getattr(values, f.name) != f.default, (section.name, f.name)

    def test_file_values(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("""
[model]
widths = 8-16-32
plain_blocks = 2
orientations = 2

[optimizer]
epochs = 7
kind = sgd_momentum

[data]
image_size = 16
augment = true

[run]
mode = paper
""")
        cfg = parse_config(p)
        assert cfg.model.widths == (8, 16, 32)
        assert cfg.model.plain_blocks == 2
        assert cfg.model.U == 2
        assert cfg.optimizer.epochs == 7
        assert cfg.optimizer.kind == "sgd_momentum"
        assert cfg.data.image_size == 16
        assert cfg.data.augment is True
        assert cfg.run.mode == "paper"

    def test_overrides_beat_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("[optimizer]\nepochs = 7\n")
        cfg = parse_config(p, overrides=["optimizer.epochs=3", "model.widths=2-2"])
        assert cfg.optimizer.epochs == 3
        assert cfg.model.widths == (2, 2)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("[model]\nwidth = 4\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("[models]\nwidths = 4\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(overrides=["optimizer.epochs=three"])
        with pytest.raises(ConfigError):
            parse_config(overrides=["model.widths=4-x"])
        with pytest.raises(ConfigError):
            parse_config(overrides=["run.mode=sideways"])

    def test_malformed_override(self):
        with pytest.raises(ConfigError):
            parse_config(overrides=["epochs=3"])


FAST = [
    "--set", "data.n_train=12", "--set", "data.n_val=8", "--set", "data.n_test=8",
    "--set", "data.image_size=8", "--set", "model.widths=2-2",
    "--set", "model.orientations=2", "--set", "model.mask_count=1",
    "--set", "optimizer.epochs=2", "--set", "optimizer.batch_size=4",
    "--set", "optimizer.lr_filters=0.01", "--set", "optimizer.lr_masks=0.01",
    "--set", "data.radius_min=2", "--set", "data.radius_max=3",
]


class TestCLI:
    def test_gradcheck_exact_passes(self, tmp_path):
        code = main(["gradcheck", "--output", str(tmp_path),
                     "--set", "model.widths=2-2", "--set", "model.orientations=2",
                     "--set", "model.mask_count=1"])
        assert code == 0
        report = (tmp_path / "gradcheck_report.csv").read_text()
        assert "FAIL" not in report

    def test_gradcheck_paper_mode_fails_and_names_blocks(self, tmp_path, capsys):
        code = main(["gradcheck", "--output", str(tmp_path),
                     "--set", "model.widths=2-2", "--set", "model.orientations=2",
                     "--set", "model.mask_count=2", "--set", "run.mode=paper"])
        assert code == 1
        report = (tmp_path / "gradcheck_report.csv").read_text()
        assert "block1.masks" in report and "FAIL" in report
        err = capsys.readouterr().err
        assert "masks" in err

    def test_gradcheck_nan_loss_fails(self, tmp_path, monkeypatch, capsys):
        from deformgabor import cli

        real = cli.gradcheck_problem  # the loss goes NaN, the analytic gradients stay finite
        monkeypatch.setattr(cli, "gradcheck_problem",
                            lambda *a, **kw: real(*a, **kw)[:2] + (lambda: float("nan"),))
        code = main(["gradcheck", "--output", str(tmp_path),
                     "--set", "model.widths=2-2", "--set", "model.orientations=2",
                     "--set", "model.mask_count=1"])
        assert code == 1
        report = (tmp_path / "gradcheck_report.csv").read_text().splitlines()
        assert len(report) > 1 and all(row.endswith(",nan,FAIL") for row in report[1:])
        assert "gradcheck failed" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nnot_a_key = 1\n")
        assert main(["params", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["optimizer.batch_size=0", "model.kernel_size=4",
                                          "optimizer.epochs=-1", "model.sigma=0",
                                          "model.lambda=-1", "model.sigma=nan",
                                          "model.in_channels=0", "optimizer.lr_decay_every=0",
                                          "data.lesion_min=3", "data.radius_min=4",
                                          "data.noise_prob=2", "model.task=miml",
                                          "model.n_labels=0", "model.n_labels=3",
                                          "optimizer.plateau_patience=0",
                                          "optimizer.momentum=1", "optimizer.momentum=-0.1",
                                          "optimizer.weight_decay=-1e-4",
                                          "optimizer.lr_decay_factor=0",
                                          "optimizer.lr_decay_factor=1.5",
                                          "data.noise_std=-0.1", "data.radius_min=0",
                                          "optimizer.seed=-1", "data.seed=-1",
                                          "data.n_train=-3", "data.n_test=-2"])
    def test_invalid_value_exit_code(self, override, tmp_path, capsys):
        assert main(["train", "--output", str(tmp_path)] + FAST + ["--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert override.split(".")[1].split("=")[0] in err
        assert not (tmp_path / "initial.ckpt").exists()

    @pytest.mark.parametrize("override", ["data.deform_variants=0", "run.heatmaps=-1",
                                          "data.n_test=0", "data.n_test=1"])
    def test_eval_invalid_value_exit_code(self, override, tmp_path, capsys):
        # the checkpoint does not exist: the value is rejected before it is read
        args = ["eval", "--output", str(tmp_path), "--checkpoint", str(tmp_path / "x.ckpt"),
                "--corrupt", "deform"]
        assert main(args + FAST + ["--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert override.split(".")[1].split("=")[0] in err

    def test_params_breakdown(self, capsys):
        assert main(["params", "--set", "model.widths=8-8", "--set", "model.orientations=4",
                     "--set", "model.mask_count=4"]) == 0
        out = capsys.readouterr().out
        assert "2304" in out and "5184" in out and "36" in out
        assert "matched plain reference" in out

    def test_train_eval_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["train", "--output", out] + FAST) == 0
        assert (tmp_path / "run" / "train_log.csv").exists()
        assert (tmp_path / "run" / "best.ckpt").exists()

        assert main(["eval", "--output", out, "--checkpoint", f"{out}/best.ckpt"] + FAST) == 0
        text = (tmp_path / "run" / "metrics.csv").read_text()
        assert text.startswith("metric,value")
        assert (tmp_path / "run" / "heatmap_bag0.csv").exists()
        assert (tmp_path / "run" / "heatmap_bag0.pgm").exists()

        # corrupted protocols run through the same entry point
        assert main(["eval", "--output", out, "--checkpoint", f"{out}/best.ckpt",
                     "--corrupt", "deform", "--set", "data.deform_variants=2"] + FAST) == 0
        assert main(["eval", "--output", out, "--checkpoint", f"{out}/best.ckpt",
                     "--corrupt", "noise"] + FAST) == 0

    def test_eval_shape_mismatch_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["train", "--output", out] + FAST) == 0
        args = ["eval", "--output", out, "--checkpoint", f"{out}/best.ckpt"] + FAST
        args += ["--set", "model.widths=2-3"]  # different stack than the checkpoint
        assert main(args) == 4
        assert "shape error" in capsys.readouterr().err

    def test_eval_truncated_checkpoint_exit_code(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--output", str(out)] + FAST + ["--set", "optimizer.epochs=0"]) == 0
        ckpt = out / "initial.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-5])
        capsys.readouterr()
        assert main(["eval", "--output", str(out), "--checkpoint", str(ckpt)] + FAST) == 4
        err = capsys.readouterr().err
        assert err.startswith("shape error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("dims", [(2 ** 32 - 1, 2 ** 32 - 1), (3, 1000)])
    def test_eval_oversized_section_exit_code(self, dims, tmp_path, capsys):
        ckpt = tmp_path / "foreign.ckpt"
        ckpt.write_bytes(b"DGT1" + struct.pack("<IH", 1, 1) + b"a"
                         + struct.pack("<3I", 2, *dims) + bytes(8))
        assert main(["eval", "--output", str(tmp_path), "--checkpoint", str(ckpt)] + FAST) == 4
        err = capsys.readouterr().err
        assert err.startswith("shape error: cannot read checkpoint") and err.count("\n") == 1, err
        assert f"wanted {8 * dims[0] * dims[1]} bytes, 8 are left" in err

    def test_each_command_builds_only_the_splits_it_reads(self, tmp_path, monkeypatch):
        from deformgabor import cli

        calls = []

        def recording(spec, n, start_index=0):
            calls.append((n, start_index))
            return build_bags(spec, n, start_index=start_index)

        monkeypatch.setattr(cli, "build_bags", recording)
        out = str(tmp_path / "run")
        assert main(["train", "--output", out] + FAST + ["--set", "optimizer.epochs=0"]) == 0
        assert calls == [(12, 0), (8, 12)]  # n_train from 0, n_val after it
        calls.clear()
        assert main(["eval", "--output", out, "--checkpoint", f"{out}/initial.ckpt"] + FAST) == 0
        assert calls == [(8, 20)]  # n_test after both

    def test_eval_missing_checkpoint_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.ckpt"
        assert main(["eval", "--output", str(tmp_path), "--checkpoint", str(missing)] + FAST) == 4
        err = capsys.readouterr().err
        assert err.startswith("shape error: cannot read checkpoint") and err.count("\n") == 1, err

    @pytest.mark.parametrize("override,split", [("data.positive_fraction=0.0", "train"),
                                                ("data.n_val=1", "val")])
    def test_one_class_split_exit_code(self, override, split, tmp_path, capsys):
        assert main(["train", "--output", str(tmp_path)] + FAST + ["--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: the {split} split") and err.count("\n") == 1, err
        assert not (tmp_path / "initial.ckpt").exists()

    def test_epochs_zero_writes_initial_only(self, tmp_path):
        out = str(tmp_path / "run0")
        assert main(["train", "--output", out] + FAST + ["--set", "optimizer.epochs=0"]) == 0
        assert (tmp_path / "run0" / "initial.ckpt").exists()
        assert not (tmp_path / "run0" / "best.ckpt").exists()

    def test_dump_gabor(self, tmp_path):
        assert main(["dump-gabor", "--output", str(tmp_path),
                     "--set", "model.orientations=3", "--set", "model.kernel_size=5"]) == 0
        for u in range(3):
            f = np.loadtxt(tmp_path / f"gabor_u{u}.csv", delimiter=",")
            assert f.shape == (5, 5)
            assert abs(np.linalg.norm(f) - 1.0) < 1e-6
            tokens = (tmp_path / f"gabor_u{u}.pgm").read_text().split()
            assert tokens[:4] == ["P2", "5", "5", "255"]  # magic, width, height, maxval
            assert len(tokens) == 4 + 5 * 5

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # the bounded bag loss cannot go non-finite from a config alone, so the
        # wiring is checked by making the training loop report the failure
        from deformgabor import cli
        from deformgabor.train import NumericsError

        def explode(*args, **kwargs):
            raise NumericsError("non-finite training loss at epoch 0")

        monkeypatch.setattr(cli, "train_model", explode)
        assert main(["train", "--output", str(tmp_path)] + FAST) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEFORMGABOR_OUT", str(tmp_path / "envroot"))
        assert main(["dump-gabor", "--set", "model.orientations=1"]) == 0
        assert (tmp_path / "envroot" / "gabor_u0.pgm").exists()

    def test_help_for_every_command(self, capsys):
        for cmd in ("gradcheck", "params", "train", "eval", "dump-gabor"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0
            assert "usage" in capsys.readouterr().out

    def test_unknown_command_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["make-dataset"])
        assert exc.value.code == 2
        assert "invalid choice: 'make-dataset'" in capsys.readouterr().err
