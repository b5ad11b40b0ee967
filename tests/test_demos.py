import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# 04 is the one demo that runs `Model.forward` on single images and writes
# heatmaps with `save_heatmap`; 05 takes about 17 s and is left to run by hand.
@pytest.mark.parametrize("script", ["01_gabor_bank", "02_deformable_sampling",
                                    "03_layer_gradients", "04_weakly_supervised_training"])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, DEFORMGABOR_OUT=str(tmp_path),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{script}.py")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
