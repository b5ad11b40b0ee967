import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["01_gabor_bank", "02_deformable_sampling", "03_layer_gradients"])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, DEFORMGABOR_OUT=str(tmp_path),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{script}.py")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
