"""`train` and `predict` write the same bytes under every OpenBLAS kernel and every numpy SIMD level.

No value that reaches `model.json` or `predictions.ndjson` goes through
BLAS: the row norms, the SGD's dots, the margins and the penalty are
numpy's own reductions, whose bits depend on neither. Each run is a fresh
interpreter, as the kernel and the SIMD level are chosen at start-up. The
same interpreter takes a BLAS dot and lists numpy's dispatched CPU
features, which shows that each setting took effect.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from styleseam import cli
from test_golden_outputs import EXPECTED

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath

SRC = Path(__file__).resolve().parent.parent / "src"
KERNELS = ["Prescott", "Nehalem", "Haswell"]
# Every dispatch target above numpy's baseline, by this numpy's names (numpy 2.4: X86_V3 X86_V4 AVX512_ICL AVX512_SPR).
NO_SIMD_ENV = {"NPY_DISABLE_CPU_FEATURES": " ".join(umath.__cpu_dispatch__)}

RUN = """
import json, sys
import numpy as np
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
from styleseam import cli
train, predict = json.loads(sys.argv[1])
assert cli.main(train) == 0 and cli.main(predict) == 0
x, y = np.sin(np.arange(1000.0)), np.cos(np.arange(1000.0))
dispatched = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
print(json.dumps({"ddot": float(x @ y).hex(), "dispatched": dispatched}))
"""


def _blas_name() -> str:
    return str(getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {}).get("name", ""))


@pytest.mark.skipif("openblas" not in _blas_name().lower(), reason="numpy is not built with OpenBLAS")
def test_train_and_predict_bytes_do_not_depend_on_the_cpu_kernels(synth_corpus, tmp_path):
    """Longest_first at 16 tokens cuts nearly every pair, so most rows are cut sides; the bytes are the golden ones."""
    settings = [{}, *({"OPENBLAS_CORETYPE": kernel} for kernel in KERNELS), NO_SIMD_ENV]
    data = ["--dataset-root", str(synth_corpus), "--difficulty", "easy"]
    truncation = ["--strategy", "longest_first", "--budget", "16"]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    runs = []
    for n, setting in enumerate(settings):
        out = tmp_path / str(n)
        train = ["train", *data, *truncation, "--out", str(out)]
        predict = ["predict", *data, "--split", "validation", "--model", str(out / cli.MODEL_FILENAME),
                   "--out", str(out / "pred")]
        env = {key: value for key, value in os.environ.items() if key not in ("OPENBLAS_CORETYPE", *NO_SIMD_ENV)}
        env.update(setting, PYTHONPATH=path)
        argv = [sys.executable, "-c", RUN, json.dumps([train, predict])]
        runs.append((out, subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)))
    probes, digests = [], []
    for out, process in runs:
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stderr
        probes.append(json.loads(stdout.splitlines()[-1]))
        files = (out / cli.MODEL_FILENAME, out / "pred" / cli.PREDICTIONS_FILENAME)
        digests.append([hashlib.sha256(path.read_bytes()).hexdigest() for path in files])

    kernel_dots = {probe["ddot"] for probe in probes[:-1]}
    assert len(kernel_dots) > 1, "OPENBLAS_CORETYPE changed no BLAS dot's bits, so the kernels were not exercised"
    assert probes[0]["dispatched"] and not probes[-1]["dispatched"], "NPY_DISABLE_CPU_FEATURES took no effect"
    assert all(digest == digests[0] for digest in digests), digests
    assert tuple(digests[0]) == EXPECTED[("longest_first", 16)][1:3]
