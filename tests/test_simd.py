"""Every output but the sampler's draws is the same bytes at any SIMD level.

numpy picks its ufunc kernels by CPU feature; its AVX-512 ``power``, for
one, differs from C ``pow`` in the last bit.  The library computes its
powers with ``np.float_power`` (C ``pow``), so a process limited to AVX2 by
``NPY_DISABLE_CPU_FEATURES`` prints what this one prints.  On a CPU without
AVX-512 both already run the same kernels, and the test skips.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stablecov
from stablecov import (
    TruncationError,
    covariation_limit_check,
    load_model,
    scale_parameter_direct,
    scale_parameter_series,
)
from stablecov.cli import main

from conftest import grid_refusal_case, hex_fields

DISABLED = "X86_V4 AVX512_ICL AVX512_SPR"


def _has_avx512() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512F"))


def _pairs(rng, alpha, pairs):
    atoms = []
    for t, w in zip(rng.uniform(0.0, math.pi, pairs), rng.uniform(0.2, 1.0, pairs)):
        s = [math.cos(t), math.sin(t)]
        atoms += [{"s": s, "w": float(w)}, {"s": [-s[0], -s[1]], "w": float(w)}]
    return {"alpha": alpha, "atoms": atoms}


def write_specs(directory: Path) -> list[str]:
    """Small specs like the benchmark's cli-mix: 2-D with 4 to 16 atoms, an
    axis-supported one and a 3-D one with s2 * s3 = 0."""
    rng = np.random.default_rng(401)
    specs = [_pairs(rng, float(rng.uniform(0.8, 1.9)), p) for p in (2, 4, 6, 8)]
    specs.append(
        {"alpha": 1.3, "atoms": [{"s": s, "w": w} for s, w in (
            ([1.0, 0.0], 0.4), ([-1.0, 0.0], 0.4), ([0.0, 1.0], 0.7), ([0.0, -1.0], 0.7))]}
    )
    atoms3 = []
    for plane, t, w in ((1, 0.3, 0.5), (2, 1.1, 0.8), (1, 2.0, 0.3), (2, 2.7, 0.6)):
        s = [math.cos(t), 0.0, 0.0]
        s[plane] = math.sin(t)
        atoms3 += [{"s": s, "w": w}, {"s": [-x for x in s], "w": w}]
    specs.append({"alpha": 1.6, "atoms": atoms3})
    paths = []
    for i, spec in enumerate(specs):
        paths.append(str(directory / f"spec{i}.json"))
        Path(paths[-1]).write_text(json.dumps(spec))
    return paths


def outputs(paths: list[str]) -> str:
    """The CLI's check, covar, series and chf bytes on each spec, the direct
    scale parameter and limit check of the bivariate ones, and every field
    of a 128-atom diagonal refusal, whose ladder multiplies only its live
    columns in most blocks."""
    runs = []
    for path in paths:
        runs += [["check", "--input", path]]
        runs += [["check", "--input", path, "--alpha-override", a] for a in ("0.7", "1.0", "2.0")]
        if load_model(path).dim != 2:
            continue
        for beta, m in (("0", "1"), ("0.45", "0"), ("1.3", "1"), ("7", "1")):
            runs.append(["covar", "--input", path, "--beta", beta, "--m", m, "--format", "json"])
        for theta in (("0.3", "-1.1"), ("1.7", "0.2")):
            runs.append(["series", "--input", path, "--theta", *theta, "--format", "json"])
            runs.append(["chf", "--input", path, "--theta", *theta, "--format", "json"])
    text = []
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(argv)
        text.append(f"{code} {out.getvalue()}")
    for path in paths:
        model = load_model(path)
        if model.dim == 2:
            text.append(repr(scale_parameter_direct(model, (0.6, -1.3))))
            text.append(json.dumps(covariation_limit_check(model, 0.4 * model.alpha, 1).to_dict()))
    with pytest.raises(TruncationError) as refusal:
        scale_parameter_series(*grid_refusal_case(), 1e-12)
    text.append(json.dumps(hex_fields(refusal.value.expansion)))
    return "\n".join(text)


def test_outputs_do_not_depend_on_the_simd_level(tmp_path):
    if not _has_avx512():
        pytest.skip("this CPU has no AVX-512: both processes would run the same numpy kernels")
    paths = write_specs(tmp_path)
    here = outputs(paths)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISABLED)
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import test_simd; "
        "sys.stdout.write(test_simd.outputs(sys.argv[3:]))"
    )
    src = str(Path(stablecov.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent), src, *paths],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == here
