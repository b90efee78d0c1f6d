"""Preset bytes must not depend on numpy's SIMD dispatch or OpenBLAS kernels.

Every preset runs through the CLI twice, in fresh interpreters: once with
default dispatch, and once without AVX2, FMA and AVX-512 and with OpenBLAS
pinned to its oldest x86-64 core type. The sha256 of each output must agree.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

REDUCED = {
    "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
    "OPENBLAS_CORETYPE": "Prescott",
}

_PRESET_DIGESTS = """
import hashlib, io, json, sys, tempfile
from contextlib import redirect_stdout
from pathlib import Path
from rsp_sim import cli
from rsp_sim.presets import PRESETS
digests = {}
with tempfile.TemporaryDirectory() as tmp:
    for name in sorted(PRESETS):
        for fmt in ("json", "csv"):
            out = Path(tmp) / f"{name}.{fmt}"
            with redirect_stdout(io.StringIO()):
                code = cli.main(["preset", name, "--format", fmt, "--out", str(out)])
            if code:
                sys.exit(f"preset {name} exited {code}")
            digests[out.name] = hashlib.sha256(out.read_bytes()).hexdigest()
print(json.dumps(digests))
"""


def _preset_digests(extra: dict[str, str]) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in REDUCED}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _PRESET_DIGESTS],
        env={**env, **extra}, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="the dispatch levels and OpenBLAS core types named are x86-64's",
)
def test_preset_bytes_do_not_depend_on_simd_or_blas_kernels():
    default = _preset_digests({})
    reduced = _preset_digests(REDUCED)
    assert len(default) == 20
    assert sorted(k for k in default if default[k] != reduced[k]) == []
