"""Preset bytes must not depend on numpy's SIMD dispatch or OpenBLAS kernels,
nor change from one commit to the next.

Every preset runs through the CLI twice, in fresh interpreters: once with
default dispatch, and once without AVX2, FMA and AVX-512 and with OpenBLAS
pinned to its oldest x86-64 core type. The sha256 of each output must agree,
and the default run must match ``PRESET_DIGESTS``. A change that moves preset
bytes on purpose updates that dict and lists the changed fields in CHANGES.md.
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

PRESET_DIGESTS = {
    "eq10_general_n.csv": "5c222904159d7c61aeec58ea9c463b59650ce9bf2bc917919b88cce03a031604",
    "eq10_general_n.json": "92a132ffcbc8957ec31eee5120a3dfcd6ff3febd598658d88c3e1ff26f9f89ea",
    "eq7_mixed_sweep.csv": "3cf48510b7ebee1f097b35d7c8555bf50a06c6c5ce318a7c2b13d46f855eb375",
    "eq7_mixed_sweep.json": "b763b8bc628e13bf05f6fd91b48374ca7c3f4dd4500f3840494d4e7345304b6c",
    "fig2a.csv": "7d5b58c73c855431e7f2674594c243046c336001c24192504205f036924c6d44",
    "fig2a.json": "69bac872b205f467bb2b9b31a619c0a61d6ed8dba5e7a775c97213fe4f2fe4b0",
    "fig2b.csv": "322e8c70c4e1301e3876054be460e370f9c3d3b3b4433179c4fe3be9c93df8c4",
    "fig2b.json": "b0c60aadedc7ab26fcc1de7ccff8b04fbfbc0ca84edb1d3f946efb1e2e17f6d1",
    "fig2c.csv": "f2375f647053e5483ae3aa5ae84d54e35360047b1394e0c09cf1dfb58f5ead71",
    "fig2c.json": "bb82f48bf0c8158f34723c5dedaeadcd0a036599d435bea2d6067bb574f24ae8",
    "fig2d.csv": "54c183c94b5cae83bc5aa9940013ace0bfeb512fc7d3ba1b5d14ad28a0bd74f9",
    "fig2d.json": "04ab2ccb7aba812e586c6023f5f857062171a66f8440d66e3195284727cbb1b7",
    "fig2e.csv": "13b40753e55d7b593e12a1901dd63d93bcdb510e961a28c523293abf40c0c982",
    "fig2e.json": "82cf5c61a812fe9228b39469376b9000d7e43de567ce687b9cc7512a02b1d741",
    "fig2f.csv": "e46e180a2bff4ffe096af55b6a663f6e24d198333ca4bceab687bb8db3e3ffc2",
    "fig2f.json": "b11a35ef93aebcddff644fe9488eb52a4f18891140012f58e22fe4c36296728a",
    "fig3_populations.csv": "53d1b03c291baef4f773a5a93743390461f3a2470da068cc04d6df58afc782bd",
    "fig3_populations.json": "44398034d540b4b92bdab6efc625794bf810c02b171ae30b33ed00f7b174532e",
    "table1_chsh.csv": "52002b6de9afa6d13ebc15e1b3297320a3f3b668f3b89f668ab59229deb7a807",
    "table1_chsh.json": "b5f09028f4e2ed0fc682b5367af3e1211c31c2fd9d1771d4a924b03aa626cd89",
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


x86_64_only = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="the dispatch levels and OpenBLAS core types named are x86-64's",
)


@pytest.fixture(scope="module")
def default_digests() -> dict[str, str]:
    return _preset_digests({})


@x86_64_only
def test_preset_bytes_do_not_depend_on_simd_or_blas_kernels(default_digests):
    reduced = _preset_digests(REDUCED)
    assert len(default_digests) == 20
    assert sorted(k for k in default_digests if default_digests[k] != reduced[k]) == []


@x86_64_only
def test_preset_bytes_match_the_recorded_digests(default_digests):
    assert default_digests == PRESET_DIGESTS
