"""The bytes of the README outputs, pinned by sha256 for one numpy build on one OpenBLAS kernel.

The outputs are replayed in-process: the README `steady` (stdout), the README `trajectories`, both
README sweeps and CI's `steady --d 3 --tau 0.3 --out` (each CSV and its sidecar). Their hashes are
in tests/golden/output_sha256.json, with the numpy version, the OpenBLAS version and the OpenBLAS
core they were taken on. The detail strings of `validate`'s checks, but for the runtime, are pinned
as text in tests/golden/validate_details.txt, one `name<TAB>detail` line per check, on the same
build. The README's kernel table shows that an older kernel changes some of these bytes, so on any
other build the tests skip and name both builds. `OPENBLAS_CORETYPE` sets the core.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from qfeedback import cli
from qfeedback.validate import run_all

MANIFEST = Path(__file__).parent / "golden" / "output_sha256.json"
VALIDATE_DETAILS = Path(__file__).parent / "golden" / "validate_details.txt"

# output name -> the command line that writes it; "{out}" is the output file
RUNS = {
    "steady.txt": ["steady", "--scenario", "mf-noisy-cooling", "--tau", "0.5", "--lambda", "0.5"],
    "steady-d3.csv": ["steady", "--scenario", "mf-noisy-cooling", "--d", "3", "--tau", "0.3", "--out", "{out}"],
    "traj.csv": ["trajectories", "--scenario", "mf-noisy-cooling", "--tau", "0.5", "--lambda", "0.5",
                 "--steps", "200", "--ntraj", "1000", "--seed", "7", "--out", "{out}"],
    "crossover.csv": ["sweep", "--scenario", "clean-cooling-compare", "--lambda", "0.5",
                      "--sweep", "tau=0:1:101", "--out", "{out}"],
    "povm.csv": ["sweep", "--scenario", "bitflip-povm", "--tau", "0.5",
                 "--sweep", "a=0:1:21", "--sweep", "b=0:1:21", "--out", "{out}"],
}


def _openblas_core() -> str | None:
    """The kernel the bundled OpenBLAS runs on, or None where numpy bundles no scipy-openblas."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "libscipy_openblas*"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def this_build() -> dict:
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):  # numpy before 1.26 prints its config and returns None
        openblas = None
    return {"numpy": np.__version__, "openblas": openblas, "core": _openblas_core()}


def output_hashes(tmp: Path) -> dict[str, str]:
    """sha256 of each output in RUNS, and of each output file's sidecar, written under `tmp`."""
    hashes = {}
    for name, argv in RUNS.items():
        out = tmp / name
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main([arg.replace("{out}", str(out)) for arg in argv]) == 0, name
        if "{out}" in argv:
            hashes[name] = hashlib.sha256(out.read_bytes()).hexdigest()
            hashes[f"{name}.meta.json"] = hashlib.sha256(Path(f"{out}.meta.json").read_bytes()).hexdigest()
        else:
            hashes[name] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return hashes


def _pinned_build(manifest: dict) -> dict:
    return {key: manifest[key] for key in ("numpy", "openblas", "core")}


def on_pinned_build() -> bool:
    """Whether this is the build the output bytes are pinned on."""
    return this_build() == _pinned_build(json.loads(MANIFEST.read_text()))


def _skip_unless_pinned_build(manifest: dict) -> None:
    pinned, build = _pinned_build(manifest), this_build()
    if build != pinned:
        pytest.skip(f"output bytes are pinned on {pinned}; this build is {build}")


def test_readme_outputs_keep_their_bytes(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    _skip_unless_pinned_build(manifest)
    assert output_hashes(tmp_path) == manifest["sha256"]


def test_validate_keeps_its_detail_strings():
    _skip_unless_pinned_build(json.loads(MANIFEST.read_text()))
    details = "".join(f"{r.name}\t{r.detail}\n" for r in run_all() if r.name != "oracle-grid[runtime]")
    assert details == VALIDATE_DETAILS.read_text()
