"""The compiled ladder kernel and the pure-Python fallback must agree
step-for-step: same paths, same counts, same witnesses.

The compiled kernel is the one built from the committed C by the
``compiled_kernel`` fixture; the tests skip only when no C compiler is found.
"""

import hashlib
import os
import pathlib
import re
import subprocess
import sys

import pytest
from kernel_build import built_kernels, run_setup_without_cython

from dehnfill import _ladder_py
from dehnfill.ladders import _encode, kernel_backend, random_ladder

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dehnfill"


def test_backend_reports(compiled_kernel):
    assert _ladder_py.BACKEND == "python"
    assert compiled_kernel.BACKEND == "cython"
    assert kernel_backend() in ("cython", "python")


@pytest.mark.parametrize("alternating", [True, False])
def test_backends_agree_exactly(compiled_kernel, alternating):
    for seed in range(200):
        track = random_ladder(seed, alternating=alternating)
        enc = _encode(track)
        assert _ladder_py.scan_ladder(*enc, 10**4, True) == compiled_kernel.scan_ladder(
            *enc, 10**4, True
        ), seed


def test_backends_agree_on_summaries(compiled_kernel):
    for seed in range(200, 300):
        track = random_ladder(seed, max_levels=6, max_rungs_per_gap=5)
        enc = _encode(track)
        py = _ladder_py.scan_ladder(*enc, 10**4, False)
        cy = compiled_kernel.scan_ladder(*enc, 10**4, False)
        assert py[1:] == cy[1:]


def test_step_bound_truncation_agrees(compiled_kernel):
    # A tiny bound forces truncation in both kernels identically.
    track = random_ladder(17, max_levels=8, max_rungs_per_gap=6)
    enc = _encode(track)
    py = _ladder_py.scan_ladder(*enc, 4, True)
    cy = compiled_kernel.scan_ladder(*enc, 4, True)
    assert py == cy
    assert py[3] > 0  # some truncated paths exist at bound 4


# The committed C is a build input.  After any change to the .pyx, regenerate
# it (``cython -3 src/dehnfill/_ladder_cy.pyx``) and record the new hash:
# ``cd src/dehnfill && sha256sum _ladder_cy.pyx > _ladder_cy.pyx.sha256``.
STALE = "_ladder_cy.pyx changed without _ladder_cy.c and _ladder_cy.pyx.sha256"


def test_pyx_hash_is_recorded():
    pyx = (SRC / "_ladder_cy.pyx").read_bytes()
    recorded = (SRC / "_ladder_cy.pyx.sha256").read_text(encoding="utf-8").split()[0]
    assert hashlib.sha256(pyx).hexdigest() == recorded, STALE


def test_committed_c_quotes_the_pyx():
    # Cython quotes the source line behind each block of C, marked with
    # "# <<<<<<<<<<<<<<" under a '"dehnfill/_ladder_cy.pyx":N' header.
    pyx = (SRC / "_ladder_cy.pyx").read_text(encoding="utf-8").splitlines()
    c_lines = (SRC / "_ladder_cy.c").read_text(encoding="utf-8").splitlines()
    header = re.compile(r'^\s*/\* "dehnfill/_ladder_cy\.pyx":(\d+)$')
    marker = "# <<<<<<<<<<<<<<"
    quoted = 0
    line_no = None
    for line in c_lines:
        match = header.match(line)
        if match:
            line_no = int(match.group(1))
        elif line_no is not None and line.endswith(marker):
            text = line.split(" * ", 1)[-1][: -len(marker)].rstrip()
            assert text == pyx[line_no - 1].rstrip(), (STALE, line_no)
            quoted += 1
            line_no = None
    assert quoted > 200


def test_build_without_compiler_still_succeeds(tmp_path):
    env = dict(os.environ, CC=str(tmp_path / "no-such-cc"))
    proc = run_setup_without_cython(str(tmp_path), env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert 'building extension "dehnfill._ladder_cy" failed' in proc.stderr
    assert built_kernels(str(tmp_path)) == []


def test_missing_extension_falls_back_to_python():
    code = (
        "import sys; sys.modules['dehnfill._ladder_cy'] = None; "
        "from dehnfill import kernel_backend; print(kernel_backend())"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0 and proc.stdout == "python\n", proc.stderr
