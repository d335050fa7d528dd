"""Shared fixtures."""

import importlib.util

import pytest
from kernel_build import built_kernels, c_compiler, run_setup

from dehnfill import _ladder, _ladder_py


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The ``dehnfill._ladder_c`` module built from the committed C."""
    if c_compiler() is None:
        pytest.skip("no C compiler found")
    out_dir = str(tmp_path_factory.mktemp("kernel"))
    proc = run_setup(out_dir)
    found = built_kernels(out_dir)
    assert proc.returncode == 0 and len(found) == 1, proc.stdout + proc.stderr
    spec = importlib.util.spec_from_file_location("dehnfill._ladder_c", found[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["python", "compiled"])
def kernel(request, monkeypatch):
    """Route every seeded ladder scan through one backend."""
    if request.param == "python":
        module = _ladder_py
    else:
        module = request.getfixturevalue("compiled_kernel")
    monkeypatch.setattr(_ladder, "scan_ladder", module.scan_ladder)
