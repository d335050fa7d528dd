"""Building the compiled ladder kernel from the committed C, for the tests.

``setup.py build_ext`` writes its output to a directory of the caller's
choosing, never into ``src/``.
"""

import glob
import os
import shutil
import subprocess
import sys
import sysconfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_setup(out_dir, env=None):
    """``setup.py build_ext`` into ``out_dir``; returns the finished process."""
    return subprocess.run(
        [
            sys.executable,
            "setup.py",
            "build_ext",
            "--build-lib",
            os.path.join(out_dir, "lib"),
            "--build-temp",
            os.path.join(out_dir, "temp"),
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def built_kernels(out_dir):
    return glob.glob(os.path.join(out_dir, "lib", "dehnfill", "_ladder_c*"))


def c_compiler():
    """The compiler setuptools would call, if it is on the path."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(cc.split()[0])
