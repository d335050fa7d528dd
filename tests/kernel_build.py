"""Building the compiled ladder kernel from the committed C, for the tests.

``setup.py build_ext`` runs with Cython hidden, so the build takes the same
path as an install on a machine without Cython, and its output goes to a
directory of the caller's choosing, never into ``src/``.
"""

import glob
import os
import shutil
import subprocess
import sys
import sysconfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# setup.py run as a script, with every import of Cython failing.
SETUP_WITHOUT_CYTHON = (
    "import runpy, sys; sys.modules['Cython'] = None; "
    "sys.argv = ['setup.py'] + sys.argv[1:]; "
    "runpy.run_path('setup.py', run_name='__main__')"
)


def run_setup_without_cython(out_dir, env=None):
    """``setup.py build_ext`` into ``out_dir``; returns the finished process."""
    return subprocess.run(
        [
            sys.executable,
            "-c",
            SETUP_WITHOUT_CYTHON,
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
    return glob.glob(os.path.join(out_dir, "lib", "dehnfill", "_ladder_cy*"))


def c_compiler():
    """The compiler setuptools would call, if it is on the path."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(cc.split()[0])
