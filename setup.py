import os

from setuptools import Extension, setup

# The compiled kernel is optional: when it cannot be built (no C compiler or
# no Python headers), the install still succeeds and dehnfill._ladder picks
# the pure-Python fallback.
setup(
    ext_modules=[
        Extension("dehnfill._ladder_c", [os.path.join("src", "dehnfill", "_ladder_c.c")], optional=True)
    ]
)
