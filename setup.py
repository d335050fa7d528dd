import os

from setuptools import Extension, setup

PYX = os.path.join("src", "dehnfill", "_ladder_cy.pyx")
C = os.path.join("src", "dehnfill", "_ladder_cy.c")

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

# Without Cython, the committed C (generated from the .pyx) is compiled.
if cythonize is None:
    ext_modules = [Extension("dehnfill._ladder_cy", [C])]
else:
    ext_modules = cythonize([Extension("dehnfill._ladder_cy", [PYX])], language_level=3)

# The compiled kernel is optional: when it cannot be built (no C compiler or
# no Python headers), the install still succeeds and dehnfill._ladder picks
# the pure-Python fallback.  Set after cythonize, which drops the flag.
for ext in ext_modules:
    ext.optional = True

setup(ext_modules=ext_modules)
