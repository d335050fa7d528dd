"""Exact slope calculus, degeneracy loci, guaranteed filling intervals and
train-track verification for boundary tori of fibered 3-manifolds."""

from .ladders import kernel_backend

__version__ = "0.1.0"
