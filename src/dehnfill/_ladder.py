"""Kernel selection for the seeded ladder scan: compiled extension when built,
pure-Python fallback otherwise."""

try:
    from ._ladder_c import BACKEND, scan_ladder  # noqa: F401
except ImportError:  # pragma: no cover - depends on the build environment
    from ._ladder_py import BACKEND, scan_ladder  # noqa: F401
