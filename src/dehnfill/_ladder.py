"""Kernel selection for the ladder scans: compiled extension when built,
pure-Python fallback otherwise."""

try:
    from ._ladder_c import BACKEND, scan_ladder, scan_track  # noqa: F401
except ImportError:  # pragma: no cover - depends on the build environment
    from ._ladder_py import BACKEND, scan_ladder, scan_track  # noqa: F401
