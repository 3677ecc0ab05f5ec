"""The benchmark's tracer patches homlab functions by name.  Every name it
patches must still resolve after ``import homlab``, so that a refactor
which inlines or renames a traced function fails here instead of in a
traced benchmark run."""

import sys
from pathlib import Path

import homlab

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from layers import TARGETS  # noqa: E402
from tracer import _resolve  # noqa: E402
from workloads import Capture  # noqa: E402

CAPTURE_TARGETS = ("homlab.harness:complexity_estimate",
                   "homlab.resolution:depth")


def test_traced_targets_resolve():
    for _, target, _ in TARGETS:
        owner, attr = _resolve(target)
        assert callable(getattr(owner, attr)), target


def test_capture_targets_resolve_and_patch_cleanly():
    for target in CAPTURE_TARGETS:
        owner, attr = _resolve(target)
        assert callable(getattr(owner, attr)), target
    before = homlab.complexity_estimate
    capture = Capture()
    capture.install()
    try:
        assert homlab.complexity_estimate is not before
    finally:
        capture.uninstall()
    assert homlab.complexity_estimate is before
