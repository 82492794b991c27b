"""Shared fixtures."""

import numpy as np
import pytest

from statmanifold import ManifoldSpec, flat_constant_cubic, get_builtin
from statmanifold.pipeline import FD_STEP, _shrink_box


@pytest.fixture
def spiked_centroaffine():
    """centroaffine with C_111 = exp(1/((x1-c)^2 + 0.001)), which overflows only at
    x1 = c: a sample x1 at seed 1 at least 0.1 from every probe x1, so the spec
    validates.  Returns (spec, c)."""
    spec = get_builtin("centroaffine").spec
    x1 = spec.sample_points(seed=1)[:, 0]
    gap = np.min(np.abs(x1[:, None] - spec._probe_points()[None, :, 0]), axis=1)
    c = float(x1[np.argmax(gap)])
    assert gap.max() >= 0.1
    spiked = ManifoldSpec.from_dict(spec.to_dict())
    spiked.cubic["111"] = f"exp(1/((x1-{c!r})*(x1-{c!r}) + 0.001))"
    spiked.validate()
    return spiked, c


@pytest.fixture
def pole_centroaffine():
    """centroaffine with C_111 = 1/(x1 - c), c a sample x1 at seed 1 of the box the
    crosscheck samples (shrunk by 2 FD_STEP), at least 0.1 from every probe x1.
    ``shrunk`` is the spec on that box: run_diagnostics samples it at the points
    the crosscheck of ``spec`` samples.  Both validate.  Returns (spec, shrunk)."""
    spec = ManifoldSpec.from_dict(get_builtin("centroaffine").spec.to_dict())
    shrunk = _shrink_box(spec, FD_STEP)
    x1 = shrunk.sample_points(seed=1)[:, 0]
    probe_x1 = np.concatenate([spec._probe_points()[:, 0], shrunk._probe_points()[:, 0]])
    gap = np.min(np.abs(x1[:, None] - probe_x1[None, :]), axis=1)
    c = float(x1[np.argmax(gap)])
    assert gap.max() >= 0.1
    for pole in (spec, shrunk):
        pole.cubic["111"] = f"1/(x1 - {c!r})"
        pole.validate()
    return spec, shrunk


@pytest.fixture
def dented_metric():
    """flat_constant_cubic(2) with g_11 < 0 on a disc of radius sqrt(ln(3)/200)
    around (0.31, 0.52), which the validation probe misses: the spec validates.
    Returns (spec, a function that tells whether a point lies in the disc)."""
    spec = flat_constant_cubic(2).spec
    spec.metric["11"] = "1 - 3*exp(-200*((x1-0.31)*(x1-0.31) + (x2-0.52)*(x2-0.52)))"
    spec.validate()

    def inside(point):
        x1, x2 = point
        return (x1 - 0.31) ** 2 + (x2 - 0.52) ** 2 < np.log(3.0) / 200.0

    return spec, inside
