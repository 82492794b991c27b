"""Orthonormal frames."""

import numpy as np
import pytest

from statmanifold import MetricNotPositiveDefinite, orthonormal_frame


def centroaffine_metric(point, a1, a2):
    x1, x2 = point
    s = a1 + a2 + 1.0
    return np.array(
        [
            [a1 * (a1 + 1) / (s * x1 * x1), a1 * a2 / (s * x1 * x2)],
            [a1 * a2 / (s * x1 * x2), a2 * (a2 + 1) / (s * x2 * x2)],
        ]
    )


def test_orthonormal_frame_examples():
    np.testing.assert_allclose(orthonormal_frame(np.eye(3)), np.eye(3))
    frame = orthonormal_frame(np.diag([4.0, 9.0]))
    np.testing.assert_allclose(frame[:, 0], [0.5, 0.0])
    np.testing.assert_allclose(frame[:, 1], [0.0, 1.0 / 3.0])


def test_orthonormal_frame_defining_property():
    g = centroaffine_metric((1.0, 1.0), 1.0, 1.0)
    e = orthonormal_frame(g)
    np.testing.assert_allclose(e.T @ g @ e, np.eye(2), atol=1e-12)


def test_orthonormal_frame_batched():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((10, 3, 3))
    g = np.einsum("pij,pkj->pik", a, a) + 3.0 * np.eye(3)
    e = orthonormal_frame(g)
    prod = np.einsum("pai,pab,pbj->pij", e, g, e)
    np.testing.assert_allclose(prod, np.broadcast_to(np.eye(3), (10, 3, 3)), atol=1e-12)


def test_orthonormal_frame_rejects_indefinite():
    with pytest.raises(MetricNotPositiveDefinite):
        orthonormal_frame(np.diag([1.0, -1.0]))


def test_frame_trace_equals_metric_trace():
    # sum_i t(e_i, e_i) = g^{ij} t_ij for 100 seeded symmetric tensors
    rng = np.random.default_rng(123)
    for _ in range(100):
        a = rng.standard_normal((3, 3))
        g = a @ a.T + 3.0 * np.eye(3)
        e = orthonormal_frame(g)
        t = rng.standard_normal((3, 3))
        t = t + t.T
        frame_trace = np.einsum("ai,bi,ab->", e, e, t)
        metric_trace = np.einsum("ij,ij->", np.linalg.inv(g), t)
        assert frame_trace == pytest.approx(metric_trace, rel=1e-12, abs=1e-12)
