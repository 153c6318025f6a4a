"""Nonlinear and constant vector fields shared by the test modules."""

import numpy as np

from ogawa_lab import VectorField


def constant_field(dim, c):
    vec = np.full(dim, float(c))
    return VectorField(
        dim,
        lambda x: np.broadcast_to(vec, x.shape).copy(),
        lambda x: np.zeros(x.shape[:-1] + (dim, dim)),
        constant_jacobian=True,
    )


def swirl_field():
    # alpha(x, y) = (sin y, cos x): smooth, bounded, non-symmetric Jacobian
    def alpha(x):
        return np.stack([np.sin(x[..., 1]), np.cos(x[..., 0])], axis=-1)

    def jac(x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 1] = np.cos(x[..., 1])
        out[..., 1, 0] = -np.sin(x[..., 0])
        return out

    return VectorField(2, alpha, jac)


def skew_field():
    # alpha(x, y) = (sin x + cos y, sin y - cos x): unlike swirl, the Jacobian
    # has a nonzero diagonal and J_12 != J_21 along the path, so the trace
    # term is nonzero on single-slot families and sees index order on xi-mixed
    def alpha(x):
        u, v = x[..., 0], x[..., 1]
        return np.stack([np.sin(u) + np.cos(v), np.sin(v) - np.cos(u)], axis=-1)

    def jac(x):
        u, v = x[..., 0], x[..., 1]
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = np.cos(u)
        out[..., 0, 1] = -np.sin(v)
        out[..., 1, 0] = np.sin(u)
        out[..., 1, 1] = np.cos(v)
        return out

    return VectorField(2, alpha, jac)


def sine_field_1d():
    # alpha(x) = sin x: a one-dimensional field with a path-dependent trace
    return VectorField(1, np.sin, lambda x: np.cos(x)[..., None])
