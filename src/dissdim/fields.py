"""Uniform space-time grids carrying velocity (and optional pressure/scalar) samples."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["GriddedField", "SpatialVectorField"]


def _trapezoid_weights(step: float, n: int) -> np.ndarray:
    """Trapezoidal node weights, i.e. midpoint weights of the node-centred
    cells clipped to the domain."""
    w = np.full(n, step)
    w[0] = w[-1] = step / 2
    return w


@dataclass
class _NodeGrid:
    """The spatial node grid x_i = a + i*h on [a, b]^d, h = (b-a)/(nx-1)."""

    d: int
    a: float
    b: float
    nx: int

    def __post_init__(self):
        if self.d < 1 or self.nx < 2:
            raise ValueError("need d >= 1 and nx >= 2")
        if not self.b > self.a:
            raise ValueError("need b > a")
        with np.errstate(over="ignore", invalid="ignore"):
            ends = [self.h, self.a + self.h * (self.nx - 1)]
        if not np.all(np.isfinite(ends)):
            raise ValueError("grid spacing or end node overflows: need finite h "
                             "and axis end node")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.nx - 1)

    @property
    def x_axis(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.nx)

    def spatial_mesh(self) -> np.ndarray:
        """Node coordinates as an array of shape (nx, ..., nx, d)."""
        axes = np.meshgrid(*([self.x_axis] * self.d), indexing="ij")
        return np.stack(axes, axis=-1)

    def spatial_weights(self) -> np.ndarray:
        """Product trapezoid weights over the spatial axes, shape (nx,)*d."""
        wx = _trapezoid_weights(self.h, self.nx)
        out = wx
        for _ in range(self.d - 1):
            out = np.multiply.outer(out, wx)
        return out


@dataclass
class GriddedField(_NodeGrid):
    """Samples on the node grid x_i = a + i*h (per axis), t_k = k*dt.

    ``u`` has shape (nt, nx, ..., nx, d) with d spatial axes of length nx;
    ``p`` and ``theta`` drop the trailing component axis.  Spacings follow the
    node convention h = (b-a)/(nx-1), dt = T/(nt-1).
    """

    T: float
    nt: int
    u: np.ndarray
    p: np.ndarray | None = None
    theta: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        super().__post_init__()
        if self.nt < 2 or not self.T > 0:
            raise ValueError("need nt >= 2 and T > 0")
        with np.errstate(over="ignore"):
            ends = [self.dt, self.dt * (self.nt - 1)]
        if not np.all(np.isfinite(ends)):
            raise ValueError("time step or end node overflows: need finite dt "
                             "and time end node")
        expected = (self.nt,) + (self.nx,) * self.d + (self.d,)
        self.u = np.asarray(self.u, dtype=float)
        if self.u.shape != expected:
            raise ValueError(f"u has shape {self.u.shape}, expected {expected}")
        for name in ("p", "theta"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                if arr.shape != expected[:-1]:
                    raise ValueError(f"{name} has shape {arr.shape}, expected {expected[:-1]}")
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"{name} contains non-finite samples")
                setattr(self, name, arr)
        if not np.all(np.isfinite(self.u)):
            raise ValueError("u contains non-finite samples")

    @property
    def dt(self) -> float:
        return self.T / (self.nt - 1)

    @property
    def t_axis(self) -> np.ndarray:
        return self.dt * np.arange(self.nt)

    def axis_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Trapezoidal node weights (wx per axis, wt)."""
        return _trapezoid_weights(self.h, self.nx), _trapezoid_weights(self.dt, self.nt)

    def speed(self) -> np.ndarray:
        """Euclidean velocity magnitude per node, shape (nt, nx, ..., nx)."""
        return np.sqrt(np.sum(self.u ** 2, axis=-1))

    def grad_squared(self) -> np.ndarray:
        """|grad u|^2 by centered differences (one-sided at the boundary)."""
        out = np.zeros(self.u.shape[:-1])
        for comp in range(self.d):
            for axis in range(self.d):
                g = np.gradient(self.u[..., comp], self.h, axis=1 + axis)
                out += g ** 2
        return out


@dataclass
class SpatialVectorField(_NodeGrid):
    """A d-dimensional vector field sampled on the node grid of [a, b]^d."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        super().__post_init__()
        expected = (self.nx,) * self.d + (self.d,)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != expected:
            raise ValueError(f"values have shape {self.values.shape}, expected {expected}")

    def divergence(self) -> np.ndarray:
        """Finite-difference divergence on the grid."""
        out = np.zeros(self.values.shape[:-1])
        for axis in range(self.d):
            out += np.gradient(self.values[..., axis], self.h, axis=axis)
        return out
