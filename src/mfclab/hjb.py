"""Explicit finite-difference solver for the n-particle HJB equation.

Backward time marching of

    du/dt + (1/2) Tr(A_n(x, mu_x) D^2 u) - (1/n) sum_i H(x_i, mu_x, n D_{x_i} u) = 0,
    u(T, x) = U_T(mu_x),

on tensor grids with n*d <= 3 axes. A_n is the full common-noise block matrix
(A_n)_{(i,a),(j,b)} = [sigma(x_i) sigma(x_j)^T]_{ab}; cross second derivatives
use the standard 4-point stencil. The first-order term uses central gradients
plus a *local* Lax-Friedrichs dissipation

    sum_axes (1/2) max(0, |dH/dp| - lambda_min(A_n)/h) * (second difference)/h,

i.e. upwind viscosity only in excess of what the locally available diffusion
already provides (lambda_min because the common-noise A_n is rank-deficient:
its diagonal alone overstates the damping along degenerate directions). With
nondegenerate diffusion and fine grids this reduces to plain central
differencing, exact in space on the quadratic LQ benchmark; for sigma = 0 it is
the classical monotone Lax-Friedrichs scheme. A solve writes each slice and its
ghost layer into one reused buffer, whose shifted views every stencil reads;
the weights that are fixed in time are built before the march.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .measures import _as_atoms
from .models import ModelSpec, _lifted_batch, feedback_map, hamiltonian
from .simulate import Policy

CFL_SAFETY = 0.9
# Factor on the terminal-slice step count: absorbs moderate gradient growth
# during the march, where the bound is re-checked every slice.
STEP_SAFETY = 1.3
MAX_AXES = 3


class CFLError(RuntimeError):
    def __init__(self, dt: float, bound: float, required_steps: int):
        self.required_steps = required_steps
        super().__init__(
            f"time step {dt:.3e} violates the CFL bound {bound:.3e}; "
            f"use at least {required_steps} time steps"
        )


@dataclass(frozen=True)
class GridSpec:
    axes: tuple          # ((lo, hi, points), ...) one entry per grid axis (n*d total)
    time_steps: int
    margin: float = 0.25

    def __post_init__(self):
        if not 1 <= len(self.axes) <= MAX_AXES:
            raise ValueError(f"grids support 1 to {MAX_AXES} axes (n*d <= {MAX_AXES})")
        for lo, hi, pts in self.axes:
            if pts < 8:
                raise ValueError("need at least 8 points per axis")
            if not hi > lo:
                raise ValueError("axis upper bound must exceed lower bound")
        if self.time_steps < 1:
            raise ValueError("time_steps must be >= 1")
        if not 0.0 <= self.margin < 0.5:
            raise ValueError("margin must lie in [0, 0.5)")

    def coords(self):
        return [np.linspace(lo, hi, pts) for lo, hi, pts in self.axes]

    def node_atoms(self, n: int, d: int) -> np.ndarray:
        """The grid nodes read as n-atom tuples in R^d, shape (*shape, n, d)."""
        if len(self.axes) != n * d:
            raise ValueError(f"grid has {len(self.axes)} axes but n*d = {n * d}")
        nodes = np.stack(np.meshgrid(*self.coords(), indexing="ij"), axis=-1)
        return nodes.reshape(nodes.shape[:-1] + (n, d))

    def spacings(self) -> np.ndarray:
        return np.array([(hi - lo) / (pts - 1) for lo, hi, pts in self.axes])

    def shape(self) -> tuple:
        return tuple(pts for _, _, pts in self.axes)

    def bounds(self):
        """(lo, hi) arrays of the grid's extent, one entry per axis."""
        return np.array([a[0] for a in self.axes]), np.array([a[1] for a in self.axes])

    def core_bounds(self):
        return [
            (lo + self.margin * (hi - lo), hi - self.margin * (hi - lo))
            for lo, hi, _ in self.axes
        ]

    def to_json(self) -> dict:
        return {
            "axes": [list(a) for a in self.axes],
            "time_steps": self.time_steps,
            "margin": self.margin,
        }


# The interior of a ghost buffer shifted by o in {-1, 0, 1} along one axis: _AT[o].
_AT = (slice(1, -1), slice(2, None), slice(0, -2))


def _ghosted(u: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Write u and its odd-reflection ghost layer into buf (u.shape + 2 per axis).
    The ghosts 2 u[0] - u[1] and 2 u[-1] - u[-2] make boundary gradients one-sided
    and boundary curvature zero. Axis by axis, each face spanning the earlier axes
    in full and the later ones' interior: numpy's odd-reflection pad order, bit for bit."""
    buf[(_AT[0],) * u.ndim] = u
    for a in range(u.ndim):
        v = np.moveaxis(buf[(slice(None),) * (a + 1) + (_AT[0],) * (u.ndim - 1 - a)], a, 0)
        v[0], v[-1] = 2 * v[1] - v[2], 2 * v[-2] - v[-3]
    return buf


class _Ghost:
    """A ghost buffer (slice shape + 2 on each axis) and, built once, the views
    of its shifted interior that the stencils read: (plus, minus) per axis, and
    (a, b, corners ++ +- -+ --) per axis pair a < b."""

    def __init__(self, shape: tuple):
        self.buf = np.empty(tuple(s + 2 for s in shape))
        unit = np.eye(len(shape), dtype=int)

        def at(offsets):
            return self.buf[tuple(_AT[o] for o in offsets)]

        self.plus, self.minus = [at(e) for e in unit], [at(-e) for e in unit]
        self.corners = [(a, b, [at(sa * unit[a] + sb * unit[b])
                                for sa, sb in itertools.product((1, -1), repeat=2)])
                        for a, b in itertools.combinations(range(len(shape)), 2)]

    def gradient(self, u: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Ghost slice u into the buffer; return its central gradient (*shape, nd)."""
        _ghosted(u, self.buf)
        return np.stack([(p - m) / (2.0 * ha) for p, m, ha in zip(self.plus, self.minus, h)], -1)


def _multilinear(coords, data: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of node data (*shape, ...) at points (P, nd)
    inside the grid of the ascending coords; a NaN coordinate gives NaN.

    Bit-identical to scipy's linear RegularGridInterpolator: the cell is the
    last node <= x (the last cell for x on the upper bound), the corners are
    summed from 0.0 in itertools.product order, and a corner's weights are
    multiplied together before the value, except on a 2-axis value slice,
    where the value comes first as in scipy's compiled 2-d path.
    """
    lower, weights = [], []
    for c, x in zip(coords, pts.T):
        i = np.clip(np.searchsorted(c, x, "right") - 1, 0, c.size - 2)
        y = (x - c[i]) / (c[i + 1] - c[i])
        lower.append(i)
        weights.append((1 - y, y))
    out = 0.0
    for corner in itertools.product((0, 1), repeat=len(coords)):
        v = data[tuple(i + bit for i, bit in zip(lower, corner))]
        w = [pair[bit] for pair, bit in zip(weights, corner)]
        if len(w) == 2 == data.ndim:
            out = out + v * w[0] * w[1]
        else:
            out = out + v * math.prod(w).reshape((-1,) + (1,) * (v.ndim - 1))
    return out


@dataclass
class GridValueFunction:
    """Stored time slices of the numerical value function u_n."""

    grid: GridSpec
    model: ModelSpec
    n: int
    dt: float
    times: np.ndarray     # stored slice times, ascending, times[0] = t0, times[-1] = T
    values: np.ndarray    # (len(times), *grid.shape())
    _gradient_cache: dict = field(default_factory=dict, repr=False)  # slice -> grid_gradient

    @property
    def d(self) -> int:
        return self.model.d

    def slice_for_time(self, t: float) -> int:
        return int(np.argmin(np.abs(self.times - t)))

    def _interpolate(self, t: float, pts: np.ndarray, gradient: bool = False) -> np.ndarray:
        """Multilinear interpolation of the nearest stored slice (or of its
        gradient field, shape (P, nd)) at points (P, nd) clamped to the grid."""
        k = self.slice_for_time(t)
        if gradient and k not in self._gradient_cache:
            self._gradient_cache[k] = grid_gradient(self, k)
        data = self._gradient_cache[k] if gradient else self.values[k]
        return _multilinear(self.grid.coords(), data, np.clip(pts, *self.grid.bounds()))

    def value_at(self, t: float, points) -> np.ndarray:
        """Multilinear value at nearest stored slice; queries clamped to the grid."""
        pts = np.asarray(points, dtype=np.float64)
        out = self._interpolate(t, np.atleast_2d(pts))
        return float(out[0]) if pts.ndim == 1 else out

    def core_mask(self) -> np.ndarray:
        mask = np.ones(self.grid.shape(), dtype=bool)
        for ax, ((clo, chi), c) in enumerate(zip(self.grid.core_bounds(), self.grid.coords())):
            sel = (c >= clo - 1e-12) & (c <= chi + 1e-12)
            shape = [1] * len(self.grid.axes)
            shape[ax] = c.size
            mask &= sel.reshape(shape)
        return mask


def _node_coefficients(model: ModelSpec, n: int, grid: GridSpec):
    """Per-node coefficient arrays (fixed in time): b (*shape, n, d), l1
    (*shape, n), A_n, U_T, and the CFL constants (2 max_nodes Tr A_n / h_min^2,
    h_min): the diffusion part of the CFL rate and the smallest spacing."""
    nd = n * model.d
    b, sig, l1, uT = _lifted_batch(model, grid.node_atoms(n, model.d))
    sflat = sig.reshape(sig.shape[:-3] + (nd, model.d_prime))
    A = np.einsum("...am,...bm->...ab", sflat, sflat)    # (*shape, nd, nd)
    Lam = float(np.einsum("...aa->...a", A).sum(axis=-1).max())
    hmin = float(grid.spacings().min())
    return b, l1, A, (2.0 * Lam / hmin ** 2, hmin), uT


def _march_terms(model: ModelSpec, n: int, b: np.ndarray, cfl: tuple, grads: np.ndarray):
    """The costate p = n Du of a gradient field (*shape, nd), the speeds |-b + a| per
    axis at the control a = feedback_map(p), and the explicit CFL bound on dt."""
    nd = n * model.d
    p = (grads * n).reshape(grads.shape[:-1] + (n, model.d))
    speeds = np.abs(-b + feedback_map(p, model.kappa)).reshape(grads.shape[:-1] + (nd,))
    Theta = float(speeds.reshape(-1, nd).max(axis=0).sum())
    return p, speeds, CFL_SAFETY / (cfl[0] + Theta / cfl[1])


def required_time_steps(model: ModelSpec, n: int, grid: GridSpec, t0: float, T: float) -> int:
    """Step count suggestion from the terminal-slice CFL estimate, times STEP_SAFETY."""
    b, _, _, cfl, uT = _node_coefficients(model, n, grid)
    bound = _march_terms(model, n, b, cfl, _Ghost(uT.shape).gradient(uT, grid.spacings()))[-1]
    return max(1, math.ceil(STEP_SAFETY * (T - t0) / bound))


def sized_grid(model: ModelSpec, n: int, axes, t0: float, T: float,
               time_steps: int | None = None, margin: float = 0.25) -> GridSpec:
    """GridSpec with the given step count, or the CFL-derived one when it is None."""
    axes = tuple(tuple(a) for a in axes)
    if time_steps is None:
        time_steps = required_time_steps(model, n, GridSpec(axes, time_steps=1, margin=margin),
                                         t0, T)
    return GridSpec(axes=axes, time_steps=time_steps, margin=margin)


def solve_hjb(model: ModelSpec, n: int, grid: GridSpec, t0: float = 0.0, T: float = 1.0,
              max_stored_slices: int = 257) -> GridValueFunction:
    """Backward explicit march; raises CFLError naming the required step count."""
    if T <= t0:
        raise ValueError("need T > t0")
    nd = n * model.d
    b, l1, A, cfl, uT = _node_coefficients(model, n, grid)
    h = grid.spacings()
    # fixed in time: diffusion weights, the LLF credit lambda_min/h, cross terms
    weights = [0.5 * A[..., a, a] / h[a] ** 2 for a in range(nd)]
    credit = np.clip(np.linalg.eigvalsh(A)[..., 0], 0.0, None)[..., None] / h
    ghost = _Ghost(uT.shape)    # the one ghost buffer of the solve
    crosses = [(A[..., a, bb], 4.0 * h[a] * h[bb], views) for a, bb, views in ghost.corners]
    K = grid.time_steps
    dt = (T - t0) / K

    stride = max(1, math.ceil((K + 1) / max_stored_slices))
    kept = sorted({0, K} | set(range(0, K + 1, stride)))
    row = {k: i for i, k in enumerate(kept)}
    values = np.empty((len(kept),) + uT.shape)
    values[-1] = uT

    u = uT
    for k in range(K - 1, -1, -1):
        p, speeds, bound = _march_terms(model, n, b, cfl, ghost.gradient(u, h))
        if dt > bound:
            raise CFLError(dt, bound, math.ceil((T - t0) / bound))
        Hbar = hamiltonian(b, l1, p, model.kappa).mean(-1)
        theta_eff = np.maximum(0.0, speeds - credit)
        rhs = -Hbar
        for a in range(nd):
            d2 = ghost.plus[a] - 2.0 * u + ghost.minus[a]
            rhs = rhs + (weights[a] + 0.5 * theta_eff[..., a] / h[a]) * d2
        for Aab, denom, (pp, pm, mp, mm) in crosses:
            rhs = rhs + Aab * ((pp - pm - mp + mm) / denom)
        u = u + dt * rhs
        if not np.all(np.isfinite(u)):
            raise RuntimeError(f"non-finite values while marching at slice {k}")
        if k in row:
            values[row[k]] = u

    # t0 + k dt bit for bit for k < K, and T itself at k = K
    times = np.linspace(t0, T, K + 1)[kept]
    return GridValueFunction(grid=grid, model=model, n=n, dt=dt, times=times, values=values)


def grid_gradient(u: GridValueFunction, k: int) -> np.ndarray:
    """Per-node spatial gradient D u of stored slice k, shape (*grid, nd): central
    differences, which the ghost layer makes one-sided at the boundary."""
    return _Ghost(u.grid.shape()).gradient(u.values[k], u.grid.spacings())


def synthesize_feedback(u: GridValueFunction) -> Policy:
    """Optimal feedback a_i = (Dl2)^{-1}(n D_{x_i} u), grid-interpolated.

    Space: multilinear on the gradient field; time: nearest stored slice;
    queries outside the grid clamp to the boundary.
    """
    nd = u.n * u.d

    def fn(k, t, states):
        P = states.shape[0]
        g = u._interpolate(t, states.reshape(P, nd), gradient=True)
        return feedback_map(g * u.n, u.model.kappa).reshape(P, u.n, u.d)

    return Policy(fn, "hjb-feedback")


def riccati_lq_value(sigma: float, kappa: float, T: float, t: float, x,
                     rk_steps: int = 4096) -> float:
    """Independent LQ oracle: classical 4-stage Runge-Kutta on the Riccati system.

    dP/ds = P^2/kappa with P(T) = 1 and dr/ds = -sigma^2 P / 2 with r(T) = 0,
    integrated backward; returns (1/n) sum_i [P(t) |x_i|^2 / 2 + r(t)]. The
    per-particle r and the 1/n average make the value duplication-invariant.
    """
    if not t <= T:
        raise ValueError("need t <= T")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    atoms = _as_atoms(x)
    P, r = 1.0, 0.0
    if T > t:
        hstep = (T - t) / rk_steps
        # in tau = T - s the signs flip: dP/dtau = -P^2/kappa, dr/dtau = +sigma^2 P/2
        def f(P):
            return -P ** 2 / kappa, 0.5 * sigma ** 2 * P
        for _ in range(rk_steps):
            k1 = f(P)
            k2 = f(P + 0.5 * hstep * k1[0])
            k3 = f(P + 0.5 * hstep * k2[0])
            k4 = f(P + hstep * k3[0])
            P, r = (y + (hstep / 6.0) * (s1 + 2 * s2 + 2 * s3 + s4)
                    for y, s1, s2, s3, s4 in zip((P, r), k1, k2, k3, k4))
    sq = (atoms ** 2).sum(axis=1)
    return float(np.mean(0.5 * P * sq + r))
