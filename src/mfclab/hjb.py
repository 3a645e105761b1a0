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
differencing, which is what makes the quadratic LQ benchmark exact in space;
for sigma = 0 it is the classical monotone Lax-Friedrichs scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import _as_atoms
from .models import ModelSpec
from .simulate import MarkovFeedback

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


def _shift(padded: np.ndarray, offsets: dict) -> np.ndarray:
    """Interior view of the padded array shifted by the given per-axis offsets."""
    sl = []
    for ax in range(padded.ndim):
        off = offsets.get(ax, 0)
        sl.append(slice(1 + off, padded.shape[ax] - 1 + off))
    return padded[tuple(sl)]


def _derivatives(u: np.ndarray, h: np.ndarray):
    """Central gradients, axis second differences, and cross stencils.

    Returns (grads (*shape, nd), second_diffs list, crosses dict {(a,b): array}).
    One ghost layer per side, by linear extrapolation (odd reflection), makes
    boundary gradients one-sided and boundary curvature zero.
    """
    nd = u.ndim
    p = np.pad(u, 1, mode="reflect", reflect_type="odd")
    grads = []
    d2 = []
    for a in range(nd):
        up = _shift(p, {a: 1})
        um = _shift(p, {a: -1})
        grads.append((up - um) / (2.0 * h[a]))
        d2.append(up - 2.0 * u + um)
    crosses = {}
    for a in range(nd):
        for b in range(a + 1, nd):
            pp = _shift(p, {a: 1, b: 1})
            pm = _shift(p, {a: 1, b: -1})
            mp = _shift(p, {a: -1, b: 1})
            mm = _shift(p, {a: -1, b: -1})
            crosses[(a, b)] = (pp - pm - mp + mm) / (4.0 * h[a] * h[b])
    return np.stack(grads, axis=-1), d2, crosses


@dataclass
class GridValueFunction:
    """Stored time slices of the numerical value function u_n."""

    grid: GridSpec
    model: ModelSpec
    n: int
    t0: float
    T: float
    dt: float
    times: np.ndarray     # stored slice times, ascending, times[0] = t0, times[-1] = T
    values: np.ndarray    # (len(times), *grid.shape())
    _interp_cache: dict = field(default_factory=dict, repr=False)

    @property
    def d(self) -> int:
        return self.model.d

    def slice_for_time(self, t: float) -> int:
        return int(np.argmin(np.abs(self.times - t)))

    def _interpolate(self, t: float, pts: np.ndarray, gradient: bool = False) -> np.ndarray:
        """Multilinear interpolation of the nearest stored slice (or of its
        gradient field, shape (P, nd)) at points (P, nd) clamped to the grid."""
        k = self.slice_for_time(t)
        if (gradient, k) not in self._interp_cache:
            from scipy.interpolate import RegularGridInterpolator

            data = grid_gradient(self, k) if gradient else self.values[k]
            self._interp_cache[gradient, k] = RegularGridInterpolator(
                tuple(self.grid.coords()), data, method="linear"
            )
        return self._interp_cache[gradient, k](np.clip(pts, *self.grid.bounds()))

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
    """Per-node coefficient arrays (fixed in time): b, l1, A_n, lambda_min, U_T,
    and Lam = max over nodes of Tr A_n, the diffusion part of the CFL bound."""
    nd = n * model.d
    if len(grid.axes) != nd:
        raise ValueError(f"grid has {len(grid.axes)} axes but n*d = {nd}")
    mesh = np.meshgrid(*grid.coords(), indexing="ij")
    nodes = np.stack(mesh, axis=-1)                      # (*shape, nd)
    atoms = nodes.reshape(nodes.shape[:-1] + (n, model.d))
    m1, m2 = model.features(atoms)
    m1b, m2b = m1[..., None, :], m2[..., None]
    b = model.drift_at(atoms, m1b, m2b)                  # (*shape, n, d)
    sig = model.sigma_at(atoms, m1b, m2b)                # (*shape, n, d, d')
    l1 = model.l1_at(atoms, m1b, m2b)                    # (*shape, n)
    sflat = sig.reshape(sig.shape[:-3] + (nd, model.d_prime))
    A = np.einsum("...am,...bm->...ab", sflat, sflat)    # (*shape, nd, nd)
    lam_min = np.clip(np.linalg.eigvalsh(A)[..., 0], 0.0, None)
    uT = np.asarray(model.terminal_at(m1, m2), dtype=np.float64)
    Lam = float(np.einsum("...aa->...a", A).sum(axis=-1).max())
    return b, l1, A, lam_min, Lam, uT


def _march_terms(model: ModelSpec, n: int, b: np.ndarray, Lam: float, u: np.ndarray,
                 h: np.ndarray):
    """Derivatives of slice u, the costate p = n Du, the transport speeds
    |b - p/kappa| per axis, and the explicit CFL bound on the time step."""
    nd = n * model.d
    grads, d2, crosses = _derivatives(u, h)
    p = (grads * n).reshape(grads.shape[:-1] + (n, model.d))
    speeds = np.abs(-b + p / model.kappa).reshape(grads.shape[:-1] + (nd,))
    Theta = float(speeds.reshape(-1, nd).max(axis=0).sum())
    hmin = float(h.min())
    bound = CFL_SAFETY / (2.0 * Lam / hmin ** 2 + Theta / hmin)
    return d2, crosses, p, speeds, bound


def required_time_steps(model: ModelSpec, n: int, grid: GridSpec, t0: float, T: float) -> int:
    """Step count suggestion from the terminal-slice CFL estimate, times STEP_SAFETY."""
    b, _, _, _, Lam, uT = _node_coefficients(model, n, grid)
    bound = _march_terms(model, n, b, Lam, uT, grid.spacings())[-1]
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
    if nd > MAX_AXES:
        raise ValueError(f"n*d = {nd} exceeds the supported grid dimension {MAX_AXES}")
    b, l1, A, lam_min, Lam, uT = _node_coefficients(model, n, grid)
    h = grid.spacings()
    diagA = np.einsum("...aa->...a", A)
    K = grid.time_steps
    dt = (T - t0) / K

    stride = max(1, math.ceil((K + 1) / max_stored_slices))
    kept = sorted({0, K} | set(range(0, K + 1, stride)))
    row = {k: i for i, k in enumerate(kept)}
    values = np.empty((len(kept),) + uT.shape)
    values[-1] = uT

    u = uT
    inv2k = 1.0 / (2.0 * model.kappa)
    for k in range(K - 1, -1, -1):
        d2, crosses, p, speeds, bound = _march_terms(model, n, b, Lam, u, h)
        if dt > bound:
            raise CFLError(dt, bound, math.ceil((T - t0) / bound))
        Hbar = (-(b * p).sum(-1) - l1 + (p ** 2).sum(-1) * inv2k).mean(-1)
        theta_eff = np.maximum(0.0, speeds - lam_min[..., None] / h)
        rhs = -Hbar
        for a in range(nd):
            rhs = rhs + (0.5 * diagA[..., a] / h[a] ** 2 + 0.5 * theta_eff[..., a] / h[a]) * d2[a]
        for (a, bb), cr in crosses.items():
            rhs = rhs + A[..., a, bb] * cr
        u = u + dt * rhs
        if not np.all(np.isfinite(u)):
            raise RuntimeError(f"non-finite values while marching at slice {k}")
        if k in row:
            values[row[k]] = u

    times = t0 + dt * np.array(kept, dtype=np.float64)
    return GridValueFunction(grid=grid, model=model, n=n, t0=t0, T=T, dt=dt,
                             times=times, values=values)


def grid_gradient(u: GridValueFunction, k: int) -> np.ndarray:
    """Per-node spatial gradient D u of stored slice k, shape (*grid, nd).

    Central differences in the interior, one-sided at the boundary (the ghost
    extrapolation collapses the central stencil to one-sided there).
    """
    grads, _, _ = _derivatives(u.values[k], u.grid.spacings())
    return grads


def synthesize_feedback(u: GridValueFunction) -> MarkovFeedback:
    """Optimal feedback a_i = (Dl2)^{-1}(n D_{x_i} u), grid-interpolated.

    Space: multilinear on the gradient field; time: nearest stored slice;
    queries outside the grid clamp to the boundary.
    """
    nd = u.n * u.d

    def fn(t, states):
        P = states.shape[0]
        g = u._interpolate(t, states.reshape(P, nd), gradient=True)
        return (g * (u.n / u.model.kappa)).reshape(P, u.n, u.d)

    return MarkovFeedback(fn, label="hjb-feedback")


def riccati_lq_value(sigma: float, kappa: float, T: float, t: float, x,
                     rk_steps: int = 4096) -> float:
    """Independent LQ oracle: classical 4-stage Runge-Kutta on the Riccati system.

    dP/ds = P^2/kappa with P(T) = 1 and dr/ds = -sigma^2 P / 2 with r(T) = 0,
    integrated backward; returns (1/n) sum_i [P(t) |x_i|^2 / 2 + r(t)]. The
    per-particle r and the 1/n average make the value duplication-invariant.
    """
    if not 0 <= t <= T:
        raise ValueError("need 0 <= t <= T")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    atoms = _as_atoms(x)
    tau_end = T - t
    P, r = 1.0, 0.0
    if tau_end > 0:
        hstep = tau_end / rk_steps
        # in tau = T - s the signs flip: dP/dtau = -P^2/kappa, dr/dtau = +sigma^2 P/2
        def f(y):
            return np.array([-y[0] ** 2 / kappa, 0.5 * sigma ** 2 * y[0]])
        y = np.array([1.0, 0.0])
        for _ in range(rk_steps):
            k1 = f(y)
            k2 = f(y + 0.5 * hstep * k1)
            k3 = f(y + 0.5 * hstep * k2)
            k4 = f(y + hstep * k3)
            y = y + (hstep / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        P, r = float(y[0]), float(y[1])
    sq = (atoms ** 2).sum(axis=1)
    return float(np.mean(0.5 * P * sq + r))
