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
ghost layer into one reused buffer, whose shifted views every stencil reads.
What is fixed in time becomes contiguous node arrays before the march, one per
axis or atom (one value where it is the same at every node), and each step
writes into per-axis buffers allocated once per solve. A step does the float
operations of the textbook form in the same order, so no layout of the march
moves a stored bit: -b.p is (-b) p, the atom average ((H_0 + H_1) + H_2)/n as
numpy's mean(-1) sums it, and 2u is formed once per step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .measures import _as_atoms
from .models import ModelSpec, _lifted_batch, feedback_map
from .simulate import Policy

CFL_SAFETY = 0.9
# Factor on the terminal-slice step count: absorbs moderate gradient growth
# during the march, where the bound is re-checked every slice.
STEP_SAFETY = 1.3
MAX_AXES = 3


class CFLError(RuntimeError):
    def __init__(self, dt: float, bound: float, required_steps: int):
        self.dt, self.bound, self.required_steps = dt, bound, required_steps
        super().__init__(
            f"time step {dt:.3e} violates the CFL bound {bound:.3e}; "
            f"use at least {required_steps} time steps"
        )

    def __reduce__(self):  # unpickled (from a worker process) by the constructor
        return type(self), (self.dt, self.bound, self.required_steps)


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
        return dict(asdict(self), axes=[list(a) for a in self.axes])


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


def _per_axis(x: np.ndarray) -> np.ndarray:
    """Per-axis scalars (nd,) as a column that broadcasts over (nd, *shape) stacks."""
    return x.reshape(-1, *(1,) * len(x))


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

    def axis_gradients(self, u: np.ndarray, h: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Ghost slice u into the buffer; write its central gradient into out, one
        contiguous node array per axis (nd, *shape), and return out."""
        _ghosted(u, self.buf)
        for p, m, g in zip(self.plus, self.minus, out):
            np.subtract(p, m, out=g)
        return np.divide(out, _per_axis(2.0 * h), out=out)

    def gradient(self, u: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Ghost slice u into the buffer; return its central gradient (*shape, nd)."""
        return np.stack(list(self.axis_gradients(u, h, np.empty((len(h),) + u.shape))), -1)


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
    read_times: tuple | None = None   # the only times it is read at; None: any time
    _gradient_cache: dict = field(default_factory=dict, repr=False)  # slice -> grid_gradient

    @property
    def d(self) -> int:
        return self.model.d

    def slice_for_time(self, t: float) -> int:
        if self.read_times is not None and t not in self.read_times:
            raise ValueError(f"time {t} is not a read time of this solve {self.read_times}")
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


def _compact(x: np.ndarray, lead: int = 1) -> np.ndarray:
    """Node data x (*lead, *shape) as a contiguous array or, when each leading entry
    holds one bit pattern at every node, as those values alone, (*lead, 1, ...):
    a coefficient that is the same everywhere then holds no node array, and
    broadcasting it gives the same bits."""
    bits = x.reshape(x.shape[:lead] + (-1,)).view(np.int64)
    same = (bits == bits[..., :1]).all()
    return np.ascontiguousarray(x[(Ellipsis,) + (slice(1),) * (x.ndim - lead)] if same else x)


def _node_coefficients(model: ModelSpec, n: int, grid: GridSpec):
    """Node arrays fixed in time: the negated drift -b per axis a = i d + c (atom
    i, component c), (nd, *shape); l1 per atom, (n, *shape) or _compact; A_n
    (*shape, nd, nd); U_T; and the CFL constants (2 max_nodes Tr A_n / h_min^2,
    h_min): the diffusion part of the CFL rate and the smallest spacing."""
    nd = n * model.d
    shape = grid.shape()
    b, sig, l1, uT = _lifted_batch(model, grid.node_atoms(n, model.d))
    sflat = sig.reshape(sig.shape[:-3] + (nd, model.d_prime))
    A = np.einsum("...am,...bm->...ab", sflat, sflat)    # (*shape, nd, nd)
    Lam = float(np.einsum("...aa->...a", A).sum(axis=-1).max())
    hmin = float(grid.spacings().min())
    negb = np.moveaxis(-b.reshape(shape + (nd,)), -1, 0).copy()
    return negb, _compact(np.moveaxis(l1, -1, 0)), A, (2.0 * Lam / hmin ** 2, hmin), uT


def _march_terms(ghost: _Ghost, u: np.ndarray, h: np.ndarray, n: int, kappa: float,
                 negb: np.ndarray, cfl: tuple, p: np.ndarray, speeds: np.ndarray) -> float:
    """Write the costate p = n Du of slice u and the speeds |-b + a| at the control
    a = feedback_map(p) = p / kappa into the per-axis stacks p and speeds
    (nd, *shape); return the explicit CFL bound on dt."""
    np.multiply(ghost.axis_gradients(u, h, p), n, out=p)
    np.abs(np.add(negb, np.divide(p, kappa, out=speeds), out=speeds), out=speeds)
    Theta = float(speeds.reshape(len(speeds), -1).max(axis=1).sum())
    return CFL_SAFETY / (cfl[0] + Theta / cfl[1])


def required_time_steps(model: ModelSpec, n: int, grid: GridSpec, t0: float, T: float) -> int:
    """Step count suggestion from the terminal-slice CFL estimate, times STEP_SAFETY."""
    negb, _, _, cfl, uT = _node_coefficients(model, n, grid)
    bound = _march_terms(_Ghost(uT.shape), uT, grid.spacings(), n, model.kappa, negb, cfl,
                         np.empty_like(negb), np.empty_like(negb))
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
              max_stored_slices: int = 257, read_times=None) -> GridValueFunction:
    """Backward explicit march; raises CFLError naming the required step count.

    Every stride-th slice is a stored one, for at most max_stored_slices. With
    read_times, the solve keeps of them only the t0 and T slices and the one
    nearest each read time (the first on ties, as the lookup of a full store
    picks it), and is readable at those times alone."""
    if T <= t0:
        raise ValueError("need T > t0")
    d, kappa = model.d, model.kappa
    nd = n * d
    negb, l1, A, cfl, uT = _node_coefficients(model, n, grid)
    h = grid.spacings()
    hcol = _per_axis(h)
    ghost = _Ghost(uT.shape)    # the one ghost buffer of the solve
    # fixed in time: diffusion weights, the LLF credit lambda_min/h, cross terms
    weights = _compact(np.stack([0.5 * A[..., a, a] / h[a] ** 2 for a in range(nd)]))
    credit = _compact(np.clip(np.linalg.eigvalsh(A)[..., 0], 0.0, None) / hcol)
    crosses = [(_compact(A[..., a, bb], 0), 4.0 * h[a] * h[bb], views)
               for a, bb, views in ghost.corners]
    del A
    K = grid.time_steps
    dt = (T - t0) / K

    # t0 + k dt bit for bit for k < K, and T itself at k = K
    times = np.linspace(t0, T, K + 1)
    stride = max(1, math.ceil((K + 1) / max_stored_slices))
    kept = sorted({0, K} | set(range(0, K + 1, stride)))
    if read_times is not None:
        read_times = tuple(float(t) for t in read_times)
        kept = sorted({0, K} | {kept[np.argmin(np.abs(times[kept] - t))] for t in read_times})
    row = {k: i for i, k in enumerate(kept)}
    values = np.empty((len(kept),) + uT.shape)
    values[-1] = uT

    u = uT.copy()
    p, speeds, bp = (np.empty_like(negb) for _ in range(3))
    rhs, u2, term = (np.empty_like(u) for _ in range(3))
    for k in range(K - 1, -1, -1):
        bound = _march_terms(ghost, u, h, n, kappa, negb, cfl, p, speeds)
        if dt > bound:
            raise CFLError(dt, bound, math.ceil((T - t0) / bound))
        # per atom H_i = -b_i.p_i - l1_i + |p_i|^2 / (2 kappa): -(b.p) and (-b).p differ
        # at most in the sign of a zero, which adding |p|^2/(2 kappa) >= +0 erases
        np.multiply(negb, p, out=bp)
        np.multiply(p, p, out=p)
        H, conj = (x if d == 1 else x.reshape((n, d) + u.shape).sum(axis=1) for x in (bp, p))
        np.add(np.subtract(H, l1, out=H), np.divide(conj, 2.0 * kappa, out=conj), out=H)
        np.negative(np.divide(np.sum(H, axis=0, out=rhs), n, out=rhs), out=rhs)  # -mean_i H_i
        # second differences, with the LLF viscosity in excess of the credit
        theta = np.maximum(0.0, np.subtract(speeds, credit, out=speeds), out=speeds)
        coef = np.add(weights, np.divide(np.multiply(0.5, theta, out=theta), hcol, out=theta),
                      out=theta)
        np.multiply(u, 2.0, out=u2)
        for plus, minus, c in zip(ghost.plus, ghost.minus, coef):
            np.add(np.subtract(plus, u2, out=term), minus, out=term)
            rhs += np.multiply(c, term, out=term)
        for Aab, denom, (qpp, qpm, qmp, qmm) in crosses:
            np.subtract(qpp, qpm, out=term)
            np.add(np.subtract(term, qmp, out=term), qmm, out=term)
            rhs += np.multiply(Aab, np.divide(term, denom, out=term), out=term)
        u += np.multiply(rhs, dt, out=rhs)
        if not np.all(np.isfinite(u)):
            raise RuntimeError(f"non-finite values while marching at slice {k}")
        if k in row:
            values[row[k]] = u

    return GridValueFunction(grid=grid, model=model, n=n, dt=dt, times=times[kept],
                             values=values, read_times=read_times)


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
