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
the classical monotone Lax-Friedrichs scheme.

u_n(t, x) = V(t, mu_x) is symmetric in the particles. So when n >= 2, d = 1 and
all axes are equal, a solve marches one node per permutation orbit: the sorted
cone i_1 <= ... <= i_n, C(N + n - 1, n) packed nodes instead of N^n. Each step
gathers the packed slice into one reused ghost buffer through a full -> packed
index map, writes the ghost layer, and gathers every stencil operand at the
packed nodes. This is the textbook march with one extra step per slice: the
slice is projected onto its values at the sorted nodes before it is padded.
The CFL rate takes the orbit maximum, n times the largest packed speed, which is
the full grid's sum of per-axis maxima, so the step count is the full grid's.
The kept slices are expanded to the full grid through the index map, so
GridValueFunction.values and every reader see the full grid. Off the cone
(n = 1, d > 1 or unequal axes) the map is the identity and every node is packed.

What is fixed in time is evaluated at the packed nodes only and becomes
contiguous packed arrays before the march, one per axis, atom or axis pair, and
each step writes into per-axis buffers allocated once per solve. A step does the
float operations of the textbook form in the same order, so no layout of the
march moves a stored bit: -b.p is (-b) p, the atom average ((H_0 + H_1) + H_2)/n
as numpy's mean(-1) sums it, and 2u is formed once per step. The gradient of a
stored slice (grid_gradient, which the feedback reads) ghosts the full slice in
one buffer and differences its shifted views, with the march's float operations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

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

    def coords(self) -> tuple:
        """The node coordinates of each axis, read-only."""
        return self._arrays[0]

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

    def bounds(self) -> tuple:
        """(lo, hi) arrays of the grid's extent, one entry per axis, read-only."""
        return self._arrays[1]

    @cached_property
    def _arrays(self) -> tuple:
        """coords() and bounds(), built once per grid: a feedback query reads both."""
        coords = tuple(np.linspace(lo, hi, pts) for lo, hi, pts in self.axes)
        bounds = tuple(np.array([a[i] for a in self.axes]) for i in (0, 1))
        for a in coords + bounds:
            a.flags.writeable = False
        return coords, bounds

    def to_json(self) -> dict:
        return dict(asdict(self), axes=[list(a) for a in self.axes])


# The interior of a ghost buffer shifted by o in {-1, 0, 1} along one axis: _AT[o].
_AT = (slice(1, -1), slice(2, None), slice(0, -2))


def _ghosted(buf: np.ndarray) -> np.ndarray:
    """Write the odd-reflection ghost layer of buf's interior u into buf's faces.
    The ghosts 2 u[0] - u[1] and 2 u[-1] - u[-2] make boundary gradients one-sided
    and boundary curvature zero. Axis by axis, each face spanning the earlier axes
    in full and the later ones' interior: numpy's odd-reflection pad order, bit for bit."""
    for a in range(buf.ndim):
        v = np.moveaxis(buf[(slice(None),) * (a + 1) + (_AT[0],) * (buf.ndim - 1 - a)], a, 0)
        v[0], v[-1] = 2 * v[1] - v[2], 2 * v[-2] - v[-3]
    return buf


class _Ghost:
    """The packed nodes of the march of u_n on a grid, its ghost buffer and its
    stencil operands.

    A slice is stored packed, one value per node of `nodes` (their index arrays,
    one per axis, in C order). With n >= 2 atoms in d = 1 on equal axes, u_n(t, x)
    = V(t, mu_x) is symmetric under every permutation of the axes, and `cone`
    packs the sorted cone i_1 <= ... <= i_n; else every node is packed. `index`
    (*shape) maps each grid node to its packed node, on the cone the node of its
    sorted index tuple; off it, the identity. `operands` gathers a packed slice
    into the buffer (shape + 2 per axis) through that map, writes the ghost
    layer, and gathers every stencil operand at the packed nodes into `ops`:
    (plus, minus) per axis and (a, b, corners ++ +- -+ --) per axis pair a < b."""

    def __init__(self, grid: GridSpec, n: int, d: int):
        shape = grid.shape()
        nd = len(shape)
        cone = n >= 2 and d == 1 and all(a == grid.axes[0] for a in grid.axes)
        self.cone, self.buf = cone, np.empty(tuple(s + 2 for s in shape))
        nodes = np.indices(shape, dtype=np.intp).reshape(nd, -1)
        self.nodes = tuple(nodes[:, (np.diff(nodes, axis=0) >= 0).all(axis=0)] if cone else nodes)
        inner = tuple(i + 1 for i in self.nodes)
        fill = np.zeros(self.buf.shape, dtype=np.intp)    # _ghosted overwrites the faces
        for perm in itertools.permutations(range(nd)) if cone else [range(nd)]:
            fill[tuple(inner[a] for a in perm)] = np.arange(inner[0].size)
        self.fill, self.index = fill.reshape(-1), fill[(_AT[0],) * nd]
        unit = np.eye(nd, dtype=np.intp)
        pairs = list(itertools.combinations(range(nd), 2))
        offsets = [*unit, *-unit] + [sa * unit[a] + sb * unit[b] for a, b in pairs
                                     for sa, sb in itertools.product((1, -1), repeat=2)]
        steps = np.array(self.buf.strides) // self.buf.itemsize
        self.at = np.ravel_multi_index(inner, self.buf.shape) + (np.array(offsets) @ steps)[:, None]
        self.ops = np.empty(self.at.shape)
        views = list(self.ops)
        self.plus, self.minus = views[:nd], views[nd:2 * nd]
        self.corners = [(a, b, views[2 * nd + 4 * j:2 * nd + 4 * j + 4])
                        for j, (a, b) in enumerate(pairs)]

    def operands(self, u: np.ndarray) -> None:
        """Gather packed slice u into the buffer, write its ghost layer, and gather
        every stencil operand at the packed nodes into ops."""
        flat = self.buf.reshape(-1)
        np.take(u, self.fill, out=flat, mode="clip")
        _ghosted(self.buf)
        np.take(flat, self.at, out=self.ops, mode="clip")

    def axis_gradients(self, u: np.ndarray, h: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Central gradient of packed slice u into out, one packed array per axis
        (nd, M); returns out."""
        self.operands(u)
        for p, m, g in zip(self.plus, self.minus, out):
            np.subtract(p, m, out=g)
        return np.divide(out, (2.0 * h)[:, None], out=out)

    def rate(self, speeds: np.ndarray) -> float:
        """The sum over axes of each axis's largest speed on the full grid, from
        packed speeds (nd, M). On the cone a packed node's orbit moves each of its
        speeds onto every axis, so that sum is nd times the largest packed speed."""
        top = speeds.max(axis=1)
        return float(len(top) * top.max() if self.cone else top.sum())


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
        for ax, ((lo, hi, _), c) in enumerate(zip(self.grid.axes, self.grid.coords())):
            inset = self.grid.margin * (hi - lo)
            sel = (c >= (lo + inset) - 1e-12) & (c <= (hi - inset) + 1e-12)
            shape = [1] * len(self.grid.axes)
            shape[ax] = c.size
            mask &= sel.reshape(shape)
        return mask


def _node_coefficients(model: ModelSpec, n: int, grid: GridSpec, ghost: _Ghost):
    """Packed node arrays fixed in time, evaluated at the packed nodes of ghost only:
    the negated drift -b per axis a = i d + c (atom i, component c), (nd, M); l1
    per atom, (n, M); A_n (M, nd, nd); U_T (M,); and the CFL constants
    (2 max Tr A_n / h_min^2 over the packed nodes, h_min): the diffusion part of
    the CFL rate and the smallest spacing."""
    nd = n * model.d
    atoms = np.stack([c[i] for c, i in zip(grid.coords(), ghost.nodes)], -1)
    b, sig, l1, uT = _lifted_batch(model, atoms.reshape(-1, n, model.d))
    sflat = sig.reshape(-1, nd, model.d_prime)
    A = np.einsum("...am,...bm->...ab", sflat, sflat)    # (M, nd, nd)
    Lam = float(np.einsum("...aa->...a", A).sum(axis=-1).max())
    hmin = float(grid.spacings().min())
    negb = (-b.reshape(-1, nd)).T.copy()
    return negb, np.ascontiguousarray(l1.T), A, (2.0 * Lam / hmin ** 2, hmin), uT


def _march_terms(ghost: _Ghost, u: np.ndarray, h: np.ndarray, n: int, kappa: float,
                 negb: np.ndarray, cfl: tuple, p: np.ndarray, speeds: np.ndarray) -> float:
    """Write the costate p = n Du of packed slice u and the speeds |-b + a| at the
    control a = feedback_map(p) = p / kappa into the packed stacks p and speeds
    (nd, M); return the explicit CFL bound on dt."""
    np.multiply(ghost.axis_gradients(u, h, p), n, out=p)
    np.abs(np.add(negb, np.divide(p, kappa, out=speeds), out=speeds), out=speeds)
    return CFL_SAFETY / (cfl[0] + ghost.rate(speeds) / cfl[1])


def required_time_steps(model: ModelSpec, n: int, grid: GridSpec, t0: float, T: float) -> int:
    """Step count suggestion from the terminal-slice CFL estimate, times STEP_SAFETY."""
    ghost = _Ghost(grid, n, model.d)
    negb, _, _, cfl, uT = _node_coefficients(model, n, grid, ghost)
    bound = _march_terms(ghost, uT, grid.spacings(), n, model.kappa, negb, cfl,
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
    picks it), and is readable at those times alone. The march runs on the
    packed nodes (_Ghost); each kept slice is stored on the full grid."""
    if T <= t0:
        raise ValueError("need T > t0")
    d, kappa = model.d, model.kappa
    nd = n * d
    ghost = _Ghost(grid, n, d)    # the one ghost buffer of the solve
    negb, l1, A, cfl, uT = _node_coefficients(model, n, grid, ghost)
    h = grid.spacings()
    hcol = h[:, None]
    # fixed in time: diffusion weights, the LLF credit lambda_min/h, cross terms
    weights = np.stack([0.5 * A[..., a, a] / h[a] ** 2 for a in range(nd)])
    credit = np.clip(np.linalg.eigvalsh(A)[..., 0], 0.0, None) / hcol
    crosses = [(A[..., a, bb].copy(), 4.0 * h[a] * h[bb], views)
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
    values = np.empty((len(kept),) + grid.shape())
    np.take(uT, ghost.index, out=values[-1])

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
            np.take(u, ghost.index, out=values[row[k]])

    return GridValueFunction(grid=grid, model=model, n=n, dt=dt, times=times[kept],
                             values=values, read_times=read_times)


def grid_gradient(u: GridValueFunction, k: int) -> np.ndarray:
    """Per-node spatial gradient D u of stored slice k, shape (*grid, nd): central
    differences, which the ghost layer makes one-sided at the boundary. It reads
    the shifted views of one ghosted buffer, with the float operations of
    _Ghost.axis_gradients."""
    nd = len(u.grid.axes)
    buf = np.empty(tuple(s + 2 for s in u.grid.shape()))
    buf[(_AT[0],) * nd] = u.values[k]
    _ghosted(buf)
    g = np.empty(u.grid.shape() + (nd,))
    for a, h in enumerate(u.grid.spacings()):
        plus, minus = (buf[(_AT[0],) * a + (_AT[o],) + (_AT[0],) * (nd - 1 - a)] for o in (1, -1))
        np.divide(np.subtract(plus, minus, out=g[..., a]), 2.0 * h, out=g[..., a])
    return g


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
