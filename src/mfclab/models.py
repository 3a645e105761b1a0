"""Coefficient bundles (b, sigma, l1, l2, U_T), their lift to atom tuples, and
the Hamiltonian and feedback map the HJB solver calls.

The control cost is fixed to the quadratic family l2(a) = kappa |a|^2 / 2, so
the convex conjugate and the gradient inverse have closed forms and the growth
bounds hold with explicit constants (C2 = C3 = kappa/2, C1 = 0, nu = kappa/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .measures import moments


@dataclass(frozen=True)
class ModelSpec:
    name: str
    d: int
    d_prime: int
    drift: tuple  # d expression trees
    sigma: tuple  # d rows of d_prime expression trees
    l1: ex.Expr
    kappa: float
    terminal: ex.Expr  # measure features only

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if len(self.drift) != self.d:
            raise ValueError(f"drift needs {self.d} component expressions")
        if len(self.sigma) != self.d or any(len(row) != self.d_prime for row in self.sigma):
            raise ValueError(f"sigma needs shape {self.d} x {self.d_prime}")
        if any(v.kind == "x" for v in ex.variables(self.terminal)):
            raise ValueError("terminal cost may only use measure features m1, m2")
        trees = (*self.drift, *(e for row in self.sigma for e in row), self.l1, self.terminal)
        for v in (v for e in trees for v in ex.variables(e)):
            if v.kind != "m2" and v.index >= self.d:
                raise ValueError(f"{ex.print_coefficient(v)} indexes past d = {self.d}")

    # -- feature extraction ------------------------------------------------

    def features(self, atoms):
        """(m1, m2) of the empirical measure; atoms shape (..., n, d)."""
        return moments(atoms)

    # -- vectorized coefficient evaluation ---------------------------------

    @staticmethod
    def _at(e, x, m1, m2, strict=True):
        """One coefficient tree at x (..., d), broadcast to the point shape (...)."""
        return np.broadcast_to(ex.evaluate(e, x, m1, m2, strict=strict), np.asarray(x).shape[:-1])

    def drift_at(self, x, m1, m2, strict=True):
        """b(x, mu): x shape (..., d) -> (..., d)."""
        return np.stack([self._at(e, x, m1, m2, strict) for e in self.drift], axis=-1)

    def sigma_at(self, x, m1, m2, strict=True):
        """sigma(x, mu): x shape (..., d) -> (..., d, d')."""
        return np.stack([np.stack([self._at(e, x, m1, m2, strict) for e in row], axis=-1)
                         for row in self.sigma], axis=-2)

    def l1_at(self, x, m1, m2):
        return self._at(self.l1, x, m1, m2)

    def terminal_at(self, m1, m2):
        return ex.evaluate(self.terminal, None, m1, m2)

    def l2(self, a):
        """Running control cost kappa |a|^2 / 2; a shape (..., d)."""
        return 0.5 * self.kappa * (np.asarray(a) ** 2).sum(axis=-1)


def l2_conjugate(p, kappa: float):
    """Convex conjugate of the quadratic control cost: l2*(p) = |p|^2 / (2 kappa)."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return (np.asarray(p, dtype=np.float64) ** 2).sum(axis=-1) / (2.0 * kappa)


def feedback_map(p, kappa: float):
    """(Dl2)^{-1}(p) = p / kappa: costate -> pointwise-optimal control."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return np.asarray(p, dtype=np.float64) / kappa


def hamiltonian(b, l1, p, kappa: float):
    """Per-atom H = -b.p - l1 + l2*(p): b, p (..., n, d), l1 (..., n) -> (..., n)."""
    return -(b * p).sum(axis=-1) - l1 + l2_conjugate(p, kappa)


def _lifted_batch(model: ModelSpec, states):
    """Lifted coefficients at atom tuples states (..., n, d): B_i = b(x_i, mu_x),
    Sigma_i, L1_i per atom (not averaged) and U_T(mu_x).

    Shapes: B (..., n, d), Sigma (..., n, d, d'), L1 (..., n), U_T (...).
    """
    m1, m2 = model.features(states)
    m1b = m1[..., None, :]
    m2b = m2[..., None]
    B = model.drift_at(states, m1b, m2b)
    S = model.sigma_at(states, m1b, m2b)
    L1 = model.l1_at(states, m1b, m2b)
    UT = np.broadcast_to(model.terminal_at(m1, m2), m2.shape)  # also a constant U_T
    return B, S, L1, UT


# -- registry ----------------------------------------------------------------


def _build(name, d, d_prime, b, sigma, l1, kappa, UT) -> ModelSpec:
    return ModelSpec(
        name=name,
        d=d,
        d_prime=d_prime,
        drift=tuple(ex.parse_coefficient(s) for s in b),
        sigma=tuple(tuple(ex.parse_coefficient(s) for s in row) for row in sigma),
        l1=ex.parse_coefficient(l1),
        kappa=kappa,
        terminal=ex.parse_coefficient(UT),
    )


REGISTRY = {
    # Constant coefficients: affine lift, convex lift, C^{1,1} by construction.
    "LQ-decoupled": _build("LQ-decoupled", 1, 1, ["0"], [["1"]], "0", 1.0, "0.5*m2"),
    # Affine mean interaction; lift stays affine linear and C^{1,1}.
    "LQ-mean-reverting": _build(
        "LQ-mean-reverting", 1, 1, ["-x[0] + m1[0]"], [["1"]], "0", 1.0, "0.5*m2",
    ),
    # Diffusion depends on the measure through a smooth scalar statistic
    # g(int zeta dmu) with g = tanh, zeta affine: Lipschitz with a C^{1,1}
    # lift (bounded smooth g of a linear statistic), but not affine.
    "tanh-interaction": _build(
        "tanh-interaction", 1, 1, ["-x[0]"], [["0.6 + 0.3*tanh(m1[0])"]],
        "0.5*(x[0] - m1[0])^2", 1.0, "0.5*m2",
    ),
}


def model_from_json(doc: dict) -> ModelSpec:
    """Build a ModelSpec from the JSON model document (or a registry shortcut)."""
    if "registry" in doc:
        return REGISTRY[doc["registry"]]
    required = {"d", "d_prime", "b", "sigma", "l1", "kappa", "UT"}
    missing = required - doc.keys()
    if missing:
        raise ValueError(f"model document missing keys: {sorted(missing)}")
    return _build(
        doc.get("name", "custom"),
        int(doc["d"]),
        int(doc["d_prime"]),
        list(doc["b"]),
        [list(row) for row in doc["sigma"]],
        doc["l1"],
        float(doc["kappa"]),
        doc["UT"],
    )
