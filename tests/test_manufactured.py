"""Manufactured solutions: the solver against an exact u_n at every n.

For U_T = G(m1) + c m2 and a source in l1, u_n(t, x) = G(m1(mu_x)) + c m2(mu_x)
solves the n-particle HJB exactly, for every n and t at once. In d = d' = 1
with sigma a function of the measure alone, p = n D_{x_i} u = G'(m1) + 2c x and
(1/2) Tr(A_n D^2 u) = (1/2) sigma^2 (G''(m1) + 2c), so the source is

    l1 = -(1/2) sigma^2 (G'' + 2c) - b p + p^2 / (2 kappa).

The model lives here, not in the registry, which would change `mfclab list`.
"""

import numpy as np
import pytest

import mfclab as m
from mfclab.models import model_from_json

G, DG, D2G = "0.3*sin(m1[0])", "0.3*cos(m1[0])", "-0.3*sin(m1[0])"
C, KAPPA = 0.5, 1.0
B, SIGMA = "-x[0]", "(0.6 + 0.3*tanh(m1[0]))"
P = f"({DG} + {2 * C}*x[0])"
MODEL = model_from_json({"name": "manufactured", "d": 1, "d_prime": 1, "b": [B],
                         "sigma": [[SIGMA]], "kappa": KAPPA, "UT": f"{G} + {C}*m2",
                         "l1": f"-0.5*{SIGMA}^2*({D2G} + {2 * C}) - ({B})*{P} + {P}^2/{2 * KAPPA}"})


def exact(x):
    """G(m1) + C m2 of the atoms x (..., n)."""
    return 0.3 * np.sin(x.mean(axis=-1)) + C * (x ** 2).mean(axis=-1)


def max_error(n: int, points: int) -> float:
    """Max |u_n - exact| at t = 0 over 64 seeded points in [-1.2, 1.2]^n, on [-3, 3]^n."""
    grid = m.sized_grid(MODEL, n, [(-3.0, 3.0, points)] * n, 0.0, 1.0)
    u = m.solve_hjb(MODEL, n, grid, 0.0, 1.0, read_times=(0.0,))
    x = np.random.default_rng(7).uniform(-1.2, 1.2, (64, n))
    return float(np.abs(u.value_at(0.0, x) - exact(x)).max())


def test_the_source_makes_the_value_exact():
    """G(m1) + C m2 is a stationary solution: its diffusion term
    (1/2) sigma^2 sum_ab D_ab u (common noise, A_n = sigma^2 1 1^T) equals the
    mean Hamiltonian of p = n D u, by central differences at n = 3."""
    n, h = 3, 1e-4
    steps = h * np.eye(n)
    for x in np.random.default_rng(3).uniform(-1.0, 1.0, (4, n)):
        m1, m2 = np.array([x.mean()]), np.array((x ** 2).mean())
        p = n * np.array([exact(x + e) - exact(x - e) for e in steps]) / (2 * h)
        hessian_sum = sum(exact(x + ea + eb) - exact(x + ea - eb) - exact(x - ea + eb)
                          + exact(x - ea - eb) for ea in steps for eb in steps) / (4 * h * h)
        sigma = MODEL.sigma_at(x[:, None], m1, m2)[0, 0, 0]
        b = MODEL.drift_at(x[:, None], m1, m2)
        H = m.hamiltonian(b, MODEL.l1_at(x[:, None], m1, m2), p[:, None], KAPPA)
        assert abs(0.5 * sigma ** 2 * hessian_sum - H.mean()) < 1e-5


@pytest.mark.parametrize("n, coarse, fine, tol, ratio", [
    (1, 121, 241, 2e-4, 3.5),
    (2, 41, 81, 5e-2, 1.8),
    (3, 21, 31, 0.15, 1.3),
])
def test_solver_converges_to_the_manufactured_solution(n, coarse, fine, tol, ratio):
    """b = -x, sigma = 0.6 + 0.3 tanh(m1), kappa = T = 1, G = 0.3 sin: the
    error falls under refinement at order 2 at n = 1 and about 1 at n >= 2,
    where the LLF viscosity switches on. Measured (64 points): 3.3e-4 -> 8.3e-5
    at n = 1, 7.8e-2 -> 3.8e-2 at n = 2 and 0.17 -> 0.11 at n = 3. Without the
    running cost l1 in the march the errors are 0.48 to 0.75."""
    e_coarse, e_fine = max_error(n, coarse), max_error(n, fine)
    assert e_fine <= tol
    assert e_coarse >= ratio * e_fine
