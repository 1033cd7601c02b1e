"""Independent oracles for the qmarket benchmark.

Everything here uses numpy, scipy and the standard library only; nothing
calls into qmarket.  Each ``*_problems`` function returns a list of
human-readable mismatches, empty when the program's output passes.
"""

import math

import numpy as np
from scipy.optimize import linprog

PRICE_RTOL = 1e-9  # closed-form prices (CRR, replication alpha)
BARRIER_RTOL = 1e-6  # interval endpoints from the log-det barrier
LP_ATOL = 1e-6  # diagonal interval endpoints against the LP
RECON_RTOL = 1e-8  # optional decomposition V_T = V_0 I + gain - C_T
PSD_TOL = 1e-8  # consumption increments and arbitrage certificates
DEFINITION_RTOL = 1e-8  # tr(rho A_p* dS A_q) = 0, relative to ||dS||
TRACE_TOL = 1e-9
RADIUS_TOL = 1e-12
PLANE_TOL = 1e-10

I2 = np.eye(2, dtype=complex)
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def scale_of(x):
    return max(1.0, abs(float(x)))


def rel_close(got, want, rtol):
    return abs(float(got) - float(want)) <= rtol * scale_of(want)


# --- closed forms -----------------------------------------------------------


def crr_direct_sum(n, s0, strike, r, a, b):
    """Call price as the risk-neutral expectation over up-counts."""
    q = (r - a) / (b - a)
    total = 0.0
    for j in range(n + 1):
        payoff = max(s0 * (1 + b) ** j * (1 + a) ** (n - j) - strike, 0.0)
        total += math.comb(n, j) * q ** j * (1 - q) ** (n - j) * payoff
    return total / (1 + r) ** n


def lp_bounds(outcomes, s0, payoff):
    """Extremize sum p_k h_k over {p >= 0, sum p = 1, sum p x_k = s0}."""
    n = len(outcomes)
    a_eq = np.vstack([np.ones(n), np.asarray(outcomes, dtype=float)])
    b_eq = np.array([1.0, float(s0)])
    c = np.asarray(payoff, dtype=float)
    lo = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * n)
    hi = linprog(-c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * n)
    if not (lo.success and hi.success):
        raise ValueError("LP oracle failed: " + lo.message + " / " + hi.message)
    return float(lo.fun), float(-hi.fun)


def affine_replication(claim, increment):
    """Least squares claim ~ alpha I + c dS over real (alpha, c); (alpha, residual)."""
    d = claim.shape[0]
    cols = np.column_stack([np.eye(d).reshape(-1), increment.reshape(-1)])
    cols = np.vstack([cols.real, cols.imag])
    rhs = np.concatenate([claim.reshape(-1).real, claim.reshape(-1).imag])
    coef, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
    return float(coef[0]), float(np.linalg.norm(cols @ coef - rhs))


def call_payoff(s, strike):
    """max(S - K, 0) through the spectral decomposition of S."""
    vals, vecs = np.linalg.eigh(s)
    return (vecs * np.maximum(vals - strike, 0.0)) @ vecs.conj().T


def bloch_state(v):
    return 0.5 * (I2 + sum(float(x) * p for x, p in zip(v, PAULI)))


def disk_radius(x0, x, r):
    """Radius of the plane x.v = r - x0 cut from the unit Bloch ball."""
    dist = (r - x0) / np.linalg.norm(x)
    return math.sqrt(1.0 - dist * dist)


# --- market definitions -----------------------------------------------------


class MarketData:
    """Discounted price operators X_t and the factor sizes m_t of A_t = B(C^m_t) (x) I."""

    def __init__(self, discounted, factor_dims):
        self.x = [np.asarray(op, dtype=complex) for op in discounted]
        self.factor_dims = list(factor_dims)
        self.dim = self.x[0].shape[0]

    @property
    def horizon(self):
        return len(self.x) - 1

    def increment(self, t):
        return self.x[t] - self.x[t - 1]


def martingale_residual(rho, market):
    """max |tr(rho A_p* dX_t A_q)| over matrix units A_p, A_q of A_{t-1}, all t.

    By polarization this vanishes iff tr(rho A* dX_t A) = 0 for every A in
    A_{t-1}, which is the definition of a martingale state.
    """
    d = market.dim
    rho = np.asarray(rho, dtype=complex)
    worst = 0.0
    for t in range(1, market.horizon + 1):
        m = market.factor_dims[t - 1]
        k = d // m
        r4 = rho.reshape(m, k, m, k)
        x4 = market.increment(t).reshape(m, k, m, k)
        # (E_ba (x) I) dX (E_ce (x) I) traced against rho
        gram = np.einsum("ejbi,aicj->abce", r4, x4)
        worst = max(worst, float(np.abs(gram).max()))
    return worst


def definition_tol(market):
    return DEFINITION_RTOL * max(
        1.0, max(np.linalg.norm(market.increment(t)) for t in range(1, market.horizon + 1))
    )


def is_martingale(rho, market):
    return martingale_residual(rho, market) <= definition_tol(market)


def witness_problems(rho, market):
    """A faithful witness: trace one, strictly positive, and a martingale state."""
    out = []
    rho = np.asarray(rho, dtype=complex)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_TOL:
        out.append(f"witness trace {tr!r}")
    lam = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if not lam > 0.0:
        out.append(f"witness lambda_min {lam!r} not positive")
    res = martingale_residual(rho, market)
    if res > definition_tol(market):
        out.append(f"witness martingale residual {res:.3e}")
    return out


def certificate_problems(claim, increment):
    """A single-period arbitrage certificate: PSD, nonzero, a multiple of dX."""
    out = []
    claim = np.asarray(claim, dtype=complex)
    nrm = float(np.linalg.norm(claim))
    if nrm <= 1e-12:
        return ["certificate is zero"]
    lam = float(np.linalg.eigvalsh(0.5 * (claim + claim.conj().T))[0])
    if lam < -PSD_TOL * nrm:
        out.append(f"certificate lambda_min {lam:.3e}")
    coef = float(np.vdot(increment, claim).real) / float(np.vdot(increment, increment).real)
    off = float(np.linalg.norm(claim - coef * increment))
    if off > PSD_TOL * nrm:
        out.append(f"certificate off the span of dS by {off:.3e}")
    return out


def decomposition_problems(values, gains, consumption, v0, market):
    """V_t = V_0 I + gain_t - C_t for every t, with PSD increments of C."""
    out = []
    d = market.dim
    eye = np.eye(d)
    if len(gains) != len(values) or len(consumption) != len(values):
        return [f"decomposition has {len(consumption)} consumption terms for {len(values)} values"]
    for t, v in enumerate(values):
        recon = v0 * eye + gains[t] - consumption[t]
        err = float(np.linalg.norm(recon - v))
        if err > RECON_RTOL * max(1.0, float(np.linalg.norm(v))):
            out.append(f"reconstruction error {err:.3e} at t={t}")
    for t in range(1, len(values)):
        dc = consumption[t] - consumption[t - 1]
        lam = float(np.linalg.eigvalsh(0.5 * (dc + dc.conj().T))[0])
        if lam < -PSD_TOL:
            out.append(f"consumption increment lambda_min {lam:.3e} at t={t}")
    return out


def decode_matrix(rows):
    return np.array([[complex(c[0], c[1]) for c in row] for row in rows], dtype=complex)


def encode_matrix(mat):
    return [[[float(c.real), float(c.imag)] for c in row] for row in np.asarray(mat)]


def witness_matrix(payload):
    """Density matrix from a CLI witness payload ({"bloch": v} or {"matrix": rows})."""
    if "bloch" in payload:
        return bloch_state(payload["bloch"])
    return decode_matrix(payload["matrix"])
