"""Qubit and multi-qubit binomial markets with closed-form call pricing.

The single-period market has rate operator x0*I + x1*sx + x2*sy + x3*sz
with spectrum {a, b}; its risk-neutral states form an open disk inside the
Bloch ball.  The N-period market lives on (C^2)^(x)N with tensor-product
asset operators, product risk-neutral states, and the Cox-Ross-Rubinstein
call price as the closed form.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .market import Filtration, MarketModel, OperatorAlgebra, tensor_qubit_filtration
from .operators import I2, SX, SY, SZ, kron, pauli_operator
from .quantum import DensityState

TAU_TIE_TOL = 1e-12
DISK_EDGE_SHRINK = 1e-6
DISK_TOL = 1e-10


def _require_finite(spec, names):
    for name in names:
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class QubitMarketSpec:
    """Single-period market B_1 = B_0(1+r), S_1 = S_0(1+A) on C^2."""

    x0: float
    x1: float
    x2: float
    x3: float
    r: float
    s0: float
    b0: float = 1.0

    def __post_init__(self):
        _require_finite(self, ("x0", "x1", "x2", "x3", "r", "s0", "b0"))
        if self.pauli_norm == 0.0:
            raise ValidationError("pauli coordinates (x1, x2, x3) must not vanish")
        if self.s0 <= 0 or self.b0 <= 0:
            raise ValidationError("s0 and b0 must be positive")
        if self.a <= -1:
            raise ValidationError(f"a = {self.a} must exceed -1")
        if self.r <= -1:
            raise ValidationError(f"r = {self.r} must exceed -1")

    @property
    def pauli_norm(self):
        return math.sqrt(self.x1 ** 2 + self.x2 ** 2 + self.x3 ** 2)

    @property
    def a(self):
        return self.x0 - self.pauli_norm

    @property
    def b(self):
        return self.x0 + self.pauli_norm

    @property
    def rate_operator(self):
        return pauli_operator(self.x0, self.x1, self.x2, self.x3)


@dataclass(frozen=True)
class RiskNeutralDisk:
    """The faithful martingale states: an open planar disk in the Bloch ball."""

    normal: np.ndarray
    offset: float
    radius: float

    @property
    def center(self):
        return self.offset * self.normal

    def contains(self, v):
        v = np.asarray(v, dtype=float)
        on_plane = abs(float(self.normal @ v) - self.offset) <= DISK_TOL
        inside = np.linalg.norm(v - self.center) < self.radius + DISK_TOL
        return bool(on_plane and inside and np.linalg.norm(v) < 1.0 + DISK_TOL)


def build_single_period(spec):
    """Dim-2 market with filtration (CI, B(C^2))."""
    filtration = Filtration([OperatorAlgebra.trivial(2), OperatorAlgebra.full(2)])
    s0 = spec.s0 * I2
    s1 = spec.s0 * (I2 + spec.rate_operator)
    bank = [spec.b0, spec.b0 * (1 + spec.r)]
    return MarketModel(filtration, bank, [[s0, s1]])


def risk_neutral_disk(spec):
    """Disk parameters of the martingale-state plane (requires a < r < b)."""
    if not (spec.a < spec.r < spec.b):
        raise ValidationError(
            f"risk-neutral set is empty unless a < r < b; got "
            f"a={spec.a}, r={spec.r}, b={spec.b}"
        )
    n = np.array([spec.x1, spec.x2, spec.x3]) / spec.pauli_norm
    offset = (spec.r - (spec.a + spec.b) / 2.0) / spec.pauli_norm
    radius = math.sqrt(
        1.0 - (2 * spec.r - spec.a - spec.b) ** 2 / (spec.b - spec.a) ** 2
    )
    return RiskNeutralDisk(n, offset, radius)


def sample_disk_points(disk, n, seed):
    """n Bloch vectors, one per row, uniform on the (shrunken) open disk."""
    if n < 1:
        raise ValidationError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    # deterministic orthonormal pair (e1, e2) spanning the disk's plane
    e1 = np.cross(disk.normal, np.eye(3)[int(np.argmin(np.abs(disk.normal)))])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(disk.normal, e1)
    rr = disk.radius * (1.0 - DISK_EDGE_SHRINK) * np.sqrt(rng.random(n))[:, None]
    th = 2.0 * np.pi * rng.random(n)[:, None]
    return disk.center + rr * (np.cos(th) * e1 + np.sin(th) * e2)


def sample_disk_states(disk, n, seed):
    """The faithful states of :func:`sample_disk_points`' Bloch vectors."""
    return [DensityState.from_bloch(v) for v in sample_disk_points(disk, n, seed)]


def _call_ends(spec, strike, use):
    """(s_a, s_b, h_a, h_b): S_1 and the call (S_1 - K)^+ at the rates a and b; needs a < r < b."""
    if not (spec.a < spec.r < spec.b):
        raise ValidationError(f"{use} requires a < r < b")
    s_a, s_b = spec.s0 * (1 + spec.a), spec.s0 * (1 + spec.b)
    return s_a, s_b, max(s_a - strike, 0.0), max(s_b - strike, 0.0)


def euro_call_replication(spec, strike):
    """Hedge (beta, gamma) with beta B_1 + gamma S_1 = (S_1 - K)^+."""
    s_a, s_b, h_a, h_b = _call_ends(spec, strike, "replication")
    gamma = (h_b - h_a) / (s_b - s_a)
    beta = (h_a * s_b - h_b * s_a) / ((s_b - s_a) * spec.b0 * (1 + spec.r))
    return beta, gamma


def euro_call_price(spec, strike):
    """C = ((b-r) h_a + (r-a) h_b) / ((1+r)(b-a)); state-independent."""
    _, _, h_a, h_b = _call_ends(spec, strike, "pricing")
    a, b, r = spec.a, spec.b, spec.r
    return ((b - r) * h_a + (r - a) * h_b) / ((1 + r) * (b - a))


def _default_pauli(a, b):
    return ((b - a) / 2.0, 0.0, 0.0)


@dataclass(frozen=True)
class NPeriodSpec:
    """N-period tensor market on (C^2)^(x)N with per-period Pauli directions."""

    n_periods: int
    a: float
    b: float
    r: float
    s0: float
    b0: float = 1.0
    pauli: tuple = field(default=None)

    def __post_init__(self):
        if not 1 <= self.n_periods <= 6:
            raise ValidationError("n_periods must be in 1..6 (dimension cap 64)")
        _require_finite(self, ("a", "b", "r", "s0", "b0"))
        if not (-1 < self.a < self.b):
            raise ValidationError("need -1 < a < b")
        if self.r <= -1:
            raise ValidationError("need r > -1")
        if self.s0 <= 0 or self.b0 <= 0:
            raise ValidationError("s0 and b0 must be positive")
        pauli = self.pauli
        if pauli is None:
            pauli = tuple(_default_pauli(self.a, self.b) for _ in range(self.n_periods))
        else:
            pauli = tuple(tuple(float(x) for x in p) for p in pauli)
            if len(pauli) != self.n_periods:
                raise ValidationError("one Pauli 3-vector required per period")
            half_gap_sq = (self.b - self.a) ** 2 / 4.0
            tol = 1e-12 * max(1.0, half_gap_sq)  # absolute for b - a <= 2, relative above
            for j, p in enumerate(pauli):
                if not all(map(math.isfinite, p)):
                    raise ValidationError(f"period {j + 1}: pauli entries must be finite, got {p}")
                if abs(sum(x * x for x in p) - half_gap_sq) > tol:
                    raise ValidationError(
                        f"period {j + 1}: |pauli|^2 must equal (b-a)^2/4"
                    )
        object.__setattr__(self, "pauli", pauli)

    def rate_operator(self, j):
        """A_j = (a+b)/2 I + x_1j sx + x_2j sy + x_3j sz."""
        x1, x2, x3 = self.pauli[j]
        return pauli_operator((self.a + self.b) / 2.0, x1, x2, x3)


def build_n_period(spec):
    """S_n = S_0 (x)_{j<=n} (1 + A_j) (x) I with the tensor filtration."""
    n = spec.n_periods
    dim = 2 ** n
    filtration = tensor_qubit_filtration(n)
    ops = [spec.s0 * np.eye(dim, dtype=complex)]
    core = np.array([[spec.s0]], dtype=complex)
    for j in range(n):
        core = kron(core, I2 + spec.rate_operator(j))
        ops.append(kron(core, np.eye(2 ** (n - j - 1), dtype=complex)))
    bank = [spec.b0 * (1 + spec.r) ** t for t in range(n + 1)]
    return MarketModel(filtration, bank, [ops])


def product_martingale_state(spec, bloch):
    """Tensor product of per-period disk states; a faithful martingale state."""
    if len(bloch) != spec.n_periods:
        raise ValidationError("one Bloch vector required per period")
    target = spec.r - (spec.a + spec.b) / 2.0
    mat = np.array([[1.0]], dtype=complex)
    for j, v in enumerate(bloch):
        v = np.asarray(v, dtype=float)
        x1, x2, x3 = spec.pauli[j]
        if abs(x1 * v[0] + x2 * v[1] + x3 * v[2] - target) > 1e-10:
            raise ValidationError(f"period {j + 1}: Bloch vector off the disk plane")
        if np.linalg.norm(v) >= 1.0:
            raise ValidationError(f"period {j + 1}: Bloch vector outside the open ball")
        rho_j = 0.5 * (I2 + v[0] * SX + v[1] * SY + v[2] * SZ)
        mat = kron(mat, rho_j)
    return DensityState(mat)


def complementary_binomial(m, n, p):
    """Psi(m; n, p) = sum_{j=m}^{n} C(n, j) p^j (1-p)^{n-j}."""
    if not (0 <= m <= n + 1):
        raise ValidationError(f"m = {m} outside [0, {n + 1}]")
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"p = {p} outside [0, 1]")
    terms = (math.comb(n, j) * p ** j * (1.0 - p) ** (n - j) for j in range(m, n + 1))
    return min(sum(terms, 0.0), 1.0)


def crr_price(n_periods, s0, strike, r, a, b):
    """Cox-Ross-Rubinstein call price S0 Psi(tau; N, q') - K (1+r)^-N Psi(tau; N, q)."""
    if not (-1 < a < r < b):
        raise ValidationError("need -1 < a < r < b")
    if n_periods < 1:
        raise ValidationError("n_periods must be >= 1")
    if strike < 0:
        raise ValidationError("strike must be >= 0")
    q = (r - a) / (b - a)
    qp = q * (1 + b) / (1 + r)
    tie = TAU_TIE_TOL * max(1.0, abs(strike))
    ends = (s0 * (1 + b) ** n * (1 + a) ** (n_periods - n) for n in range(n_periods + 1))
    tau = next((n for n, s in enumerate(ends) if s > strike + tie), None)
    if tau is None:
        return 0.0
    psi = complementary_binomial
    return s0 * psi(tau, n_periods, qp) - strike * (1 + r) ** (-n_periods) * psi(tau, n_periods, q)


def classical_tree_price(n_periods, s0, strike, r, a, b):
    """Backward induction on the recombining binomial tree; CRR cross-check."""
    if not (-1 < a < r < b):
        raise ValidationError("need -1 < a < r < b")
    q = (r - a) / (b - a)
    values = [max(s0 * (1 + b) ** n * (1 + a) ** (n_periods - n) - strike, 0.0)
              for n in range(n_periods + 1)]
    for _ in range(n_periods):
        values = [(q * up + (1 - q) * down) / (1 + r) for down, up in zip(values, values[1:])]
    return values[0]
