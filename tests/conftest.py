import numpy as np
import pytest
from scipy.optimize import linprog

from qmarket.market import Filtration, MarketModel, OperatorAlgebra, TradingStrategy, discount


def random_hermitian(rng, dim, scale=1.0):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (m + m.conj().T)


def random_positive(rng, dim, scale=1.0):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (m @ m.conj().T) / dim


def random_state(rng, dim):
    p = random_positive(rng, dim)
    return p / np.trace(p).real


def random_market(rng, dim, horizon, n_assets=1):
    """Discounted market with trivial A_0 and full algebras afterwards."""
    algebras = [OperatorAlgebra.trivial(dim)] + [
        OperatorAlgebra.full(dim) for _ in range(horizon)
    ]
    filtration = Filtration(algebras)
    assets = []
    for _ in range(n_assets):
        proc = [float(rng.uniform(0.5, 2.0)) * np.eye(dim, dtype=complex)]
        for _ in range(horizon):
            proc.append(random_positive(rng, dim) + 0.1 * np.eye(dim))
        assets.append(proc)
    return MarketModel(filtration, [1.0] * (horizon + 1), assets)


def random_strategy(rng, market):
    return TradingStrategy(random_terms(rng, market))


def random_terms(rng, market):
    """Random pairs {(t, j): [(a, A)]} with A in A_{t-1}, for a market from ``random_market``."""
    terms = {}
    for t in range(1, market.horizon + 1):
        alg = market.filtration[t - 1]
        for j in range(market.n_assets):
            pairs = []
            for _ in range(rng.integers(1, 4)):
                if alg.is_factor and alg.factor_dim == 1:
                    mat = complex(rng.standard_normal()) * np.eye(market.dim, dtype=complex)
                else:
                    mat = rng.standard_normal((market.dim, market.dim)) + 1j * rng.standard_normal(
                        (market.dim, market.dim)
                    )
                pairs.append((float(rng.standard_normal()), mat))
            terms[(t, j)] = pairs
    return terms


def trinomial_market(r=0.05, s0=100.0, rates=(-0.1, 0.05, 0.2)):
    """Single-period commutative market diag(s0 (1 + rates)) on C^3."""
    dim = len(rates)
    filt = Filtration([OperatorAlgebra.trivial(dim), OperatorAlgebra.full(dim)])
    s1 = s0 * np.diag(1.0 + np.asarray(rates)).astype(complex)
    return MarketModel(filt, [1.0, 1.0 + r], [[s0 * np.eye(dim, dtype=complex), s1]])


# a claim outside span(I, K) of the tests' N = 2 binomial markets, whose K
# has rank 1 + 4
TWO_PERIOD_CLAIM = np.array([[1, 0, 0, 1], [0, 2, 1, 0], [0, 1, 3, 0], [1, 0, 0, 4]], dtype=complex)


def classical_lp_bounds(prices_t1, s0, payoff):
    """LP oracle: extremize sum p_k h_k over {p >= 0, sum p = 1, sum p s_k = s0}.

    Everything already discounted; returns (lower, upper).
    """
    n = len(prices_t1)
    a_eq = np.vstack([np.ones(n), np.asarray(prices_t1)])
    b_eq = np.array([1.0, s0])
    c = np.asarray(payoff, dtype=float)
    lo = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * n)
    hi = linprog(-c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * n)
    assert lo.success and hi.success
    return lo.fun, -hi.fun


def crr_direct_sum(n, s0, k, r, a, b):
    """Independent CRR oracle: direct risk-neutral expectation over up-counts."""
    from math import comb

    q = (r - a) / (b - a)
    total = 0.0
    for j in range(n + 1):
        payoff = max(s0 * (1 + b) ** j * (1 + a) ** (n - j) - k, 0.0)
        total += comb(n, j) * q ** j * (1 - q) ** (n - j) * payoff
    return total / (1 + r) ** n


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
