"""Seeded inputs and operations of the three benchmark workloads.

A workload turns ``--seed`` into a pool of rounds.  Generating the pool
writes every scenario file the round needs; ``round_ops`` then builds the
round's market objects and returns its operations in a fixed order.  Every
round of a workload has the same make-up (market sizes, operation kinds and
counts); only the random parameters differ, so per-round figures are
comparable and trace counts repeat exactly.

Each operation is a zero-argument ``call`` (the timed part) and a ``check``
that compares the output with the oracles in ``oracles.py``.
"""

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

import oracles as orc

FAITHFUL = "FAITHFUL_STATE_FOUND"
NO_FAITHFUL = "NO_FAITHFUL_STATE"


@dataclass
class Op:
    kind: str
    label: str
    call: Callable
    check: Callable


def _rng(seed, tag, index):
    return np.random.default_rng([seed % 2 ** 63, tag, index])


def _write_yaml(path, obj):
    path.write_text(yaml.safe_dump(obj, sort_keys=True), encoding="utf-8")


def _read_results(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["results"]


def cli_op(qm, kind, label, command, scenario, out, check):
    """One ``qmarket`` command run in-process with ``--out``; check reads the report."""
    argv = [command, "--scenario", str(scenario), "--out", str(out)]

    def call():
        code = qm.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"qmarket {command} exited with code {code}")

    return Op(kind, label, call, lambda _unused: check(_read_results(out)))


def _unit(v):
    return v / np.linalg.norm(v)


def _random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (m + m.conj().T)


# --- market data built by the benchmark itself ------------------------------


def nperiod_data(p):
    """Discounted operators of the N-period tensor market, built with numpy."""
    n, a, b, r, s0 = p["n"], p["a"], p["b"], p["r"], p["s0"]
    dim = 2 ** n
    ops = [s0 * np.eye(dim, dtype=complex)]
    core = np.array([[s0]], dtype=complex)
    for j in range(n):
        rate = (a + b) / 2 * orc.I2 + sum(x * s for x, s in zip(p["pauli"][j], orc.PAULI))
        core = np.kron(core, orc.I2 + rate)
        ops.append(np.kron(core, np.eye(2 ** (n - j - 1))) / (1 + r) ** (j + 1))
    return orc.MarketData(ops, [2 ** t for t in range(n + 1)])


def single_period_data(s0, s1, r):
    d = s1.shape[0]
    return orc.MarketData([s0 * np.eye(d, dtype=complex), s1 / (1 + r)], [1, d])


def qubit_s1(p):
    rate = p["x0"] * orc.I2 + sum(x * s for x, s in zip(p["x"], orc.PAULI))
    return p["s0"] * (orc.I2 + rate)


def plane_point(rng, normal, offset, shrink=0.9):
    """A Bloch vector on the plane normal.v = offset, strictly inside the ball."""
    n = _unit(np.asarray(normal, dtype=float))
    w = rng.standard_normal(3)
    w -= (w @ n) * n
    room = np.sqrt(1.0 - offset ** 2)
    return offset * n + shrink * room * np.sqrt(rng.random()) * _unit(w)


def off_plane(rng, v, normal):
    """Move v by 0.05..0.2 along the normal, towards the parallel plane through 0.

    The in-plane part is unchanged and the normal part shrinks or stays
    below 0.2, so the result stays inside the ball for points made by
    ``plane_point``.
    """
    n = _unit(np.asarray(normal, dtype=float))
    toward = -1.0 if n @ v >= 0 else 1.0
    return v + toward * rng.uniform(0.05, 0.2) * n


def product_state(blochs):
    mat = np.array([[1.0]], dtype=complex)
    for v in blochs:
        mat = np.kron(mat, orc.bloch_state(v))
    return mat


def disk_blochs(rng, p):
    """Per-period Bloch vectors on the martingale plane x_j.v = r - (a+b)/2."""
    out = []
    for x in p["pauli"]:
        x = np.asarray(x)
        out.append(plane_point(rng, x, (p["r"] - (p["a"] + p["b"]) / 2) / np.linalg.norm(x)))
    return out


def random_supermartingale(rng, market):
    """V_t = (base - drop_t) I + gain_t of a random strategy; a supermartingale."""
    d = market.dim
    gains = [np.zeros((d, d), dtype=complex)]
    for t in range(1, market.horizon + 1):
        m = market.factor_dims[t - 1]
        inc = np.zeros((d, d), dtype=complex)
        for _ in range(2):
            coeff = np.kron(
                rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)), np.eye(d // m)
            )
            inc += rng.standard_normal() * (coeff.conj().T @ market.increment(t) @ coeff)
        gains.append(gains[-1] + 0.5 * (inc + inc.conj().T))
    drops = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, size=market.horizon))])
    base = 5.0 + float(np.abs(gains[-1]).max())
    return [(base - drops[t]) * np.eye(d) + gains[t] for t in range(market.horizon + 1)]


def martingale_state(rng, increment):
    """A faithful state with tr(rho dS) = 0, off-diagonal in dS's eigenbasis."""
    lam, vecs = np.linalg.eigh(increment)
    u = rng.uniform(0.5, 1.5, size=len(lam))
    pos, neg = lam > 0, lam < 0
    w = u.copy()
    w[pos] /= float(u[pos] @ lam[pos])
    w[neg] /= float(-(u[neg] @ lam[neg]))
    p = w / w.sum()
    h = _random_hermitian(rng, len(lam))
    np.fill_diagonal(h, 0.0)
    eps = 0.5 * p.min() / max(np.linalg.norm(h, 2), 1e-300)
    core = np.diag(p) + eps * h
    return vecs @ core @ vecs.conj().T


def tilted_state(rho, increment, delta=0.2):
    """Mix rho with the top eigenvector of dS: tr(rho' dS) = delta * lambda_max."""
    _, vecs = np.linalg.eigh(increment)
    top = np.outer(vecs[:, -1], vecs[:, -1].conj())
    return (1.0 - delta) * rho + delta * top


# --- checks shared by the workloads -----------------------------------------


def _problems_by_claim(results, fn):
    out = []
    for name, payload in sorted(results.items()):
        out.extend(f"{name}: {msg}" for msg in fn(name, payload))
    return out


def check_status(res, data, faithful_expected):
    """check-arbitrage report against the spectrum condition and the definitions."""
    want = FAITHFUL if faithful_expected else NO_FAITHFUL
    if res["status"] != want:
        return [f"status {res['status']} but the spectrum condition gives {want}"]
    if faithful_expected:
        return orc.witness_problems(orc.witness_matrix(res["witness"]), data)
    return orc.certificate_problems(orc.decode_matrix(res["certificate"]), data.increment(1))


def collapsed_price_check(prices, with_price_fields):
    """price / interval / replicate reports of attainable claims against a closed form."""

    def one(name, pl):
        want = prices[name]
        out = []
        if "alpha" in pl:
            if not orc.rel_close(pl["alpha"], want, orc.PRICE_RTOL):
                out.append(f"alpha {pl['alpha']!r} vs {want!r}")
            if not pl["attainable"]:
                out.append("claim reported not attainable")
            return out
        for key in ("lower", "upper"):
            if not orc.rel_close(pl[key], want, orc.BARRIER_RTOL):
                out.append(f"{key} {pl[key]!r} vs {want!r}")
        if not pl["attainable"] or pl["open"]:
            out.append("interval not collapsed")
        if with_price_fields:
            for key in ("unique_price", "replication_alpha"):
                if pl[key] is None or not orc.rel_close(pl[key], want, orc.PRICE_RTOL):
                    out.append(f"{key} {pl[key]!r} vs {want!r}")
        return out

    def check(results):
        if set(results) != set(prices):
            return [f"claims {sorted(results)} in the report, {sorted(prices)} in the scenario"]
        return _problems_by_claim(results, one)

    return check


def query_op(qm, label, rho, market, data):
    want = orc.is_martingale(rho, data)

    def check(got):
        return [] if bool(got) == want else [f"is_martingale_state {got} but the definition gives {want}"]

    return Op("query", label, lambda: qm.is_martingale_state(rho, market), check)


def product_query_op(qm, label, spec, blochs, market, data):
    """Build a product martingale state through the library, then query it."""
    want_mat = product_state(blochs)
    want = orc.is_martingale(want_mat, data)

    def call():
        rho = qm.product_martingale_state(spec, blochs)
        return rho.mat, qm.is_martingale_state(rho, market)

    def check(out):
        mat, got = out
        problems = []
        if np.abs(mat - want_mat).max() > 1e-12:
            problems.append("product_martingale_state differs from the tensor product")
        if bool(got) != want:
            problems.append(f"is_martingale_state {got} but the definition gives {want}")
        return problems

    return Op("query", label, call, check)


def decompose_op(qm, label, values_fn, dmarket, data, extra_check=None):
    """optional_decomposition checked by reconstruction and PSD consumption increments."""
    box = {}

    def call():
        box["values"] = values_fn()
        return qm.optional_decomposition(box["values"], dmarket)

    def check(res):
        values = box["values"]
        gains = qm.gain_process(res.strategy, dmarket)
        out = orc.decomposition_problems(values, gains, res.consumption, res.v0, data)
        v0 = float(np.trace(values[0]).real) / data.dim
        if not orc.rel_close(res.v0, v0, orc.PRICE_RTOL):
            out.append(f"v0 {res.v0!r} vs {v0!r}")
        if extra_check is not None:
            out.extend(extra_check(res))
        return out

    return Op("decompose", label, call, check)


# --- nperiod-price ----------------------------------------------------------


def _strikes(rng, p, count):
    n, a, b, s0 = p["n"], p["a"], p["b"], p["s0"]
    nodes = sorted(s0 * (1 + b) ** j * (1 + a) ** (n - j) for j in range(n + 1))
    gaps = [(0.7 * nodes[0], nodes[0])] + list(zip(nodes[:-1], nodes[1:]))
    picks = rng.choice(len(gaps), size=count, replace=False)
    return [float(lo + rng.uniform(0.1, 0.9) * (hi - lo)) for lo, hi in (gaps[i] for i in picks)]


def nperiod_params(rng, n):
    a = float(rng.uniform(-0.3, -0.05))
    b = float(rng.uniform(0.05, 0.35))
    r = float(a + rng.uniform(0.25, 0.75) * (b - a))
    pauli = [[float(x) for x in _unit(rng.standard_normal(3)) * (b - a) / 2] for _ in range(n)]
    return {"n": n, "a": a, "b": b, "r": r, "s0": float(rng.uniform(50.0, 150.0)), "pauli": pauli}


def nperiod_scenario(p, strikes):
    market = {"kind": "nperiod", **p}
    claims = [{"name": f"k{i}", "type": "call", "strike": k} for i, k in enumerate(strikes)]
    return {"market": market, "claims": claims, "solver": {"seed": 0}}


class Workload:
    """A pool of rounds made from a seed, visited in order by the timed loop."""

    def generate(self, seed, workdir):
        raise NotImplementedError

    def round_ops(self, qm, rnd, workdir):
        raise NotImplementedError

    def trace_round(self, qm, pool, workdir):
        """Operations of the traced run: the pool's first round."""
        return self.round_ops(qm, pool[0], workdir)


class NPeriodPrice(Workload):
    """Binomial tensor markets N = 2, 2, 3 through the CLI; N = 4 in the traced run.

    One N = 4 check-arbitrage takes 7-10 s today.  A run holds too few of them
    to time steadily, so it is checked and traced but kept out of the timed
    rounds.
    """

    tag = 1
    sizes = (2, 2, 3)
    big = 4
    pool_size = 3
    strikes_per_market = 2

    def generate(self, seed, workdir):
        rng = _rng(seed, self.tag, 10 ** 6)
        p4 = nperiod_params(rng, self.big)
        path4 = workdir / "np-big.yaml"
        _write_yaml(path4, nperiod_scenario(p4, []))
        self.big_case = (path4, nperiod_data(p4))
        pool = []
        for k in range(self.pool_size):
            rng = _rng(seed, self.tag, k)
            markets = []
            for i, n in enumerate(self.sizes):
                p = nperiod_params(rng, n)
                strikes = _strikes(rng, p, self.strikes_per_market)
                path = workdir / f"np-{k}-{i}.yaml"
                _write_yaml(path, nperiod_scenario(p, strikes))
                data = nperiod_data(p)
                markets.append(
                    {
                        "p": p,
                        "path": path,
                        "data": data,
                        "prices": {
                            f"k{j}": orc.crr_direct_sum(n, p["s0"], s, p["r"], p["a"], p["b"])
                            for j, s in enumerate(strikes)
                        },
                        "on": disk_blochs(rng, p),
                        "values": [random_supermartingale(rng, data)],
                    }
                )
                on = markets[-1]["on"]
                j = int(rng.integers(n))
                off = list(on)
                off[j] = off_plane(rng, on[j], p["pauli"][j])
                markets[-1]["off"] = product_state(off)
                markets[-1]["values"].append(random_supermartingale(rng, data))
            pool.append({"markets": markets})
        return pool

    def round_ops(self, qm, rnd, workdir):
        out = workdir / "report.json"
        ops = []
        for mk in rnd["markets"]:
            p, data, path = mk["p"], mk["data"], mk["path"]
            spec = qm.NPeriodSpec(p["n"], p["a"], p["b"], p["r"], p["s0"], 1.0, p["pauli"])
            market = qm.build_n_period(spec)
            dmarket = qm.discount(market)
            tag = f"N{p['n']}"
            ops += [
                cli_op(qm, "check", tag, "check-arbitrage", path, out,
                       lambda res, data=data: check_status(res, data, True)),
                cli_op(qm, "replicate", tag, "replicate", path, out,
                       collapsed_price_check(mk["prices"], False)),
                cli_op(qm, "price", tag, "price", path, out,
                       collapsed_price_check(mk["prices"], True)),
                cli_op(qm, "interval", tag, "interval", path, out,
                       collapsed_price_check(mk["prices"], False)),
                product_query_op(qm, tag, spec, mk["on"], market, data),
                query_op(qm, tag, mk["off"], market, data),
            ]
            ops += [decompose_op(qm, tag, lambda v=v: v, dmarket, data) for v in mk["values"]]
        return ops

    def trace_round(self, qm, pool, workdir):
        path4, data4 = self.big_case
        big = cli_op(qm, "check", f"N{self.big}", "check-arbitrage", path4, workdir / "report.json",
                     lambda res: check_status(res, data4, True))
        return self.round_ops(qm, pool[0], workdir) + [big]


# --- incomplete-bounds ------------------------------------------------------


def _interior_rate(rng, lo, hi):
    return float(lo + rng.uniform(0.2, 0.8) * (hi - lo))


def explicit_scenario(s0, s1, r, claim):
    d = s1.shape[0]
    market = {
        "kind": "explicit",
        "dim": d,
        "bank": [1.0, 1.0 + r],
        "filtration": ["trivial", "full"],
        "assets": [[orc.encode_matrix(s0 * np.eye(d)), orc.encode_matrix(s1)]],
    }
    return {"market": market, "claims": [claim], "solver": {"seed": 0}}


class IncompleteBounds(Workload):
    """Single-period explicit markets with A_0 = CI: diagonal d = 3..8, full d = 4..6."""

    tag = 2
    diag_dims = (3, 4, 5, 6, 7, 8)
    full_dims = (4, 4, 5, 5, 6, 6)
    pool_size = 5

    @staticmethod
    def _diag(rng, d):
        rates = np.sort(rng.uniform(-0.3, 0.4, size=d))
        r = _interior_rate(rng, rates[0], rates[-1])
        s0 = float(rng.uniform(50.0, 150.0))
        s1 = s0 * np.diag(1.0 + rates).astype(complex)
        payoff = np.diag(rng.uniform(0.0, 0.2 * s0, size=d)).astype(complex)
        claim_entry = {"name": "payoff", "type": "matrix", "entries": orc.encode_matrix(payoff)}
        return s0, s1, r, claim_entry, payoff / (1 + r)

    @staticmethod
    def _full(rng, d):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        rates = np.sort(rng.uniform(-0.3, 0.4, size=d))
        r = _interior_rate(rng, rates[0], rates[-1])
        s0 = float(rng.uniform(50.0, 150.0))
        s1 = s0 * (q * (1.0 + rates)) @ q.conj().T
        s1 = 0.5 * (s1 + s1.conj().T)
        h = 0.1 * s0 * _random_hermitian(rng, d)
        claim_entry = {"name": "matrix", "type": "matrix", "entries": orc.encode_matrix(h)}
        return s0, s1, r, claim_entry, h / (1 + r)

    def generate(self, seed, workdir):
        pool = []
        for k in range(self.pool_size):
            rng = _rng(seed, self.tag, k)
            markets = []
            plan = [("diag", d, self._diag) for d in self.diag_dims]
            plan += [("full", d, self._full) for d in self.full_dims]
            for i, (kind, d, make) in enumerate(plan):
                s0, s1, r, entry, claim = make(rng, d)
                path = workdir / f"ib-{k}-{i}.yaml"
                _write_yaml(path, explicit_scenario(s0, s1, r, entry))
                data = single_period_data(s0, s1, r)
                rho = martingale_state(rng, data.increment(1))
                mk = {
                    "kind": kind, "d": d, "path": path, "data": data, "s0": s0, "s1": s1, "r": r,
                    "claim": claim, "name": entry["name"], "on": rho,
                    "off": tilted_state(rho, data.increment(1)),
                    "alpha": orc.affine_replication(claim, data.increment(1)),
                }
                if kind == "diag":
                    mk["lp"] = orc.lp_bounds(np.diag(data.x[1]).real, s0, np.diag(claim).real)
                markets.append(mk)
            pool.append({"markets": markets})
        return pool

    def _interval_check(self, mk, box, with_price_fields):
        claim = mk["claim"]
        scale = orc.scale_of(np.linalg.norm(claim, 2))

        def check(results):
            pl = results[mk["name"]]
            out = []
            lo, hi = pl["lower"], pl["upper"]
            if pl["attainable"] or not pl["open"]:
                out.append("non-attainable claim reported attainable")
            if mk["kind"] == "diag":
                want_lo, want_hi = mk["lp"]
                if abs(lo - want_lo) > orc.LP_ATOL * orc.scale_of(want_lo):
                    out.append(f"lower {lo!r} vs LP {want_lo!r}")
                if abs(hi - want_hi) > orc.LP_ATOL * orc.scale_of(want_hi):
                    out.append(f"upper {hi!r} vs LP {want_hi!r}")
            else:
                spec = np.linalg.eigvalsh(claim)
                if lo < spec[0] - 1e-9 * scale or hi > spec[-1] + 1e-9 * scale:
                    out.append(f"[{lo!r}, {hi!r}] outside the spectrum [{spec[0]!r}, {spec[-1]!r}]")
            inside = float(np.trace(mk["on"] @ claim).real)
            tol = orc.BARRIER_RTOL * scale
            if not lo - tol <= inside <= hi + tol:
                out.append(f"martingale-state value {inside!r} outside [{lo!r}, {hi!r}]")
            if with_price_fields:
                if pl["unique_price"] is not None:
                    out.append("unique price reported for a non-attainable claim")
                if not orc.rel_close(pl["replication_alpha"], mk["alpha"][0], orc.PRICE_RTOL):
                    out.append(f"replication alpha {pl['replication_alpha']!r} vs {mk['alpha'][0]!r}")
            else:
                box["upper"] = hi
            return out

        return check

    def _replicate_check(self, mk):
        alpha, residual = mk["alpha"]

        def check(results):
            pl = results[mk["name"]]
            out = []
            if not orc.rel_close(pl["alpha"], alpha, orc.PRICE_RTOL):
                out.append(f"alpha {pl['alpha']!r} vs least squares {alpha!r}")
            if abs(pl["residual"] - residual) > orc.PRICE_RTOL * orc.scale_of(residual):
                out.append(f"residual {pl['residual']!r} vs {residual!r}")
            if pl["attainable"]:
                out.append("non-attainable claim reported attainable")
            return out

        return check

    def round_ops(self, qm, rnd, workdir):
        out = workdir / "report.json"
        ops = []
        for mk in rnd["markets"]:
            d, data, path = mk["d"], mk["data"], mk["path"]
            algebras = [qm.OperatorAlgebra.trivial(d), qm.OperatorAlgebra.full(d)]
            market = qm.MarketModel(
                qm.Filtration(algebras), [1.0, 1.0 + mk["r"]],
                [[mk["s0"] * np.eye(d, dtype=complex), mk["s1"]]],
            )
            dmarket = qm.discount(market)
            tag = f"{mk['kind']}{d}"
            box = {}
            lam = np.linalg.eigvalsh(data.increment(1))
            faithful = lam[0] < 0.0 < lam[-1]

            def duality(res, mk=mk):
                value = float(np.trace(mk["on"] @ mk["claim"]).real)
                if value > res.v0 + orc.BARRIER_RTOL * orc.scale_of(res.v0):
                    return [f"martingale-state value {value!r} above the super-hedge {res.v0!r}"]
                return []

            ops += [
                cli_op(qm, "check", tag, "check-arbitrage", path, out,
                       lambda res, data=data, f=faithful: check_status(res, data, f)),
                cli_op(qm, "interval", tag, "interval", path, out, self._interval_check(mk, box, False)),
                cli_op(qm, "replicate", tag, "replicate", path, out, self._replicate_check(mk)),
                query_op(qm, tag, mk["on"], market, data),
                query_op(qm, tag, mk["off"], market, data),
                cli_op(qm, "price", tag, "price", path, out, self._interval_check(mk, box, True)),
            ]
            if mk["kind"] == "full":
                # on random diagonal payoffs the super-hedge at the upper price
                # fails for a few inputs (see CHANGES.md), so only here
                ops.append(decompose_op(
                    qm, tag,
                    lambda box=box, mk=mk, d=d: [box["upper"] * np.eye(d), mk["claim"]],
                    dmarket, data, duality,
                ))
        return ops


# --- state-queries ----------------------------------------------------------


def qubit_params(rng, where):
    x0 = float(rng.uniform(-0.05, 0.15))
    x = _unit(rng.standard_normal(3)) * rng.uniform(0.05, 0.3)
    a, b = x0 - np.linalg.norm(x), x0 + np.linalg.norm(x)
    if where == "inside":
        r = a + rng.uniform(0.15, 0.85) * (b - a)
    elif where == "below":
        r = a - rng.uniform(0.01, 0.1)
    else:
        r = b + rng.uniform(0.01, 0.1)
    return {"x0": x0, "x": [float(v) for v in x], "r": float(r), "s0": float(rng.uniform(50.0, 150.0))}


def qubit_scenario(p, strikes):
    x1, x2, x3 = p["x"]
    market = {"kind": "qubit", "x0": p["x0"], "x1": x1, "x2": x2, "x3": x3, "r": p["r"], "s0": p["s0"]}
    claims = [{"name": f"k{i}", "type": "call", "strike": k} for i, k in enumerate(strikes)]
    return {"market": market, "claims": claims, "solver": {"seed": 0}}


class StateQueries(Workload):
    """Many short library calls: qubit no-arbitrage grid, disk sampling, state queries."""

    tag = 3
    grid = ("inside",) * 4 + ("below",) * 2 + ("above",) * 2
    disk_markets = 2
    disk_samples = 6
    product_queries = 4  # on-plane and off-plane each, per product market
    pool_size = 8

    def generate(self, seed, workdir):
        fixed = _rng(seed, self.tag, 10 ** 6)
        products = []
        for n in (2, 3):
            p = nperiod_params(fixed, n)
            products.append({"p": p, "data": nperiod_data(p)})
        pool = []
        for k in range(self.pool_size):
            rng = _rng(seed, self.tag, k)
            grid = []
            for where in self.grid:
                p = qubit_params(rng, where)
                s1 = qubit_s1(p)
                grid.append({"p": p, "where": where, "s1": s1,
                             "data": single_period_data(p["s0"], s1, p["r"])})
            disks = []
            for i in range(self.disk_markets):
                p = grid[i]["p"]
                x = np.asarray(p["x"])
                offset = (p["r"] - p["x0"]) / np.linalg.norm(x)
                off = [off_plane(rng, plane_point(rng, x, offset), x) for _ in range(self.disk_samples)]
                disks.append({"seed": int(rng.integers(2 ** 31)), "off": [orc.bloch_state(v) for v in off]})
            prods = []
            for mk in products:
                on = [disk_blochs(rng, mk["p"]) for _ in range(self.product_queries)]
                off = []
                for blochs in on:
                    j = int(rng.integers(len(blochs)))
                    moved = list(blochs)
                    moved[j] = off_plane(rng, blochs[j], mk["p"]["pauli"][j])
                    off.append(product_state(moved))
                prods.append({"on": on, "off": off})
            claims = []
            for i, g in enumerate(grid):
                if g["where"] != "inside":
                    continue
                p = g["p"]
                a, b = p["x0"] - np.linalg.norm(p["x"]), p["x0"] + np.linalg.norm(p["x"])
                strikes = _strikes(rng, {"n": 1, "a": a, "b": b, "s0": p["s0"]}, 2)
                path = workdir / f"sq-{k}-{i}.yaml"
                _write_yaml(path, qubit_scenario(p, strikes))
                prices = {f"k{j}": orc.crr_direct_sum(1, p["s0"], s, p["r"], a, b)
                          for j, s in enumerate(strikes)}
                claims.append({"grid": i, "path": path, "prices": prices, "strike": strikes[0]})
            pool.append({"grid": grid, "disks": disks, "prods": prods, "claims": claims,
                         "products": products})
        return pool

    def _sample_op(self, qm, spec, p, seed, box):
        x = np.asarray(p["x"])
        radius = orc.disk_radius(p["x0"], x, p["r"])
        normal, offset = _unit(x), (p["r"] - p["x0"]) / np.linalg.norm(x)

        def call():
            disk = qm.risk_neutral_disk(spec)
            states = qm.sample_disk_states(disk, self.disk_samples, seed)
            box["states"] = [s.mat for s in states]
            return disk, box["states"]

        def check(out):
            disk, states = out
            problems = []
            if abs(disk.radius - radius) > orc.RADIUS_TOL:
                problems.append(f"disk radius {disk.radius!r} vs plane cut {radius!r}")
            for mat in states:
                v = np.array([float(np.trace(mat @ s).real) for s in orc.PAULI])
                if abs(normal @ v - offset) > orc.PLANE_TOL:
                    problems.append(f"sample off the plane by {abs(normal @ v - offset):.3e}")
                if np.linalg.norm(v - offset * normal) >= radius:
                    problems.append("sample outside the disk")
                if not np.linalg.eigvalsh(mat)[0] > 0.0:
                    problems.append("sample not faithful")
            return problems

        return Op("sample", "disk", call, check)

    def _sampled_query(self, qm, box, i, market, data):
        def call():
            return qm.is_martingale_state(box["states"][i], market)

        def check(got):
            want = orc.is_martingale(box["states"][i], data)
            return [] if bool(got) == want else [f"is_martingale_state {got} but the definition gives {want}"]

        return Op("query", "disk", call, check)

    def round_ops(self, qm, rnd, workdir):
        out = workdir / "report.json"
        ops = []
        markets = []
        for g in rnd["grid"]:
            p = g["p"]
            spec = qm.QubitMarketSpec(p["x0"], *p["x"], p["r"], p["s0"])
            market = qm.build_single_period(spec)
            markets.append((spec, market))
            faithful = g["where"] == "inside"

            def check(res, data=g["data"], faithful=faithful):
                if faithful:
                    if res.status != FAITHFUL:
                        return [f"status {res.status} inside the spectrum"]
                    return orc.witness_problems(res.witness_state.mat, data)
                if res.status != NO_FAITHFUL:
                    return [f"status {res.status} outside the spectrum"]
                return orc.certificate_problems(res.arbitrage_claim, data.increment(1))

            ops.append(Op("check", g["where"], lambda m=market: qm.check_no_arbitrage(m), check))
        for i, disk in enumerate(rnd["disks"]):
            spec, market = markets[i]
            data = rnd["grid"][i]["data"]
            box = {}
            ops.append(self._sample_op(qm, spec, rnd["grid"][i]["p"], disk["seed"], box))
            for j in range(self.disk_samples):
                ops.append(self._sampled_query(qm, box, j, market, data))
                ops.append(query_op(qm, "disk-off", disk["off"][j], market, data))
        for mk, prod in zip(rnd["products"], rnd["prods"]):
            p = mk["p"]
            spec = qm.NPeriodSpec(p["n"], p["a"], p["b"], p["r"], p["s0"], 1.0, p["pauli"])
            market = qm.build_n_period(spec)
            for on, off in zip(prod["on"], prod["off"]):
                ops.append(product_query_op(qm, f"N{p['n']}", spec, on, market, mk["data"]))
                ops.append(query_op(qm, f"N{p['n']}-off", off, market, mk["data"]))
        first = rnd["claims"][0]
        ops += [
            cli_op(qm, "price", "qubit", "price", first["path"], out,
                   collapsed_price_check(first["prices"], True)),
            cli_op(qm, "replicate", "qubit", "replicate", first["path"], out,
                   collapsed_price_check(first["prices"], False)),
        ]
        for claim in rnd["claims"]:
            g = rnd["grid"][claim["grid"]]
            dmarket = qm.discount(markets[claim["grid"]][1])
            box = {}

            def interval_check(results, box=box, prices=claim["prices"]):
                box["upper"] = results["k0"]["upper"]
                return collapsed_price_check(prices, False)(results)

            payoff = orc.call_payoff(g["s1"], claim["strike"]) / (1 + g["p"]["r"])
            ops += [
                cli_op(qm, "interval", "qubit", "interval", claim["path"], out, interval_check),
                decompose_op(qm, "qubit", lambda box=box, payoff=payoff: [box["upper"] * np.eye(2), payoff],
                             dmarket, g["data"]),
            ]
        return ops


WORKLOADS = {
    "nperiod-price": NPeriodPrice,
    "incomplete-bounds": IncompleteBounds,
    "state-queries": StateQueries,
}


def warmup(qm, workdir):
    """One pass over each code path on the paper's running example; not measured."""
    path = workdir / "warmup.yaml"
    p = {"x0": 0.05, "x": [0.15, 0.0, 0.0], "r": 0.05, "s0": 100.0}
    _write_yaml(path, qubit_scenario(p, [100.0]))
    out = workdir / "warmup.json"
    for command in ("check-arbitrage", "replicate", "price", "interval"):
        qm.cli.main([command, "--scenario", str(path), "--out", str(out)])
    spec = qm.QubitMarketSpec(0.05, 0.15, 0.0, 0.0, 0.05, 100.0)
    market = qm.build_single_period(spec)
    qm.is_martingale_state(np.eye(2) / 2, market)
    qm.sample_disk_states(qm.risk_neutral_disk(spec), 2, 0)
    price = 200.0 / 21.0
    payoff = orc.call_payoff(qubit_s1(p), 100.0) / 1.05
    qm.optional_decomposition([price * np.eye(2), payoff], qm.discount(market))
    nspec = qm.NPeriodSpec(2, -0.1, 0.2, 0.05, 100.0)
    qm.is_martingale_state(np.eye(4) / 4, qm.build_n_period(nspec))
