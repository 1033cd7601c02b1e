"""Scenario-file driver.

Usage: ``qmarket <command> --scenario <path> [--seed N] [--out <path>]`` with
commands check-arbitrage, price, interval, replicate, decompose, disk, crr.

Scenarios are YAML trees (see README for the grammar); reports are JSON with
sorted keys, byte-stable for a fixed scenario and seed.  Matrices are encoded
row-major as [re, im] pairs in both directions.  The ``solver`` mapping takes
only ``seed``; any other key is rejected.  check-arbitrage exits 0 with a
witness or an arbitrage certificate (band-edge markets get a certificate)
and 3 when neither is found; it reports the certified interval [nu, c]
around lambda* (lambda_star is c), the witness's largest constraint
residual, and the Newton steps taken.  price and interval report each
end's certified gap, 0 for an attainable claim.
"""

import argparse
import json
import sys

import numpy as np
import yaml

from . import __version__
from .arbitrage import INDETERMINATE, check_no_arbitrage
from .binomial import (
    NPeriodSpec,
    QubitMarketSpec,
    build_n_period,
    build_single_period,
    classical_tree_price,
    crr_price,
    risk_neutral_disk,
    sample_disk_states,
)
from .errors import InternalConsistencyError, QMarketError, SolverError, ValidationError
from .market import Filtration, MarketModel, OperatorAlgebra, discount, gain_process
from .operators import apply_function
from .pricing import arbitrage_free_prices, optional_decomposition, replicate

REPORT_SCHEMA = "qmarket.report/1"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INDETERMINATE = 3
EXIT_INCONSISTENT = 4

COMMANDS = ("check-arbitrage", "price", "interval", "replicate", "decompose", "disk", "crr")

# libyaml's loader when PyYAML was built with it; both give the same tree
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _decode_matrix(rows, where):
    try:
        mat = np.array(
            [[complex(cell[0], cell[1]) for cell in row] for row in rows],
            dtype=complex,
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"{where}: matrix entries must be [re, im] pairs") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"{where}: matrix must be square")
    return mat


def _encode_matrix(mat):
    return [[[float(c.real), float(c.imag)] for c in row] for row in np.asarray(mat, dtype=complex)]


def _require(mapping, key, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ValidationError(f"missing field {where}.{key}")
    return mapping[key]


def _typed(value, kind, where):
    """``value`` as ``kind`` (float, int or list); a ValidationError naming ``where`` if not.

    An int field refuses a non-integral number rather than truncate it.
    """
    truncates = kind is int and isinstance(value, float) and not value.is_integer()
    try:
        if not truncates and (kind is not list or isinstance(value, list)):
            return kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{where} must be {kind.__name__}, got {value!r}")


def _field(mapping, key, where, kind=float, default=None):
    """``mapping[key]`` read as ``kind``, required when no default is given."""
    value = _require(mapping, key, where) if default is None else mapping.get(key, default)
    return _typed(value, kind, f"{where}.{key}")


def parse_scenario(text):
    """Parse and validate a YAML scenario into a canonical dict."""
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ValidationError(f"scenario syntax error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("scenario must be a mapping")
    market = _require(raw, "market", "scenario")
    kind = _require(market, "kind", "market")
    if kind not in ("qubit", "nperiod", "explicit"):
        raise ValidationError(f"market.kind must be qubit|nperiod|explicit, got {kind!r}")

    scenario = {"market": dict(market), "claims": [], "solver": {}}
    if kind == "explicit":
        _build_explicit_market(market)  # validates
    else:
        _market_spec(market)  # validates

    names = set()
    for i, claim in enumerate(_field(raw, "claims", "scenario", list, [])):
        where = f"claims[{i}]"
        name = _require(claim, "name", where)
        if not isinstance(name, str):
            raise ValidationError(f"{where}.name must be a string, got {name!r}")
        if name in names:
            raise ValidationError(f"{where}.name {name!r} repeats an earlier claim's name")
        names.add(name)
        ctype = _require(claim, "type", where)
        if ctype == "call":
            entry = {"name": name, "type": "call", "strike": _field(claim, "strike", where)}
        elif ctype == "matrix":
            mat = _decode_matrix(_require(claim, "entries", where), where)
            if np.abs(mat - mat.conj().T).max() > 1e-12 * max(1.0, np.abs(mat).max()):
                raise ValidationError(f"{where}.entries: matrix is not Hermitian")
            entry = {"name": name, "type": "matrix", "entries": _encode_matrix(mat)}
        elif ctype == "spectral":
            fn = _require(claim, "fn", where)
            if fn not in ("call", "put"):
                raise ValidationError(f"{where}.fn must be call|put")
            entry = {
                "name": name,
                "type": "spectral",
                "fn": fn,
                "strike": _field(claim, "strike", where),
            }
        else:
            raise ValidationError(f"{where}.type must be call|matrix|spectral, got {ctype!r}")
        scenario["claims"].append(entry)

    solver = raw.get("solver") or {}
    if not isinstance(solver, dict):
        raise ValidationError(f"solver must be a mapping, got {solver!r}")
    for key in solver:
        if key != "seed":
            raise ValidationError(f"solver.{key} is not a solver field; solver takes only seed")
    scenario["solver"] = {"seed": _field(solver, "seed", "solver", int, 0)}
    return scenario


def _market_spec(market):
    """The QubitMarketSpec or NPeriodSpec of a qubit or nperiod market mapping."""

    def num(key, default=None):
        return _field(market, key, "market", float, default)

    if market["kind"] == "qubit":
        return QubitMarketSpec(
            num("x0"), num("x1"), num("x2", 0.0), num("x3", 0.0),
            num("r"), num("s0"), num("b0", 1.0),
        )
    n = _field(market, "n", "market", int)
    if not 1 <= n <= 6:
        raise ValidationError(f"market.n = {n} outside 1..6 (dimension cap 2^N <= 64)")
    pauli = market.get("pauli")
    if pauli is not None:
        pauli = [
            [_typed(x, float, f"market.pauli[{j}]") for x in _typed(p, list, f"market.pauli[{j}]")]
            for j, p in enumerate(_typed(pauli, list, "market.pauli"))
        ]
    return NPeriodSpec(n, num("a"), num("b"), num("r"), num("s0"), num("b0", 1.0), pauli)


def _build_explicit_market(market):
    dim = _field(market, "dim", "market", int)
    bank = [
        _typed(b, float, f"market.bank[{t}]")
        for t, b in enumerate(_field(market, "bank", "market", list))
    ]
    algebras = []
    for t, spec in enumerate(_field(market, "filtration", "market", list)):
        where = f"market.filtration[{t}]"
        if spec == "trivial":
            algebras.append(OperatorAlgebra.trivial(dim))
        elif spec == "full":
            algebras.append(OperatorAlgebra.full(dim))
        elif isinstance(spec, dict) and "factor" in spec:
            algebras.append(OperatorAlgebra.tensor_factor(_field(spec, "factor", where, int), dim))
        elif isinstance(spec, dict) and "basis" in spec:
            algebras.append(
                OperatorAlgebra.from_basis(
                    [_decode_matrix(m, where) for m in _field(spec, "basis", where, list)]
                )
            )
        else:
            raise ValidationError(f"{where}: expected trivial|full|{{factor}}|{{basis}}")
    filtration = Filtration(algebras)
    assets = []
    for j, proc in enumerate(_field(market, "assets", "market", list)):
        where = f"market.assets[{j}]"
        assets.append(
            [_decode_matrix(m, f"{where}[{t}]") for t, m in enumerate(_typed(proc, list, where))]
        )
    return MarketModel(filtration, bank, assets)


def build_market(scenario):
    market = scenario["market"]
    if market["kind"] == "explicit":
        return _build_explicit_market(market), None
    spec = _market_spec(market)
    build = build_single_period if market["kind"] == "qubit" else build_n_period
    return build(spec), spec


def claim_payoff(entry, market):
    """Terminal payoff operator of a claim, in undiscounted currency."""
    if entry["type"] == "matrix":
        return _decode_matrix(entry["entries"], "claim")
    s_term, k = market.assets[0][market.horizon], entry["strike"]
    if entry.get("fn") == "put":
        return apply_function(s_term, lambda s: max(k - s, 0.0))
    return apply_function(s_term, lambda s: max(s - k, 0.0))


def _witness_payload(state):
    if state is None:
        return None
    if state.dim == 2:
        return {"bloch": [float(v) for v in state.bloch_vector()]}
    return {"matrix": _encode_matrix(state.mat)}


def _decompose_values(interval, payoff, market):
    """The upper super-hedge's value alpha I + (H # S)_t for t < T, then the payoff.

    It is a supermartingale ending at the payoff, for the decompose command;
    for an attainable claim the super-hedge is the replication.
    """
    hedge = interval.hedge
    eye = np.eye(market.dim, dtype=complex)
    return [hedge.alpha * eye + g for g in gain_process(hedge.strategy, market)[:-1]] + [payoff]


def run(command, scenario, samples=100):
    """Dispatch a command against a parsed scenario; returns (report, exit_code)."""
    seed = scenario["solver"]["seed"]
    market, spec = build_market(scenario)
    results = {}
    diagnostics = {}
    exit_code = EXIT_OK

    if command == "check-arbitrage":
        res = check_no_arbitrage(market)
        results = {
            "status": res.status,
            "lambda_star": res.lambda_star,
            "lambda_interval": res.lambda_interval,
            "witness_residual": res.witness_residual,
            "witness": _witness_payload(res.witness_state),
            "certificate": _encode_matrix(res.arbitrage_claim)
            if res.arbitrage_claim is not None
            else None,
            "note": res.note,
        }
        diagnostics["iterations"] = res.iterations
        if res.status == INDETERMINATE:
            exit_code = EXIT_INDETERMINATE
    elif command in ("price", "interval", "replicate", "decompose"):
        dmkt = discount(market)
        for entry in scenario["claims"]:
            payoff = claim_payoff(entry, market) / market.bank[market.horizon]
            if command == "replicate":
                rep = replicate(payoff, dmkt)
                results[entry["name"]] = {
                    "alpha": rep.alpha,
                    "residual": rep.residual,
                    "attainable": rep.attainable,
                    "strategy_terms": sum(len(v) for v in rep.strategy.terms.values()),
                }
            elif command == "decompose":
                values = _decompose_values(arbitrage_free_prices(payoff, dmkt), payoff, dmkt)
                dec = optional_decomposition(values, dmkt)
                recon = (
                    dec.v0 * np.eye(dmkt.dim)
                    + gain_process(dec.strategy, dmkt)[-1]
                    - dec.consumption[-1]
                )
                results[entry["name"]] = {
                    "v0": dec.v0,
                    "consumption_norms": [
                        float(np.linalg.norm(c)) for c in dec.consumption
                    ],
                    "reconstruction_residual": float(np.linalg.norm(recon - values[-1])),
                    "strategy_terms": sum(len(v) for v in dec.strategy.terms.values()),
                }
            else:
                iv = arbitrage_free_prices(payoff, dmkt)
                payload = {
                    "lower": iv.lower,
                    "upper": iv.upper,
                    "attainable": iv.attainable,
                    "open": not iv.attainable,
                    "lower_gap": iv.gaps[0],
                    "upper_gap": iv.gaps[1],
                }
                if command == "price":
                    payload["unique_price"] = iv.unique_price
                    payload["replication_alpha"] = iv.replication.alpha
                results[entry["name"]] = payload
    elif command == "disk":
        if scenario["market"]["kind"] != "qubit":
            raise ValidationError("disk command requires a qubit market scenario")
        disk = risk_neutral_disk(spec)
        states = sample_disk_states(disk, samples, seed)
        results = {
            "normal": [float(v) for v in disk.normal],
            "offset": disk.offset,
            "radius": disk.radius,
            "samples": [[float(v) for v in s.bloch_vector()] for s in states],
        }
    elif command == "crr":
        if scenario["market"]["kind"] != "nperiod":
            raise ValidationError("crr command requires an nperiod market scenario")
        for entry in scenario["claims"]:
            if entry["type"] not in ("call", "spectral"):
                raise ValidationError("crr command prices strike-based calls only")
            k = entry["strike"]
            value = crr_price(spec.n_periods, spec.s0, k, spec.r, spec.a, spec.b)
            oracle = classical_tree_price(spec.n_periods, spec.s0, k, spec.r, spec.a, spec.b)
            results[entry["name"]] = {
                "crr": value,
                "tree_oracle": oracle,
                "difference": value - oracle,
            }
    else:
        raise ValidationError(f"unknown command {command!r}")

    report = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "command": command,
        "seed": seed,
        "scenario": scenario,
        "results": results,
        "diagnostics": diagnostics,
    }
    return report, exit_code


def main(argv=None):
    parser = argparse.ArgumentParser(prog="qmarket", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", required=True, help="path to a YAML scenario file")
    parser.add_argument("--seed", type=int, default=None, help="override scenario seed")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument("--samples", type=int, default=100, help="disk sample count")
    args = parser.parse_args(argv)

    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            scenario = parse_scenario(fh.read())
        if args.seed is not None:
            scenario["solver"]["seed"] = args.seed
        report, code = run(args.command, scenario, samples=args.samples)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (SolverError, QMarketError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE

    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
