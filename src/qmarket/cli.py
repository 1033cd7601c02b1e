"""Scenario-file driver.

Usage: ``qmarket <command> --scenario <path> [--seed N] [--out <path>]
[--samples N]`` with commands check-arbitrage, price, interval, replicate,
decompose, disk, crr; disk draws 1..MAX_DISK_SAMPLES samples.

Scenarios are YAML trees (see README for the grammar); reports are JSON with sorted
keys, byte-stable for a fixed scenario, seed and BLAS thread count (a Newton-decided
result depends on the thread count).  Matrices are row-major [re, im] pairs in both
directions.  Each mapping is read through ``FIELDS``, which rejects an unknown key, a
missing field, a wrong type or a non-finite number by its ``<where>.<key>``.
check-arbitrage exits 0 with a witness or an arbitrage certificate (band-edge markets
get a certificate) and 3 when neither is found; it reports the certified interval
[nu, c] around lambda* (lambda_star is c), the witness's largest residual over the
unit-norm period rows of K, and the Newton steps taken.  price and interval report each
end's certified gap, 0 for an attainable claim, and its super-hedge steps in
``diagnostics.newton_steps``: Newton steps, or eigenvalue evaluations where
K has one element.
"""

import argparse
import json
import math
import re
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
    sample_disk_points,
)
from .errors import InternalConsistencyError, QMarketError, SolverError, ValidationError
from .market import Filtration, MarketModel, OperatorAlgebra, discount, gain_process
from .operators import apply_function, as_hermitian
from .pricing import optional_decomposition, price_bounds, replicate

REPORT_SCHEMA = "qmarket.report/1"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INDETERMINATE = 3
EXIT_INCONSISTENT = 4

COMMANDS = ("check-arbitrage", "price", "interval", "replicate", "decompose", "disk", "crr")
# the cap bounds the report: 1e5 samples are about 10 MB of JSON
MAX_DISK_SAMPLES = 100_000

_FLOAT_TAG = "tag:yaml.org,2002:float"


def _float_of(node):
    """The float of a float-tagged scalar node that ``float()`` reads, else None."""
    if node.tag == _FLOAT_TAG and isinstance(node, yaml.ScalarNode):
        try:
            return float(node.value)
        except ValueError:
            pass
    return None


class ScenarioLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """libyaml's loader when PyYAML was built with it (both give the same tree).

    It builds str and float scalars, and sequences of floats (a matrix entry's
    [re, im] pair), without SafeConstructor's per-node machinery; a float
    ``float()`` cannot read (.inf, 1:30.5, 1__0.5) and every other node go
    through SafeConstructor.  A float sequence is recorded, so aliases share it.
    """

    def construct_object(self, node, deep=False):
        if node.tag == "tag:yaml.org,2002:str" and isinstance(node, yaml.ScalarNode):
            return node.value
        value = _float_of(node)
        if value is not None:
            return value
        if (node.tag == "tag:yaml.org,2002:seq" and isinstance(node, yaml.SequenceNode)
                and node not in self.constructed_objects):
            row = [_float_of(item) for item in node.value]
            if None not in row:
                self.constructed_objects[node] = row
                return row
        try:
            return super().construct_object(node, deep)
        except (LookupError, ValueError, AttributeError) as exc:  # a scalar such as !!int ''
            raise yaml.MarkedYAMLError(problem=f"cannot read {node.value!r} as {node.tag}",
                                       problem_mark=node.start_mark) from exc


# YAML 1.2 floats such as 5e-2 and 1e-6 read as floats too, which YAML 1.1 reads as strings
ScenarioLoader.add_implicit_resolver(
    _FLOAT_TAG,
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"),
)
_YAML_LOADER = ScenarioLoader


def _decode_matrix(rows, where):
    try:
        mat = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: matrix entries must be [re, im] pairs") from exc
    except OverflowError as exc:  # every pair before the first overflow read as two numbers
        i, j = next((i, j) for i, row in enumerate(rows) for j, pair in enumerate(row)
                    if max(map(abs, pair)) > sys.float_info.max)
        raise ValidationError(f"{where}: matrix entry ({i}, {j}) is too large for a float") from exc
    if any(isinstance(x, bool) for row in rows for pair in row for x in pair):
        raise ValidationError(f"{where}: matrix entries must be numbers, not booleans")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"{where}: matrix must be square")
    if not np.isfinite(mat).all():
        raise ValidationError(f"{where}: matrix entries must be finite")
    return mat


def _encode_matrix(mat):
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], -1).tolist()


def _algebra(entry, where):
    """A filtration entry: trivial, full, or a {factor} or {basis} mapping read through FIELDS."""
    if entry in ("trivial", "full"):
        return entry
    forms = FIELDS["filtration"]
    form = next((key for key in forms if key in entry), None) if isinstance(entry, dict) else None
    if form is None:
        raise ValidationError(f"{where}: expected trivial|full|{{factor}}|{{basis}}, got {entry!r}")
    return _read(entry, where, forms[form])


# key -> (type,) for a required field, (type, default) otherwise, per mapping (markets by
# kind, claims by type).  A type is float (finite), int, str, list, dict, a tuple of the
# allowed values, [type] for a list of that type, or a reader called as f(value, where).
FIELDS = {
    "scenario": {"market": (dict,), "claims": (list, ()), "solver": (dict, None)},
    "market": {
        "qubit": {"x0": (float,), "x1": (float,), "x2": (float, 0.0), "x3": (float, 0.0),
                  "r": (float,), "s0": (float,), "b0": (float, 1.0)},
        "nperiod": {"n": (int,), "a": (float,), "b": (float,), "r": (float,), "s0": (float,),
                    "b0": (float, 1.0), "pauli": ([[float]], None)},
        "explicit": {"dim": (int,), "bank": ([float],), "filtration": ([_algebra],),
                     "assets": ([[_decode_matrix]],)},
    },
    "claim": {
        "call": {"name": (str,), "strike": (float,)},
        "matrix": {"name": (str,), "entries": (_decode_matrix,)},
        "spectral": {"name": (str,), "fn": (("call", "put"),), "strike": (float,)},
    },
    "solver": {"seed": (int, 0)},
    "filtration": {"factor": {"factor": (int,)}, "basis": {"basis": ([_decode_matrix],)}},
}


def _typed(value, kind, where):
    """``value`` read as ``kind``, a type of FIELDS; a number is checked, never converted.

    A float takes an int or a finite float, an int only an int; neither takes a bool.
    """
    if isinstance(kind, list):
        items = _typed(value, list, where)
        return [_typed(v, kind[0], f"{where}[{i}]") for i, v in enumerate(items)]
    if isinstance(kind, tuple):
        if value in kind:
            return value
        raise ValidationError(f"{where} must be {'|'.join(kind)}, got {value!r}")
    if not isinstance(kind, type):
        return kind(value, where)
    takes = (int, float) if kind is float else kind
    try:
        if isinstance(value, takes) and not isinstance(value, bool):
            out = kind(value)
            if kind is not float or math.isfinite(out):
                return out
    except OverflowError:
        pass
    what = {float: "a finite float", str: "a string", dict: "a mapping"}.get(kind, kind.__name__)
    raise ValidationError(f"{where} must be {what}, got {value!r}")


def _read(value, where, fields, tag=None):
    """The mapping ``value`` read through ``fields``, every field filled in.

    With a ``tag``, ``fields`` maps each value of that key to the fields of
    its form.  A null reads as absent where the default is None.
    """
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be a mapping, got {value!r}")
    if tag is not None:
        form = _typed(value.get(tag), tuple(fields), f"{where}.{tag}")
        fields = {tag: (str,), **fields[form]}
    out = {}
    for key, (kind, *default) in fields.items():
        if key in value and not (value[key] is None and default == [None]):
            out[key] = _typed(value[key], kind, f"{where}.{key}")
        elif default:
            out[key] = default[0]
        else:
            raise ValidationError(f"missing field {where}.{key}")
    for key in value:
        if key not in fields:
            raise ValidationError(
                f"{where}.{key} is not a field of {where}, which takes {', '.join(fields)}"
            )
    return out


def parse_scenario(text):
    """Parse and validate a YAML scenario; the canonical dict echoes the market as written."""
    try:
        tree = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ValidationError(f"scenario syntax error: {exc}") from exc
    raw = _read(tree, "scenario", FIELDS["scenario"])
    market = _read(raw["market"], "market", FIELDS["market"], tag="kind")
    if market["kind"] != "explicit":
        _market_spec(market)  # validates

    claims, names = [], set()
    for i, claim in enumerate(raw["claims"]):
        where = f"claims[{i}]"
        entry = _read(claim, where, FIELDS["claim"], tag="type")
        if entry["name"] in names:
            raise ValidationError(f"{where}.name {entry['name']!r} repeats an earlier claim's name")
        names.add(entry["name"])
        if entry["type"] == "matrix":
            try:
                as_hermitian(entry["entries"])
            except ValidationError as exc:
                raise ValidationError(f"{where}.entries: {exc}") from exc
            entry["entries"] = _encode_matrix(entry["entries"])
        claims.append(entry)
    solver = _read(raw["solver"] or {}, "solver", FIELDS["solver"])
    return {"market": raw["market"], "claims": claims, "solver": solver}


def _market_spec(m):
    """The QubitMarketSpec or NPeriodSpec of a read qubit or nperiod market."""
    if m["kind"] == "qubit":
        return QubitMarketSpec(m["x0"], m["x1"], m["x2"], m["x3"], m["r"], m["s0"], m["b0"])
    if not 1 <= m["n"] <= 6:
        raise ValidationError(f"market.n = {m['n']} outside 1..6 (dimension cap 2^N <= 64)")
    return NPeriodSpec(m["n"], m["a"], m["b"], m["r"], m["s0"], m["b0"], m["pauli"])


def _build_explicit_market(market):
    """The MarketModel of a read explicit market; MarketModel checks its operators."""
    dim = market["dim"]
    algebras = [
        getattr(OperatorAlgebra, e)(dim) if isinstance(e, str)
        else OperatorAlgebra.tensor_factor(e["factor"], dim) if "factor" in e
        else OperatorAlgebra.from_basis(e["basis"])
        for e in market["filtration"]
    ]
    return MarketModel(Filtration(algebras), market["bank"], market["assets"])


def build_market(scenario):
    market = _read(scenario["market"], "market", FIELDS["market"], tag="kind")
    if market["kind"] == "explicit":
        return _build_explicit_market(market), None
    spec = _market_spec(market)
    build = build_single_period if market["kind"] == "qubit" else build_n_period
    return build(spec), spec


def claim_payoff(entry, market, where="claim"):
    """Terminal payoff operator of a claim, in undiscounted currency."""
    if entry["type"] == "matrix":
        return _decode_matrix(entry["entries"], where)
    if not market.assets:
        raise ValidationError(f"{where}: a {entry['type']} claim is written on asset 0, "
                              "and the market has no assets")
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


def _strategy_terms(strategy):
    """Eigenvalues above 1e-14 of the largest, per h: the terms a_k A_k* (.) A_k it expands to."""
    lams = [np.abs(np.linalg.eigvalsh(h)) for h in strategy.coefficients.values()]
    return sum(int(np.count_nonzero(lam > 1e-14 * lam.max(initial=0.0))) for lam in lams)


def run(command, scenario, samples=100):
    """Dispatch a command against a parsed scenario; returns (report, exit_code)."""
    seed = scenario["solver"]["seed"]
    if seed < 0:
        raise ValidationError(f"solver.seed (or --seed) must be non-negative, got {seed}")
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
        for i, entry in enumerate(scenario["claims"]):
            payoff = claim_payoff(entry, market, f"claims[{i}]") / market.bank[market.horizon]
            if command == "replicate":
                rep = replicate(payoff, dmkt)
                results[entry["name"]] = {
                    "alpha": rep.alpha,
                    "residual": rep.residual,
                    "attainable": rep.attainable,
                    "strategy_terms": _strategy_terms(rep.strategy),
                }
            elif command == "decompose":
                values = _decompose_values(price_bounds(payoff, dmkt), payoff, dmkt)
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
                    "strategy_terms": _strategy_terms(dec.strategy),
                }
            else:
                iv = price_bounds(payoff, dmkt)
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
                diagnostics.setdefault("newton_steps", {})[entry["name"]] = list(iv.steps)
    elif command == "disk":
        if scenario["market"]["kind"] != "qubit":
            raise ValidationError("disk command requires a qubit market scenario")
        if not 1 <= samples <= MAX_DISK_SAMPLES:
            raise ValidationError(f"--samples must be in 1..{MAX_DISK_SAMPLES}, got {samples}")
        disk = risk_neutral_disk(spec)
        results = {
            "normal": [float(v) for v in disk.normal],
            "offset": disk.offset,
            "radius": disk.radius,
            "samples": sample_disk_points(disk, samples, seed).tolist(),
        }
    elif command == "crr":
        if scenario["market"]["kind"] != "nperiod":
            raise ValidationError("crr command requires an nperiod market scenario")
        for entry in scenario["claims"]:
            if entry["type"] not in ("call", "spectral") or entry.get("fn") == "put":
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


def _floats(values, sep=""):
    """Floats joined by ``sep`` as json writes them: each repr, with NaN, Infinity and
    -Infinity (no finite float's repr holds "inf" or "nan").  Only floats are taken:
    float.__repr__ raises TypeError on anything else, a bool or an int included.
    """
    return sep.join(map(float.__repr__, values)).replace("inf", "Infinity").replace("nan", "NaN")


_ascii = json.encoder.encode_basestring_ascii


def render(obj, indent="\n"):
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, for a report tree.

    A report holds str-keyed dicts, lists, tuples, str, int, float, bool and None;
    a list of floats (a matrix entry, a Bloch vector) is joined in one pass.
    """
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        sep = "," + inner
        try:
            body = _floats(obj, sep)
        except TypeError:
            body = sep.join([render(v, inner) for v in obj])
        return f"[{inner}{body}{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [f"{_ascii(k)}: {render(v, inner)}" for k, v in sorted(obj.items())]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    if isinstance(obj, str):
        return _ascii(obj)
    if isinstance(obj, float):
        return _floats((obj,))
    if obj is None or isinstance(obj, bool):
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_PARSER = argparse.ArgumentParser(prog="qmarket", description=__doc__)
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--scenario", required=True, help="path to a YAML scenario file")
_PARSER.add_argument("--seed", type=int, default=None, help="override scenario seed")
_PARSER.add_argument("--out", default=None, help="write the JSON report here")
_PARSER.add_argument("--samples", type=int, default=100, help="disk sample count")


def _scenario_text(path):
    """The text of a scenario file; one that is not UTF-8 is a ValidationError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"scenario file {path} is not UTF-8: {exc}") from exc


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        scenario = parse_scenario(_scenario_text(args.scenario))
        if args.seed is not None:
            scenario["solver"]["seed"] = args.seed
        report, code = run(args.command, scenario, samples=args.samples)
        text = render(report) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (SolverError, QMarketError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE

    if not args.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
