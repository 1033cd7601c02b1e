import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarket import cli
from qmarket.arbitrage import INDETERMINATE, FeasibilityResult
from qmarket.binomial import crr_price
from qmarket.cli import (
    EXIT_INCONSISTENT,
    EXIT_INDETERMINATE,
    EXIT_OK,
    EXIT_VALIDATION,
    build_market,
    main,
    parse_scenario,
    run,
)
from qmarket.errors import InternalConsistencyError, ValidationError
from qmarket.market import discount
from qmarket.pricing import CONSUMPTION_PSD_TOL, optional_decomposition, price_bounds

QUBIT_YAML = """
market:
  kind: qubit
  x0: 0.05
  x1: 0.15
  r: 0.05
  s0: 100.0
claims:
  - name: atm_call
    type: call
    strike: 100.0
solver:
  seed: 42
"""

NPERIOD_YAML = """
market:
  kind: nperiod
  n: 2
  a: -0.1
  b: 0.2
  r: 0.05
  s0: 100.0
claims:
  - name: atm_call
    type: call
    strike: 100.0
"""

# the N = 2 market with a claim outside span(I, K): K has rank 1 + 4, so
# the super-hedge runs the Newton core
NPERIOD_MATRIX_YAML = """
market:
  kind: nperiod
  n: 2
  a: -0.1
  b: 0.2
  r: 0.05
  s0: 100.0
claims:
  - name: matrix
    type: matrix
    entries: [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
              [[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
              [[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [0.0, 0.0]],
              [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [4.0, 0.0]]]
"""

TRINOMIAL_YAML = """
market:
  kind: explicit
  dim: 3
  bank: [1.0, 1.05]
  filtration: [trivial, full]
  assets:
    - - [[[100.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
         [[0.0, 0.0], [100.0, 0.0], [0.0, 0.0]],
         [[0.0, 0.0], [0.0, 0.0], [100.0, 0.0]]]
      - [[[90.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
         [[0.0, 0.0], [105.0, 0.0], [0.0, 0.0]],
         [[0.0, 0.0], [0.0, 0.0], [120.0, 0.0]]]
claims:
  - name: call
    type: call
    strike: 100.0
"""


def write(tmp_path, text, name="scenario.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_a_wide_gap_nperiod_scenario_is_accepted(tmp_path):
    # |pauli|^2 is one unit in the last place of (b - a)^2 / 4, about 10050, off
    pauli = "[[16.061469838460738, -82.01742489822419, 55.364552736316476]]"
    text = (
        NPERIOD_YAML.replace("n: 2", "n: 1")
        .replace("a: -0.1", "a: -0.5")
        .replace("b: 0.2", "b: 200.0")
        .replace("r: 0.05", "r: 0.0")
        .replace("claims:", f"  pauli: {pauli}\nclaims:")
    )
    assert main(["check-arbitrage", "--scenario", write(tmp_path, text)]) == EXIT_OK


def test_parse_scenario_canonical():
    sc = parse_scenario(QUBIT_YAML)
    assert sc["market"]["kind"] == "qubit"
    assert sc["claims"][0] == {"name": "atm_call", "type": "call", "strike": 100.0}
    assert sc["solver"] == {"seed": 42}


def test_parse_scenario_rejects_bad_input():
    with pytest.raises(ValidationError):
        parse_scenario("just a string")
    with pytest.raises(ValidationError):
        parse_scenario("market:\n  kind: weird\n")
    with pytest.raises(ValidationError):
        parse_scenario("market:\n  kind: qubit\n  x0: 0.05\n")  # missing x1/r/s0
    with pytest.raises(ValidationError, match=r"market\.n"):
        parse_scenario(
            "market:\n  kind: nperiod\n  n: 7\n  a: -0.1\n  b: 0.2\n  r: 0.05\n  s0: 100\n"
        )


def test_parse_scenario_rejects_nonhermitian_claim():
    bad = """
market:
  kind: qubit
  x0: 0.05
  x1: 0.15
  r: 0.05
  s0: 100.0
claims:
  - name: bad
    type: matrix
    entries: [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
"""
    with pytest.raises(ValidationError, match=r"claims\[0\]"):
        parse_scenario(bad)


def test_build_market_qubit():
    mkt, spec = build_market(parse_scenario(QUBIT_YAML))
    assert mkt.dim == 2
    assert spec.a == pytest.approx(-0.1)
    vals = np.linalg.eigvalsh(mkt.assets[0][1])
    np.testing.assert_allclose(vals, [90.0, 120.0], atol=1e-10)


def test_build_market_explicit():
    mkt, spec = build_market(parse_scenario(TRINOMIAL_YAML))
    assert spec is None
    assert mkt.dim == 3
    np.testing.assert_allclose(np.diag(mkt.assets[0][1]).real, [90.0, 105.0, 120.0])


def test_run_check_arbitrage():
    report, code = run("check-arbitrage", parse_scenario(QUBIT_YAML))
    assert code == EXIT_OK
    assert report["results"]["status"] == "FAITHFUL_STATE_FOUND"
    assert report["results"]["lambda_star"] == pytest.approx(0.5, abs=1e-6)
    assert "bloch" in report["results"]["witness"]


def test_check_arbitrage_reports_its_certified_interval():
    # lambda_star is the interval's upper end c; the witness annihilates K
    report, _ = run("check-arbitrage", parse_scenario(NPERIOD_YAML.replace("r: 0.05", "r: 0.0")))
    res = report["results"]
    nu, c = res["lambda_interval"]
    assert res["lambda_star"] == c and 0.0 <= c - nu <= 1e-10
    assert c == pytest.approx((1.0 / 3.0) ** 2, abs=1e-9)  # min(q, 1 - q)^N, q = 1/3
    assert 0.0 <= res["witness_residual"] <= 1e-8
    assert report["diagnostics"]["iterations"] == 0  # decided in closed form
    arbitrage, _ = run("check-arbitrage", parse_scenario(QUBIT_YAML.replace("r: 0.05", "r: 0.3")))
    assert arbitrage["results"]["witness_residual"] is None
    assert arbitrage["results"]["lambda_interval"][1] == arbitrage["results"]["lambda_star"] < 0.0


def test_price_and_interval_report_each_end_gap():
    for command in ("price", "interval"):
        attainable = run(command, parse_scenario(QUBIT_YAML))[0]["results"]["atm_call"]
        assert attainable["lower_gap"] == attainable["upper_gap"] == 0.0
        out = run(command, parse_scenario(TRINOMIAL_YAML))[0]["results"]["call"]
        assert 0.0 < out["lower_gap"] <= 1e-10 * 20.0 and 0.0 < out["upper_gap"] <= 1e-10 * 20.0


def test_price_and_interval_report_each_end_newton_steps(tmp_path):
    # the super-hedge steps of each end, [lower, upper]: Newton steps over a
    # span of rank 5, eigenvalue evaluations over the trinomial's one-element
    # span; none for an attainable claim
    out = tmp_path / "report.json"
    cases = (
        (NPERIOD_MATRIX_YAML, {"matrix": [8, 8]}),
        (TRINOMIAL_YAML, {"call": [3, 3]}),
        (QUBIT_YAML, {"atm_call": [0, 0]}),
    )
    for command in ("price", "interval"):
        for text, steps in cases:
            scen = write(tmp_path, text)
            assert main([command, "--scenario", scen, "--out", str(out)]) == EXIT_OK
            assert json.loads(out.read_text())["diagnostics"] == {"newton_steps": steps}


def test_run_price_qubit_call():
    report, code = run("price", parse_scenario(QUBIT_YAML))
    assert code == EXIT_OK
    out = report["results"]["atm_call"]
    assert out["unique_price"] == pytest.approx(200.0 / 21.0, abs=1e-6)
    assert out["attainable"] and not out["open"]


def test_run_interval_trinomial():
    report, code = run("interval", parse_scenario(TRINOMIAL_YAML))
    assert code == EXIT_OK
    out = report["results"]["call"]
    assert out["lower"] == pytest.approx(100.0 / 21.0, abs=1e-5)
    assert out["upper"] == pytest.approx(200.0 / 21.0, abs=1e-5)
    assert out["open"] and not out["attainable"]


def test_run_replicate():
    report, code = run("replicate", parse_scenario(QUBIT_YAML))
    out = report["results"]["atm_call"]
    assert code == EXIT_OK
    assert out["attainable"]
    assert out["alpha"] == pytest.approx(200.0 / 21.0, abs=1e-8)


def test_run_decompose():
    report, code = run("decompose", parse_scenario(TRINOMIAL_YAML))
    assert code == EXIT_OK
    out = report["results"]["call"]
    assert out["v0"] == pytest.approx(200.0 / 21.0, abs=1e-5)
    assert out["consumption_norms"][0] == 0.0
    assert out["consumption_norms"][-1] > 1.0


def test_run_disk():
    sc = parse_scenario(QUBIT_YAML)
    report, code = run("disk", sc, samples=25)
    assert code == EXIT_OK
    out = report["results"]
    assert out["normal"] == [1.0, 0.0, 0.0]
    assert out["radius"] == pytest.approx(1.0)
    assert len(out["samples"]) == 25
    for v in out["samples"]:
        assert abs(v[0]) <= 1e-12  # on the plane


def test_run_refuses_an_unknown_command():
    with pytest.raises(ValidationError, match="unknown command 'verify'"):
        run("verify", parse_scenario(QUBIT_YAML))


def test_run_crr_refuses_a_qubit_scenario():
    with pytest.raises(ValidationError, match="crr command requires an nperiod market scenario"):
        run("crr", parse_scenario(QUBIT_YAML))


def test_main_rejects_a_disk_sample_count_outside_its_cap(tmp_path, capsys, monkeypatch):
    # a count past the cap would write gigabytes of report or exhaust memory: it is a
    # validation error that names the option, before any sample is drawn
    scen = write(tmp_path, QUBIT_YAML)
    for count in ("1000000000000", str(cli.MAX_DISK_SAMPLES + 1), "0"):
        assert main(["disk", "--scenario", scen, "--samples", count]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--samples" in err and count in err
    drawn = []
    monkeypatch.setattr(
        cli, "sample_disk_points", lambda disk, n, seed: drawn.append(n) or np.zeros((n, 3))
    )
    report, code = run("disk", parse_scenario(QUBIT_YAML), samples=cli.MAX_DISK_SAMPLES)
    assert code == EXIT_OK and drawn == [cli.MAX_DISK_SAMPLES]


def test_run_disk_draws_its_sample_cap_within_a_second():
    # the points are drawn as one array and reported as drawn; building and
    # reading back one DensityState per sample took about 9 s at the cap
    sc = parse_scenario(QUBIT_YAML)
    start = time.perf_counter()
    report, code = run("disk", sc, samples=cli.MAX_DISK_SAMPLES)
    elapsed = time.perf_counter() - start
    points = np.array(report["results"]["samples"])
    assert code == EXIT_OK and points.shape == (cli.MAX_DISK_SAMPLES, 3)
    assert np.abs(points[:, 0]).max() <= 1e-12 and np.linalg.norm(points, axis=1).max() < 1.0
    assert elapsed <= 1.0

def test_run_disk_wrong_kind():
    with pytest.raises(ValidationError):
        run("disk", parse_scenario(NPERIOD_YAML))


def test_run_crr():
    report, code = run("crr", parse_scenario(NPERIOD_YAML))
    assert code == EXIT_OK
    out = report["results"]["atm_call"]
    assert out["crr"] == pytest.approx(13.605442176870748, abs=1e-9)
    assert abs(out["difference"]) <= 1e-10


def test_crr_rejects_a_spectral_put(tmp_path, capsys):
    # the CRR closed form prices calls: a put must not be reported at the call's value
    put = NPERIOD_YAML.replace("type: call", "type: spectral\n    fn: put")
    with pytest.raises(ValidationError, match="strike-based calls only"):
        run("crr", parse_scenario(put))
    assert main(["crr", "--scenario", write(tmp_path, put)]) == EXIT_VALIDATION
    assert "strike-based calls only" in capsys.readouterr().err
    call = NPERIOD_YAML.replace("type: call", "type: spectral\n    fn: call")
    report, code = run("crr", parse_scenario(call))
    assert code == EXIT_OK
    assert report["results"]["atm_call"]["crr"] == pytest.approx(13.605442176870748, abs=1e-9)


def test_main_writes_report(tmp_path, capsys):
    scen = write(tmp_path, QUBIT_YAML)
    out = tmp_path / "report.json"
    code = main(["price", "--scenario", scen, "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["schema"] == "qmarket.report/1"
    assert report["command"] == "price"


def test_main_stdout_and_seed_override(tmp_path, capsys):
    scen = write(tmp_path, QUBIT_YAML)
    code = main(["check-arbitrage", "--scenario", scen, "--seed", "7"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 7


def test_main_byte_stable(tmp_path):
    scen = write(tmp_path, NPERIOD_YAML)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["crr", "--scenario", scen, "--seed", "5", "--out", str(a)]) == EXIT_OK
    assert main(["crr", "--scenario", scen, "--seed", "5", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_main_validation_exit(tmp_path, capsys):
    assert main(["price", "--scenario", str(tmp_path / "missing.yaml")]) == EXIT_VALIDATION
    scen = write(tmp_path, "market:\n  kind: qubit\n  x0: 0.05\n", name="bad.yaml")
    assert main(["price", "--scenario", scen]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "error:" in err


def test_main_rejects_factor_algebras_that_do_not_nest(tmp_path, capsys):
    # on C^6, B(C^2) (x) I_3 does not lie in B(C^3) (x) I_2
    eye = [[[100.0 if i == j else 0.0, 0.0] for j in range(6)] for i in range(6)]
    scenario = {
        "market": {
            "kind": "explicit", "dim": 6, "bank": [1.0, 1.0, 1.0],
            "filtration": ["trivial", {"factor": 2}, {"factor": 3}],
            "assets": [[eye, eye, eye]],
        },
    }
    scen = write(tmp_path, json.dumps(scenario))
    assert main(["check-arbitrage", "--scenario", scen]) == EXIT_VALIDATION
    assert "A_1 is not contained in A_2" in capsys.readouterr().err


def test_main_arbitrage_market_reports_claim(tmp_path, capsys):
    # r above and below the band [-0.1, 0.2], and at its upper edge
    for rate in ("0.3", "-0.2", "0.2"):
        bad = QUBIT_YAML.replace("r: 0.05", f"r: {rate}")
        scen = write(tmp_path, bad)
        code = main(["check-arbitrage", "--scenario", scen])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["status"] == "NO_FAITHFUL_STATE"
        pairs = np.array(report["results"]["certificate"])
        cert = pairs[..., 0] + 1j * pairs[..., 1]
        assert np.linalg.eigvalsh(cert)[0] >= -1e-8
        assert np.trace(cert).real == pytest.approx(1.0, abs=1e-12)
        # a single-period qubit market attains only multiples of dS
        market, _ = build_market(parse_scenario(bad))
        ds = discount(market).increment(0, 1)
        coef = np.vdot(ds, cert).real / np.vdot(ds, ds).real
        assert np.linalg.norm(cert - coef * ds) <= 1e-10
        # pricing against the same market fails at the solver layer
        assert main(["price", "--scenario", scen]) == EXIT_INDETERMINATE


TWO_PERIOD_EXPLICIT_YAML = """
market:
  kind: explicit
  dim: 2
  bank: [1.0, 1.0, 1.0]
  filtration: [trivial, full, full]
  assets:
    - - [[[100.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [100.0, 0.0]]]
      - [[[90.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [120.0, 0.0]]]
      - [[[90.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [120.0, 0.0]]]
claims:
  - name: flip
    type: matrix
    entries: [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
"""


def test_run_decompose_two_periods_reconstructs_value():
    report, code = run("decompose", parse_scenario(NPERIOD_YAML))
    assert code == EXIT_OK
    out = report["results"]["atm_call"]
    assert out["v0"] == pytest.approx(13.605442176870748, abs=1e-8)
    assert out["reconstruction_residual"] <= 1e-8 * 100.0
    assert len(out["consumption_norms"]) == 3
    assert max(out["consumption_norms"]) <= 1e-6


def test_main_decompose_two_periods_super_hedges_unattainable_claim(tmp_path, capsys):
    # V is the upper super-hedge alpha I + (H # S)_1, then the payoff; the
    # martingale states are [[2/3, z], [z*, 1/3]] with |z|^2 <= 2/9
    scen = write(tmp_path, TWO_PERIOD_EXPLICIT_YAML)
    assert main(["decompose", "--scenario", scen]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)["results"]["flip"]
    assert out["v0"] == pytest.approx(2.0 * np.sqrt(2.0) / 3.0, abs=1e-8)
    assert out["reconstruction_residual"] <= 1e-8
    scenario = parse_scenario(TWO_PERIOD_EXPLICIT_YAML)
    market = discount(build_market(scenario)[0])
    payoff = cli.claim_payoff(scenario["claims"][0], market)
    cls = price_bounds(payoff, market)
    dec = optional_decomposition(cli._decompose_values(cls, payoff, market), market)
    for before, after in zip(dec.consumption, dec.consumption[1:]):
        assert np.linalg.eigvalsh(after - before)[0] >= -CONSUMPTION_PSD_TOL


# the two-state market S: 1 -> 0.9 | 1.2 with K = 1, on a d = 4 factor
# algebra and on the d = 2 diagonal algebra given by its basis
TWO_STATE_YAML = """
market:
  kind: explicit
  dim: {dim}
  bank: [1.0, 1.0]
  filtration: [trivial, {algebra}]
  assets:
    - - {one}
      - {s1}
claims:
  - name: call
    type: call
    strike: 1.0
"""


def _diagonal_yaml(values):
    d = len(values)
    return str([[[float(v), 0.0] if i == j else [0.0, 0.0] for j in range(d)]
                for i, v in enumerate(values)])


GRAMMAR = [
    pytest.param(
        QUBIT_YAML.replace("type: call", "type: spectral\n    fn: call").replace(
            "solver:", "  - name: put\n    type: spectral\n    fn: put\n    strike: 100.0\nsolver:"
        ),
        lambda res: res["atm_call"]["unique_price"] - res["put"]["unique_price"],
        200.0 / 21.0 - 100.0 / 21.0,  # put-call parity: S0 - K / (1 + r)
        1e-12,
        id="spectral_put_call_parity",
    ),
    pytest.param(
        NPERIOD_YAML.replace("claims:", "  pauli: [[0.0, 0.15, 0.0], [0.09, 0.0, 0.12]]\nclaims:"),
        lambda res: res["atm_call"]["unique_price"],
        crr_price(2, 100.0, 100.0, 0.05, -0.1, 0.2),
        1e-9,
        id="nperiod_pauli",
    ),
    pytest.param(
        TWO_STATE_YAML.format(
            dim=4, algebra="{factor: 2}",
            one=_diagonal_yaml([1, 1, 1, 1]), s1=_diagonal_yaml([0.9, 0.9, 1.2, 1.2]),
        ),
        lambda res: res["call"]["unique_price"],
        0.2 / 3.0,
        1e-12,
        id="factor_filtration",
    ),
    pytest.param(
        TWO_STATE_YAML.format(
            dim=2, algebra=f"{{basis: [{_diagonal_yaml([1, 0])}, {_diagonal_yaml([0, 1])}]}}",
            one=_diagonal_yaml([1, 1]), s1=_diagonal_yaml([0.9, 1.2]),
        ),
        lambda res: res["call"]["unique_price"],
        0.2 / 3.0,
        1e-12,
        id="basis_filtration",
    ),
]


@pytest.mark.parametrize("text,value,want,tol", GRAMMAR)
def test_main_prices_every_claim_and_filtration_form(tmp_path, capsys, text, value, want, tol):
    scen = write(tmp_path, text)
    assert main(["price", "--scenario", scen]) == EXIT_OK
    results = json.loads(capsys.readouterr().out)["results"]
    assert value(results) == pytest.approx(want, abs=tol)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_parse_scenario_same_tree_with_either_yaml_loader(monkeypatch):
    texts = (QUBIT_YAML, NPERIOD_YAML, TRINOMIAL_YAML)
    fast = [parse_scenario(t) for t in texts]
    monkeypatch.setattr(cli, "_YAML_LOADER", yaml.SafeLoader)
    slow = [parse_scenario(t) for t in texts]
    assert fast == slow
    for a, b in zip(fast, slow):
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


MALFORMED = [
    pytest.param("market.x0", QUBIT_YAML.replace("x0: 0.05", "x0: abc"), id="x0"),
    pytest.param("market.n", NPERIOD_YAML.replace("n: 2", "n: two"), id="n"),
    pytest.param("market.dim", TRINOMIAL_YAML.replace("dim: 3", "dim: x"), id="dim"),
    pytest.param(
        "claims[0].strike", QUBIT_YAML.replace("strike: 100.0", "strike: [1]"), id="strike"
    ),
    pytest.param("claims", QUBIT_YAML.split("claims:")[0] + "claims: 5\n", id="claims"),
    pytest.param("claims[0].type", QUBIT_YAML.replace("type: call", "type: digital"), id="type"),
    pytest.param(
        "claims[0].fn",
        QUBIT_YAML.replace("type: call", "type: spectral\n    fn: straddle"),
        id="spectral_fn",
    ),
    pytest.param("solver", QUBIT_YAML.split("solver:")[0] + "solver: 5\n", id="solver"),
    # solver takes only seed: a key it does not read fails loudly, whatever its value
    pytest.param("solver.max_iters", QUBIT_YAML + "  max_iters: 50000\n", id="max_iters"),
    pytest.param("market.n", NPERIOD_YAML.replace("n: 2", "n: 2.7"), id="n_fraction"),
    pytest.param("solver.seed", QUBIT_YAML.replace("seed: 42", "seed: 1.5"), id="seed"),
    pytest.param(
        "claims[0].name", QUBIT_YAML.replace("name: atm_call", "name: [1]"), id="name"
    ),
    pytest.param(
        "claims[1].name",
        QUBIT_YAML.replace(
            "solver:", "  - name: atm_call\n    type: call\n    strike: 90.0\nsolver:"
        ),
        id="name_repeated",
    ),
    # a number or a matrix entry that is not finite
    pytest.param("market.r", QUBIT_YAML.replace("r: 0.05", "r: .inf"), id="rate_inf"),
    pytest.param(
        "claims[0].strike", QUBIT_YAML.replace("strike: 100.0", "strike: .nan"), id="strike_nan"
    ),
    pytest.param(
        "market.pauli[0]",
        NPERIOD_YAML.replace("claims:", "  pauli: [[.inf, 0.15, 0.0], [0.09, 0.0, 0.12]]\nclaims:"),
        id="pauli_inf",
    ),
    pytest.param(
        "claims[0].entries",
        TWO_PERIOD_EXPLICIT_YAML.replace("[[0.0, 0.0], [1.0, 0.0]]", "[[.nan, 0.0], [1.0, 0.0]]"),
        id="claim_matrix_nan",
    ),
    pytest.param(
        "market.assets[0][2]",
        TWO_PERIOD_EXPLICIT_YAML.replace("[120.0, 0.0]]]\nclaims", "[-.inf, 0.0]]]\nclaims"),
        id="asset_matrix_inf",
    ),
    pytest.param("market.bank[1]", TRINOMIAL_YAML.replace("1.05]", ".inf]"), id="bank_inf"),
    # text that is not YAML: an unclosed flow sequence
    pytest.param("scenario syntax error", QUBIT_YAML.replace("x0: 0.05", "x0: [0.05"), id="yaml_syntax"),
    # an explicit tag on a value that SafeConstructor cannot read as that type
    pytest.param(
        "scenario syntax error: cannot read 'abc'", QUBIT_YAML.replace("x0: 0.05", "x0: !!float abc"),
        id="float_tag_on_letters",
    ),
    pytest.param(
        "scenario syntax error: cannot read ''", QUBIT_YAML.replace("x0: 0.05", "x0: !!float ''"),
        id="float_tag_on_empty",
    ),
    # an integer matrix entry too large for a float
    pytest.param(
        "claims[0].entries: matrix entry (1, 0) is too large for a float",
        TWO_PERIOD_EXPLICIT_YAML.replace("[[1.0, 0.0], [0.0, 0.0]]]", f"[[{10 ** 400}, 0], [0.0, 0.0]]]"),
        id="claim_matrix_overflow",
    ),
    pytest.param(
        "market.assets[0][2]: matrix entry (1, 1) is too large for a float",
        TWO_PERIOD_EXPLICIT_YAML.replace("[120.0, 0.0]]]\nclaims", f"[0, {10 ** 400}]]]\nclaims"),
        id="asset_matrix_overflow",
    ),
    # a matrix with one row of two entries
    pytest.param(
        "market.assets[0][2]: matrix must be square",
        TWO_PERIOD_EXPLICIT_YAML.replace(
            "[[[90.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [120.0, 0.0]]]\nclaims", "[[[90.0, 0.0], [0.0, 0.0]]]\nclaims"
        ),
        id="asset_matrix_one_by_two",
    ),
    # an integer too large for a float where a float is asked for
    pytest.param(
        "market.x0 must be a finite float", QUBIT_YAML.replace("x0: 0.05", f"x0: {10 ** 400}"),
        id="float_field_overflow",
    ),
    # a matrix entry is exactly one [re, im] pair
    pytest.param(
        "claims[0].entries",
        TWO_PERIOD_EXPLICIT_YAML.replace("[[0.0, 0.0], [1.0, 0.0]]", "[[0.0, 0.0, 7], [1.0, 0.0]]"),
        id="claim_matrix_triple",
    ),
]


@pytest.mark.parametrize("field,text", MALFORMED)
def test_main_rejects_malformed_field(tmp_path, capsys, field, text):
    scen = write(tmp_path, text)
    assert main(["check-arbitrage", "--scenario", scen]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_main_refuses_a_market_whose_discounted_prices_overflow(tmp_path, capsys):
    # S_t / B_t = 1e10 / 1e-300 is not a float
    scen = write(tmp_path, QUBIT_YAML.replace("s0: 100.0", "s0: 1.0e10\n  b0: 1.0e-300"))
    assert main(["check-arbitrage", "--scenario", scen]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


HUGE_MARKETS = [
    pytest.param("s0: 1.0e308", "matrix entry of magnitude 1.000e+308 exceeds bound 1e+150",
                 id="operator"),
    pytest.param("s0: 1.0e10\n  b0: 1.0e-200",
                 "discounted asset prices S_t / B_t reach magnitude 1.000e+210, "
                 "above the bound 1e+150", id="quotient"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("market, message", HUGE_MARKETS)
def test_main_refuses_entries_above_the_bound_without_a_warning(tmp_path, capsys, market, message):
    scen = write(tmp_path, QUBIT_YAML.replace("s0: 100.0", market))
    assert main(["price", "--scenario", scen]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"


# the eigen-term expansion of each h kept 1, 5, 17 and 77 terms for these
@pytest.mark.parametrize("n, terms", [(1, 1), (2, 5), (3, 17), (4, 77)])
@pytest.mark.parametrize("command", ["replicate", "decompose"])
def test_strategy_terms_of_the_atm_call(command, n, terms):
    text = NPERIOD_YAML.replace("n: 2", f"n: {n}").replace("r: 0.05", "r: 0.0")
    report, code = run(command, parse_scenario(text))
    assert code == EXIT_OK
    assert report["results"]["atm_call"]["strategy_terms"] == terms


# one key that no field reads, in each kind of mapping
UNKNOWN_KEYS = [
    pytest.param("scenario.claim", QUBIT_YAML.replace("claims:", "claim:"), id="top_level"),
    pytest.param(
        "market.paulis", QUBIT_YAML.replace("x1: 0.15", "x1: 0.15\n  paulis: [0.0, 0.15, 0.0]"),
        id="qubit_market",
    ),
    pytest.param(
        "market.bo", NPERIOD_YAML.replace("s0: 100.0", "s0: 100.0\n  bo: 2.0"), id="nperiod_market"
    ),
    pytest.param(
        "market.horizon", TRINOMIAL_YAML.replace("dim: 3", "dim: 3\n  horizon: 1"),
        id="explicit_market",
    ),
    pytest.param(
        "claims[0].fn", QUBIT_YAML.replace("strike: 100.0", "strike: 100.0\n    fn: put"),
        id="call_claim",
    ),
    pytest.param(
        "claims[0].strike",
        TWO_PERIOD_EXPLICIT_YAML.replace("type: matrix", "type: matrix\n    strike: 1.0"),
        id="matrix_claim",
    ),
    pytest.param(
        "claims[0].entries",
        QUBIT_YAML.replace("type: call", "type: spectral\n    fn: call\n    entries: []"),
        id="spectral_claim",
    ),
    pytest.param("solver.max_iters", QUBIT_YAML + "  max_iters: 5\n", id="solver"),
    pytest.param(
        "market.filtration[1].levels",
        TWO_STATE_YAML.format(
            dim=4, algebra="{factor: 2, levels: 2}",
            one=_diagonal_yaml([1, 1, 1, 1]), s1=_diagonal_yaml([0.9, 0.9, 1.2, 1.2]),
        ),
        id="factor_entry",
    ),
    pytest.param(
        "market.filtration[1].hermitian",
        TWO_STATE_YAML.format(
            dim=2,
            algebra=(
                f"{{basis: [{_diagonal_yaml([1, 0])}, {_diagonal_yaml([0, 1])}], hermitian: true}}"
            ),
            one=_diagonal_yaml([1, 1]), s1=_diagonal_yaml([0.9, 1.2]),
        ),
        id="basis_entry",
    ),
]


@pytest.mark.parametrize("field,text", UNKNOWN_KEYS)
def test_main_rejects_a_key_that_is_not_a_field(tmp_path, capsys, field, text):
    scen = write(tmp_path, text)
    assert main(["price", "--scenario", scen]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} is not a field" in err


def test_main_rejects_a_negative_seed_from_the_scenario_or_the_option(tmp_path, capsys):
    scen = write(tmp_path, QUBIT_YAML.replace("seed: 42", "seed: -3"))
    assert main(["disk", "--scenario", scen]) == EXIT_VALIDATION
    assert "solver.seed" in capsys.readouterr().err
    scen = write(tmp_path, QUBIT_YAML)
    assert main(["disk", "--scenario", scen, "--seed", "-3"]) == EXIT_VALIDATION
    assert "--seed" in capsys.readouterr().err


YAML_BASES = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


@pytest.mark.parametrize("base", YAML_BASES, ids=lambda base: base.__name__)
def test_exponent_floats_without_a_dot_read_as_numbers(monkeypatch, base):
    # YAML 1.1 reads 5e-2 and 1e-6 as strings; the scenario loader's resolvers
    # read them as YAML 1.2 does, on either loader, and leave the base alone
    resolvers = {"yaml_implicit_resolvers": cli._YAML_LOADER.yaml_implicit_resolvers}
    monkeypatch.setattr(cli, "_YAML_LOADER", type("Loader", (base,), resolvers))
    qubit = parse_scenario(QUBIT_YAML)
    assert parse_scenario(QUBIT_YAML.replace("r: 0.05", "r: 5e-2")) == qubit
    assert parse_scenario(QUBIT_YAML.replace("r: 0.05", "r: 5.0e-02")) == qubit
    flip = "[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]"
    tiny = [[[0.0, 0.0], [1e-6, 0.0]], [[1e-6, 0.0], [0.0, 0.0]]]
    for spelling in ("1e-6", yaml.safe_dump(1e-6).split("\n")[0]):
        text = TWO_PERIOD_EXPLICIT_YAML.replace(flip, flip.replace("1.0", spelling))
        assert parse_scenario(text)["claims"][0]["entries"] == tiny
    assert yaml.load("5e-2", Loader=base) == "5e-2"
    # so a name that reads as a number must be quoted
    with pytest.raises(ValidationError, match=r"claims\[0\].name must be a string, got 100000.0"):
        parse_scenario(QUBIT_YAML.replace("name: atm_call", "name: 1e5"))
    quoted = parse_scenario(QUBIT_YAML.replace("name: atm_call", 'name: "1e5"'))
    assert quoted["claims"][0]["name"] == "1e5"


# a number field takes a number as written: no bool and no quoted string is converted
NOT_A_NUMBER = [
    pytest.param("market.x0", QUBIT_YAML.replace("x0: 0.05", "x0: false"), id="x0_bool"),
    pytest.param("market.x1", QUBIT_YAML.replace("x1: 0.15", 'x1: "0.15"'), id="x1_string"),
    pytest.param(
        "claims[0].strike", QUBIT_YAML.replace("strike: 100.0", 'strike: "1e2"'), id="strike_string"
    ),
    pytest.param("solver.seed", QUBIT_YAML.replace("seed: 42", "seed: false"), id="seed_bool"),
    pytest.param(
        "claims[0].entries",
        TWO_PERIOD_EXPLICIT_YAML.replace("[[0.0, 0.0], [1.0, 0.0]]", "[[true, 0.0], [1.0, 0.0]]"),
        id="matrix_entry_bool",
    ),
]


@pytest.mark.parametrize("field,text", NOT_A_NUMBER)
def test_main_rejects_a_number_field_that_is_not_a_number(tmp_path, capsys, field, text):
    scen = write(tmp_path, text)
    assert main(["price", "--scenario", scen]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


WRONG_SIZE = [
    pytest.param(
        "asset 0 at t=0 is 2 x 2, the market's dimension is 3",
        """
market:
  kind: explicit
  dim: 3
  bank: [1.0, 1.0]
  filtration: [trivial, full]
  assets:
    - - [[[100.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [100.0, 0.0]]]
      - [[[90.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [120.0, 0.0]]]
claims:
  - name: call
    type: call
    strike: 100.0
""",
        id="explicit_assets_2x2_in_dim_3",
    ),
    pytest.param(
        "claim is 3 x 3, the market's dimension is 2",
        QUBIT_YAML.replace(
            "type: call\n    strike: 100.0",
            "type: matrix\n    entries: [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],"
            " [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]",
        ),
        id="matrix_claim_3x3_on_the_qubit",
    ),
]


@pytest.mark.parametrize("message,text", WRONG_SIZE)
def test_main_names_both_dimensions_of_an_operator_of_the_wrong_size(
    tmp_path, capsys, message, text
):
    assert main(["price", "--scenario", write(tmp_path, text)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_null_fields_keep_their_meaning():
    # a null claims list is an error; a null solver or pauli takes its default
    with pytest.raises(ValidationError, match=r"scenario\.claims"):
        parse_scenario(QUBIT_YAML.split("claims:")[0] + "claims:\n")
    assert parse_scenario(QUBIT_YAML.split("solver:")[0] + "solver:\n")["solver"] == {"seed": 0}
    null_pauli = parse_scenario(NPERIOD_YAML.replace("claims:", "  pauli:\nclaims:"))
    assert build_market(null_pauli)[1] == build_market(parse_scenario(NPERIOD_YAML))[1]


def test_readme_scenario_parses_and_prices(tmp_path, capsys):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split("```yaml\n")[1].split("```")[0]
    assert [c["name"] for c in parse_scenario(text)["claims"]] == ["atm_call"]
    assert main(["price", "--scenario", write(tmp_path, text)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)["results"]["atm_call"]
    assert out["unique_price"] == pytest.approx(200.0 / 21.0, abs=1e-9)


def test_main_builds_an_explicit_market_once(tmp_path, monkeypatch):
    built = []
    build = cli._build_explicit_market
    monkeypatch.setattr(
        cli, "_build_explicit_market", lambda market: built.append(market) or build(market)
    )
    assert main(["price", "--scenario", write(tmp_path, TRINOMIAL_YAML)]) == EXIT_OK
    assert len(built) == 1


def test_main_singular_barrier_exits_indeterminate(tmp_path, monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    monkeypatch.setattr(np.linalg, "pinv", singular)
    scen = write(tmp_path, NPERIOD_MATRIX_YAML)
    assert main(["interval", "--scenario", scen]) == EXIT_INDETERMINATE
    assert "Newton system is singular" in capsys.readouterr().err


def test_main_indeterminate_decision_exits_3_with_its_report(tmp_path, monkeypatch):
    undecided = FeasibilityResult(INDETERMINATE, -1e-3, iterations=11, note="undecided")
    monkeypatch.setattr(cli, "check_no_arbitrage", lambda market: undecided)
    scen, out = write(tmp_path, QUBIT_YAML), tmp_path / "report.json"
    assert main(["check-arbitrage", "--scenario", scen, "--out", str(out)]) == EXIT_INDETERMINATE
    report = json.loads(out.read_text())
    assert report["results"]["status"] == INDETERMINATE
    assert report["results"]["note"] == "undecided"
    assert report["diagnostics"]["iterations"] == 11


def test_main_internal_inconsistency_exits_4(tmp_path, monkeypatch, capsys):
    def inconsistent(a, market):
        raise InternalConsistencyError("forged disagreement")

    monkeypatch.setattr(cli, "price_bounds", inconsistent)
    scen = write(tmp_path, QUBIT_YAML)
    assert main(["price", "--scenario", scen]) == EXIT_INCONSISTENT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal consistency error: forged disagreement" in captured.err


def _d8_yaml(r):
    """A d = 8 single-period explicit market, S_1 = 100 U diag(0.8..1.3) U*, with a
    matrix claim and a call: r = 0.05 reports a witness, r = 0.5 a certificate."""
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    s1 = 100.0 * (q * np.linspace(0.8, 1.3, 8)) @ q.conj().T
    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    market = {
        "kind": "explicit", "dim": 8, "bank": [1.0, 1.0 + r], "filtration": ["trivial", "full"],
        "assets": [[cli._encode_matrix(100.0 * np.eye(8)),
                    cli._encode_matrix(0.5 * (s1 + s1.conj().T))]],
    }
    claims = [
        {"name": "matrix", "type": "matrix", "entries": cli._encode_matrix(h + h.conj().T)},
        {"name": "call", "type": "call", "strike": 100.0},
    ]
    return yaml.safe_dump({"market": market, "claims": claims})


D8_WITNESS_YAML, D8_CERTIFICATE_YAML = _d8_yaml(0.05), _d8_yaml(0.5)


def test_encode_matrix_gives_the_floats_of_each_entry():
    mat = np.array([[1.5 - 0.0j, complex(-0.0, 2.0)], [np.nan + 1j, complex(3, -np.inf)]])
    want = [[[float(c.real), float(c.imag)] for c in row] for row in mat]
    got = cli._encode_matrix(mat)
    assert repr(got) == repr(want)
    assert all(type(x) is float for row in got for pair in row for x in pair)


CORE = ("check-arbitrage", "price", "interval", "replicate", "decompose")
REPORTING = [
    pytest.param(QUBIT_YAML, CORE + ("disk",), None, id="qubit"),
    pytest.param(NPERIOD_YAML, CORE + ("crr",), None, id="nperiod"),
    pytest.param(D8_WITNESS_YAML, CORE, "witness", id="d8_witness"),
    # price bounds are undefined on an arbitrage market
    pytest.param(D8_CERTIFICATE_YAML, ("check-arbitrage", "replicate"), "certificate",
                 id="d8_certificate"),
]


@pytest.mark.parametrize("text,reporting,carries", REPORTING)
def test_main_writes_the_bytes_json_dumps_writes(tmp_path, capsys, text, reporting, carries):
    scen, out = write(tmp_path, text), tmp_path / "report.json"
    for command in cli.COMMANDS:
        out.unlink(missing_ok=True)
        code = main([command, "--scenario", scen, "--out", str(out)])
        if command not in reporting:
            assert code in (EXIT_VALIDATION, EXIT_INDETERMINATE) and not out.exists()
            continue
        report, want_code = run(command, parse_scenario(text))
        assert code == want_code
        assert out.read_bytes() == (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
        if command == "check-arbitrage" and carries:
            assert report["results"][carries] is not None


def test_installed_entry_point_writes_the_in_process_report(tmp_path):
    scen, here, there = write(tmp_path, D8_WITNESS_YAML), tmp_path / "a.json", tmp_path / "b.json"
    assert main(["price", "--scenario", scen, "--out", str(here)]) == EXIT_OK
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "qmarket.cli", "price", "--scenario", scen, "--out", str(there)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == "" and done.stderr == ""
    assert there.read_bytes() == here.read_bytes()


@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_main_reports_a_report_it_cannot_write(tmp_path, capsys, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"
    code = main(["price", "--scenario", write(tmp_path, QUBIT_YAML), "--out", str(out)])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out) in captured.err


def test_main_refuses_a_scenario_file_that_is_not_utf8(tmp_path, capsys):
    scen = tmp_path / "scenario.yaml"
    scen.write_bytes(b"\xff\xfe" + QUBIT_YAML.encode("utf-16-le"))
    assert main(["price", "--scenario", str(scen)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(scen) in err and "not UTF-8" in err


NO_ASSETS_YAML = """
market:
  kind: explicit
  dim: 2
  bank: [1.0, 1.0]
  filtration: [trivial, full]
  assets: []
claims:
  - name: flip
    type: matrix
    entries: [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
"""


@pytest.mark.parametrize("claim", ["type: call\n    strike: 1.0",
                                   "type: spectral\n    fn: put\n    strike: 1.0"])
@pytest.mark.parametrize("command", ["price", "interval", "replicate", "decompose"])
def test_main_refuses_a_strike_claim_on_a_market_without_assets(tmp_path, capsys, command, claim):
    scen = write(tmp_path, NO_ASSETS_YAML + f"  - name: strike\n    {claim}\n")
    assert main([command, "--scenario", scen]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: claims[1]: ") and "no assets" in err
    # the matrix claim alone is priced: with no asset every state is a martingale
    # state, so the bounds of sigma_x are its eigenvalues
    assert main([command, "--scenario", write(tmp_path, NO_ASSETS_YAML)]) == EXIT_OK
    results = json.loads(capsys.readouterr().out)["results"]["flip"]
    if command in ("price", "interval"):
        assert results["lower"] == pytest.approx(-1.0, abs=1e-9)
        assert results["upper"] == pytest.approx(1.0, abs=1e-9)


# scalars the loader builds itself and scalars it leaves to SafeConstructor: floats
# float() reads or not, ints, bools, nulls, timestamps, tags and quoted numbers
SCALARS = st.one_of(
    st.sampled_from([
        ".inf", "-.inf", "+.inf", ".nan", ".NaN", "-0.0", "0.0", "1_000.5", "1__0.5", "1:30.5",
        "-1:30.5", "0x1F", "0o17", "017", "1_000", "~", "null", "yes", "No", "true", "off",
        "'1.5'", '"2e3"', "'yes'", "!!float 3", "!!float '1.5'", "!!float .inf", "!!float 1:30.5",
        "!!float '-0.0'", "!!str 1.5", "!!str yes", "!!int 7", "5e-2", "1e+16", ".5", "+1.",
        "-3", "abc", "2001-12-14", "é", "'1_000.5'",
    ]),
    st.floats().map(repr),
    st.integers(-10 ** 20, 10 ** 20).map(str),
)
NUMBERS = st.one_of(st.floats(allow_nan=False).map(repr), SCALARS)


@st.composite
def yaml_documents(draw):
    """A YAML text, in block or flow style, whose top mapping holds scalars, numeric rows
    and matrices (some anchored), aliases to earlier rows, and mappings merging earlier ones."""
    rows, maps, items = [], [], []
    for i in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["scalar", "row", "matrix", "alias", "map", "merge"]))
        if kind == "alias" and rows:
            value = ("alias", draw(st.sampled_from(rows)))
        elif kind == "matrix":
            value = ("seq", None, [("seq", None, draw(st.lists(NUMBERS, min_size=2, max_size=2)))
                                   for _ in range(draw(st.integers(0, 3)))])
        elif kind in ("row", "alias"):
            anchor = f"r{i}" if draw(st.booleans()) else None
            rows += [anchor] if anchor else []
            value = ("seq", anchor, draw(st.lists(NUMBERS, max_size=4)))
        elif kind == "merge" and maps:
            merged = draw(st.lists(st.sampled_from(maps), min_size=1, max_size=2, unique=True))
            merge = ("alias", merged[0]) if len(merged) == 1 else (
                "seq", None, [("alias", m) for m in merged])
            value = ("map", None, [("<<", merge), ("k", draw(SCALARS))])
        elif kind in ("map", "merge"):
            maps.append(f"m{i}")
            keys = range(draw(st.integers(1, 3)))
            value = ("map", f"m{i}", [(f"k{j}", draw(NUMBERS)) for j in keys])
        else:
            value = draw(SCALARS)
        items.append((f"k{i}", value))
    if draw(st.booleans()):
        return _flow(("map", None, items))
    return _block(("map", None, items), "")


def _flow(node):
    if isinstance(node, str):
        return node
    if node[0] == "alias":
        return f"*{node[1]}"
    kind, anchor, children = node
    head = f"&{anchor} " if anchor else ""
    if kind == "seq":
        return head + "[" + ", ".join(_flow(c) for c in children) + "]"
    return head + "{" + ", ".join(f"{k}: {_flow(v)}" for k, v in children) + "}"


def _block(node, pad):
    """The lines of a sequence or mapping ``node`` at indent ``pad``."""
    kind, _, children = node
    lines = []
    for key, child in children if kind == "map" else ((None, c) for c in children):
        lead = f"{pad}- " if key is None else f"{pad}{key}: "
        if isinstance(child, str) or child[0] == "alias" or not child[2]:
            lines.append(lead + _flow(child) + "\n")
        else:
            lines.append(lead.rstrip() + (f" &{child[1]}" if child[1] else "") + "\n")
            lines.append(_block(child, pad + "  "))
    return "".join(lines)


def _load(text, loader):
    try:
        return yaml.load(text, Loader=loader)
    except Exception as exc:  # the loaders must fail alike where SafeConstructor fails
        return ("raised", type(exc), str(exc))


def _same_tree(a, b, shared):
    """a and b hold equal values of equal types (repr-equal floats, so NaN and -0.0 count),
    and a list is shared in a exactly where its counterpart is shared in b."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        if shared.setdefault(("a", id(a)), id(b)) != id(b):
            return False
        if shared.setdefault(("b", id(b)), id(a)) != id(a):
            return False
        return len(a) == len(b) and all(_same_tree(x, y, shared) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_tree(a[k], b[k], shared) for k in a)
    return repr(a) == repr(b)


_STOCK_LOADER = type("StockScenarioLoader", (getattr(yaml, "CSafeLoader", yaml.SafeLoader),),
                     {"yaml_implicit_resolvers": cli._YAML_LOADER.yaml_implicit_resolvers})


@settings(derandomize=True, max_examples=300, deadline=None)
@given(yaml_documents())
def test_scenario_loader_gives_the_tree_of_the_stock_loader(text):
    assert _same_tree(_load(text, cli._YAML_LOADER), _load(text, _STOCK_LOADER), {}), text


@pytest.mark.parametrize("row,want", [("[1.5, -0.0]", [1.5, -0.0]), ("[1.5, .inf]", [1.5, math.inf])],
                         ids=["built_here", "built_by_safeconstructor"])
def test_scenario_loader_shares_an_aliased_row(row, want):
    tree = yaml.load(f"a: &r {row}\nb: *r\nc: [*r, *r]", Loader=cli._YAML_LOADER)
    assert tree["a"] is tree["b"] is tree["c"][0] is tree["c"][1]
    assert tree["a"] == want


REPORT_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
)
REPORT_TREES = st.recursive(
    REPORT_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.lists(st.floats(), max_size=4), st.dictionaries(st.text(), kids, max_size=4),
    ),
    max_leaves=40,
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(REPORT_TREES)
def test_render_writes_the_bytes_of_json_dumps(obj):
    assert cli.render(obj) == json.dumps(obj, sort_keys=True, indent=2)
