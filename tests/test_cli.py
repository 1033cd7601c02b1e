import json

import numpy as np
import pytest
import yaml

from qmarket import cli
from qmarket.binomial import crr_price
from qmarket.cli import (
    EXIT_INDETERMINATE,
    EXIT_OK,
    EXIT_VALIDATION,
    build_market,
    main,
    parse_scenario,
    run,
)
from qmarket.errors import ValidationError
from qmarket.market import discount
from qmarket.pricing import CONSUMPTION_PSD_TOL, arbitrage_free_prices, optional_decomposition

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


def test_run_disk_wrong_kind():
    with pytest.raises(ValidationError):
        run("disk", parse_scenario(NPERIOD_YAML))


def test_run_crr():
    report, code = run("crr", parse_scenario(NPERIOD_YAML))
    assert code == EXIT_OK
    out = report["results"]["atm_call"]
    assert out["crr"] == pytest.approx(13.605442176870748, abs=1e-9)
    assert abs(out["difference"]) <= 1e-10


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
    cls = arbitrage_free_prices(payoff, market)
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
]


@pytest.mark.parametrize("field,text", MALFORMED)
def test_main_rejects_malformed_field(tmp_path, capsys, field, text):
    scen = write(tmp_path, text)
    assert main(["check-arbitrage", "--scenario", scen]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


def test_main_singular_barrier_exits_indeterminate(tmp_path, monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    scen = write(tmp_path, TRINOMIAL_YAML)
    assert main(["interval", "--scenario", scen]) == EXIT_INDETERMINATE
    assert "Newton system is singular" in capsys.readouterr().err
