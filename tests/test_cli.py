import json

import numpy as np
import pytest
import yaml

from qmarket import cli
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
    assert sc["solver"]["seed"] == 42
    assert sc["solver"]["max_iters"] > 0


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
    # r above and below the band [-0.1, 0.2]
    for rate in ("0.3", "-0.2"):
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


def test_env_override_limits_iterations(tmp_path, monkeypatch, capsys):
    scen = write(tmp_path, QUBIT_YAML)
    monkeypatch.setenv("QMARKET_MAX_ITERS", "5")
    code = main(["check-arbitrage", "--scenario", scen])
    assert code in (EXIT_OK, EXIT_INDETERMINATE)
    report = json.loads(capsys.readouterr().out)
    assert report["diagnostics"]["iterations"] <= 200


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


def test_main_decompose_two_periods_rejects_unattainable_claim(tmp_path, capsys):
    with pytest.raises(ValidationError, match="attainable claims only"):
        run("decompose", parse_scenario(TWO_PERIOD_EXPLICIT_YAML))
    scen = write(tmp_path, TWO_PERIOD_EXPLICIT_YAML)
    assert main(["decompose", "--scenario", scen]) == EXIT_VALIDATION
    assert "horizon 2" in capsys.readouterr().err


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
    pytest.param("market.x0", QUBIT_YAML.replace("x0: 0.05", "x0: abc"), None, id="x0"),
    pytest.param("market.n", NPERIOD_YAML.replace("n: 2", "n: two"), None, id="n"),
    pytest.param("market.dim", TRINOMIAL_YAML.replace("dim: 3", "dim: x"), None, id="dim"),
    pytest.param(
        "claims[0].strike", QUBIT_YAML.replace("strike: 100.0", "strike: [1]"), None, id="strike"
    ),
    pytest.param("claims", QUBIT_YAML.split("claims:")[0] + "claims: 5\n", None, id="claims"),
    pytest.param("solver", QUBIT_YAML.split("solver:")[0] + "solver: 5\n", None, id="solver"),
    pytest.param("solver.max_iters", QUBIT_YAML + "  max_iters: lots\n", None, id="max_iters"),
    pytest.param("solver.max_iters", QUBIT_YAML + "  max_iters: 0\n", None, id="max_iters_0"),
    pytest.param("QMARKET_MAX_ITERS", QUBIT_YAML, "abc", id="env_max_iters"),
    pytest.param("QMARKET_MAX_ITERS", QUBIT_YAML, "0", id="env_max_iters_0"),
    pytest.param("market.n", NPERIOD_YAML.replace("n: 2", "n: 2.7"), None, id="n_fraction"),
    pytest.param("solver.seed", QUBIT_YAML.replace("seed: 42", "seed: 1.5"), None, id="seed"),
    pytest.param(
        "claims[0].name", QUBIT_YAML.replace("name: atm_call", "name: [1]"), None, id="name"
    ),
    pytest.param(
        "claims[1].name",
        QUBIT_YAML.replace(
            "solver:", "  - name: atm_call\n    type: call\n    strike: 90.0\nsolver:"
        ),
        None,
        id="name_repeated",
    ),
]


@pytest.mark.parametrize("field,text,env_iters", MALFORMED)
def test_main_rejects_malformed_field(tmp_path, monkeypatch, capsys, field, text, env_iters):
    if env_iters is not None:
        monkeypatch.setenv("QMARKET_MAX_ITERS", env_iters)
    scen = write(tmp_path, text)
    assert main(["check-arbitrage", "--scenario", scen]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
