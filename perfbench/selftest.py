"""Self-test of the benchmark's oracles, checkers, input generator and tracer.

Run from the root of a checkout with either of

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

import shutil
import sys
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles as orc  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wls  # noqa: E402

RUNNING = {"x0": 0.05, "x": [0.15, 0.0, 0.0], "r": 0.05, "s0": 100.0}


def test_running_example_price():
    assert abs(orc.crr_direct_sum(1, 100.0, 100.0, 0.05, -0.1, 0.2) - 200.0 / 21.0) <= 1e-12


def test_trinomial_lp_endpoints():
    rates = np.array([-0.1, 0.05, 0.2])
    outcomes = 100.0 * (1 + rates) / 1.05
    payoff = np.maximum(100.0 * (1 + rates) - 100.0, 0.0) / 1.05
    lo, hi = orc.lp_bounds(outcomes, 100.0, payoff)
    assert abs(lo - 100.0 / 21.0) <= 1e-6 and abs(hi - 200.0 / 21.0) <= 1e-6


def test_disk_radius_of_the_running_example():
    # plane 0.15 v_x = 0 through the centre of the ball: a great disk
    assert abs(orc.disk_radius(0.05, np.array([0.15, 0, 0]), 0.05) - 1.0) <= 1e-15


def _run(ops):
    tally = run.Tally()
    run.run_ops(ops, tally)
    return tally


def test_perturbed_price_counts_as_failed():
    prices = {"k0": 200.0 / 21.0}

    def report(price):
        return {"k0": {"lower": price, "upper": price, "attainable": True, "open": False,
                       "unique_price": price, "replication_alpha": price}}

    check = wls.collapsed_price_check(prices, True)
    good = wls.Op("price", "exact", lambda: report(200.0 / 21.0), check)
    bad = wls.Op("price", "perturbed", lambda: report(200.0 / 21.0 * (1 + 1e-7)), check)
    tally = _run([good, bad])
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)


def test_false_martingale_answer_counts_as_failed():
    data = wls.single_period_data(100.0, wls.qubit_s1(RUNNING), 0.05)
    rng = np.random.default_rng(0)
    on = wls.plane_point(rng, RUNNING["x"], 0.0)
    off = orc.bloch_state(wls.off_plane(rng, on, RUNNING["x"]))
    assert orc.is_martingale(orc.bloch_state(on), data) and not orc.is_martingale(off, data)
    says_yes = types.SimpleNamespace(is_martingale_state=lambda rho, market: True)
    tally = _run([wls.query_op(says_yes, "on", orc.bloch_state(on), None, data),
                  wls.query_op(says_yes, "off", off, None, data)])
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)


def test_raising_operation_counts_as_failed_not_wrong():
    def boom():
        raise RuntimeError("solver gave up")

    tally = _run([wls.Op("check", "raises", boom, lambda out: [])])
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)


def test_witness_and_certificate_checkers():
    data = wls.single_period_data(100.0, wls.qubit_s1(RUNNING), 0.05)
    assert orc.witness_problems(np.eye(2) / 2, data) == []
    assert orc.witness_problems(orc.bloch_state([0.5, 0.0, 0.0]), data)
    dx = data.increment(1)
    assert orc.certificate_problems(np.eye(2), dx)  # not a multiple of dS
    assert orc.certificate_problems(dx, dx)  # dS is indefinite here


def test_same_seed_gives_identical_scenario_files():
    base = HERE / "_work" / "selftest"
    try:
        trees = []
        for name, seed in (("a", 7), ("b", 7), ("c", 8)):
            for wl_name, cls in wls.WORKLOADS.items():
                out = base / name / wl_name
                out.mkdir(parents=True, exist_ok=True)
                cls().generate(seed, out)
            trees.append({p.relative_to(base / name): p.read_bytes()
                          for p in sorted((base / name).rglob("*.yaml"))})
        assert trees[0] and trees[0] == trees[1]
        assert trees[0].keys() == trees[2].keys() and trees[0] != trees[2]
    finally:
        shutil.rmtree(base, ignore_errors=True)


def test_tracer_catches_internal_calls_and_reports_absent_names():
    import qmarket as qm

    original = qm.arbitrage.check_no_arbitrage
    traced = dict(spans.TRACED)
    traced["market"] = traced["market"] + ("no_such_function",)
    rec = spans.Recorder()
    saved, spans.TRACED = spans.TRACED, traced
    try:
        with rec.installed():
            spec = qm.QubitMarketSpec(0.05, 0.15, 0.0, 0.0, 0.05, 100.0)
            market = qm.discount(qm.build_single_period(spec))
            claim = orc.call_payoff(wls.qubit_s1(RUNNING), 100.0) / 1.05
            qm.price_bounds(claim, market)
    finally:
        spans.TRACED = saved
    assert qm.arbitrage.check_no_arbitrage is original
    assert rec.absent == ["market.no_such_function"]
    by_id = {s["id"]: s for s in rec.spans}
    inner = [s for s in rec.spans if s["name"] == "arbitrage.check_no_arbitrage"]
    assert inner and by_id[inner[0]["parent"]]["name"] == "pricing.price_bounds"
    totals = rec.totals()
    assert totals["pricing.price_bounds"][1] == 1 and totals["market.MarketModel"][1] >= 2
    assert all(s["dur_s"] >= s["child_s"] for s in rec.spans)


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError:
                failures += 1
                print(f"FAIL {name}")
    sys.exit(1 if failures else 0)
