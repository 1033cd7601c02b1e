"""Single-period qubit market, start to finish.

A bond earning 5% and one risky asset S_1 = 100 (I + A) with
A = 0.05 I + 0.15 sigma_x, so the asset return spectrum is {-10%, +20%}.
We check no-arbitrage, look at the risk-neutral states, and price a call.
"""

import numpy as np

from qmarket import (
    QubitMarketSpec,
    apply_function,
    build_single_period,
    check_no_arbitrage,
    discount,
    euro_call_price,
    euro_call_replication,
    expectation,
    price_bounds,
    risk_neutral_disk,
    sample_disk_states,
)

spec = QubitMarketSpec(0.05, 0.15, 0.0, 0.0, r=0.05, s0=100.0)
market = build_single_period(spec)

print("asset spectrum:", np.linalg.eigvalsh(market.assets[0][1]))
print("bank:", market.bank)

res = check_no_arbitrage(market)
print("\nno-arbitrage status:", res.status)
print("witness Bloch vector:", np.round(res.witness_state.bloch_vector(), 6))

# the faithful martingale states form an open disk in the Bloch ball
disk = risk_neutral_disk(spec)
print("\ndisk normal:", disk.normal, " offset:", disk.offset, " radius:", disk.radius)

# every one of them prices the call identically
payoff = apply_function(market.assets[0][1], lambda s: max(s - 100.0, 0.0))
prices = [
    expectation(rho, payoff) / 1.05
    for rho in sample_disk_states(disk, 5, seed=0)
]
print("prices under 5 sampled risk-neutral states:", np.round(prices, 9))
print("closed form:", euro_call_price(spec, 100.0), " (= 200/21)")

beta, gamma = euro_call_replication(spec, 100.0)
print("\nhedge: beta =", beta, " gamma =", gamma)

iv = price_bounds(payoff / 1.05, discount(market))
print("price interval:", (iv.lower, iv.upper))
print("unique price:", iv.unique_price)
