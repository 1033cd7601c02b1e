"""Incomplete market: a trinomial asset with three outcomes and one bond.

The call cannot be replicated, so instead of a single price there is an
open interval of arbitrage-free prices.  The super-replication of the
upper price produces a hedge plus a consumption term.
"""

import numpy as np

from qmarket import (
    Filtration,
    MarketModel,
    OperatorAlgebra,
    apply_function,
    discount,
    gain_process,
    is_complete,
    optional_decomposition,
    price_bounds,
)

s0, r = 100.0, 0.05
rates = np.array([-0.1, 0.05, 0.2])
filt = Filtration([OperatorAlgebra.trivial(3), OperatorAlgebra.full(3)])
s1 = s0 * np.diag(1.0 + rates).astype(complex)
market = MarketModel(filt, [1.0, 1 + r], [[s0 * np.eye(3, dtype=complex), s1]])
dm = discount(market)

print("terminal prices:", np.diag(s1).real)
print("complete?", is_complete(dm).complete)

claim = apply_function((1 + r) * dm.assets[0][1], lambda s: max(s - 100.0, 0.0)) / (1 + r)
iv = price_bounds(claim, dm)
print("\nprice interval: ({:.6f}, {:.6f})".format(iv.lower, iv.upper))
print("attainable:", iv.attainable, " gaps:", iv.gaps)
print("exact endpoints would be 100/21 and 200/21")

# super-replicate from the upper price
dec = optional_decomposition([iv.upper * np.eye(3), claim], dm)
gain = gain_process(dec.strategy, dm)[-1]
print("\nsuper-hedge initial capital:", dec.v0)
print("hedge gain diag:", np.round(np.diag(gain).real, 6))
print("consumption diag:", np.round(np.diag(dec.consumption[-1]).real, 6))
