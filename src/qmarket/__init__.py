"""Finite-dimensional non-commutative financial markets.

Library layout:

* :mod:`qmarket.operators` -- dense Hermitian algebra, spectra, tensor products
* :mod:`qmarket.quantum` -- states, events, expectations, faithfulness
* :mod:`qmarket.market` -- filtrations, markets, strategies, gain processes
* :mod:`qmarket.arbitrage` -- martingale-state feasibility and certificates
* :mod:`qmarket.pricing` -- replication, price intervals, optional decomposition
* :mod:`qmarket.binomial` -- qubit / N-period binomial markets and CRR pricing
* :mod:`qmarket.cli` -- scenario-file driver (``qmarket`` command)
"""

from .arbitrage import (
    FAITHFUL_STATE_FOUND,
    INDETERMINATE,
    NO_FAITHFUL_STATE,
    FeasibilityResult,
    check_no_arbitrage,
    is_martingale_state,
)
from .binomial import (
    NPeriodSpec,
    QubitMarketSpec,
    build_n_period,
    build_single_period,
    classical_tree_price,
    complementary_binomial,
    crr_price,
    euro_call_price,
    euro_call_replication,
    product_martingale_state,
    risk_neutral_disk,
    sample_disk_points,
    sample_disk_states,
)
from .errors import (
    ArbitrageError,
    InternalConsistencyError,
    QMarketError,
    SolverError,
    ValidationError,
)
from .market import (
    Filtration,
    MarketModel,
    OperatorAlgebra,
    TradingStrategy,
    attainable_space_basis,
    bimodule_apply,
    discount,
    gain_process,
    tensor_qubit_filtration,
    value_process,
)
from .operators import (
    apply_function,
    as_hermitian,
    hs_inner,
    min_eigenvalue,
    spectral_decompose,
    tensor_product,
)
from .pricing import (
    PriceInterval,
    Replication,
    is_complete,
    optional_decomposition,
    price_bounds,
    replicate,
    supermartingale_check,
)
from .quantum import (
    DensityState,
    dephase,
    event_probability,
    expectation,
    is_faithful,
    pure_state,
)

__version__ = "0.1.0"
