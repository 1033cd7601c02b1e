"""Span recorder that wraps qmarket's public functions from outside the package.

Each traced function is replaced, by identity, in every loaded ``qmarket``
module that holds it, so calls between modules (``price_bounds ->
check_no_arbitrage``) are caught as well as calls from the benchmark.
Classes are traced through their ``__init__``.  Spans stay in memory and are
written as JSON lines when the run ends; a span's self time is its duration
minus the durations of its direct children.
"""

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

TRACED = {
    "cli": ("parse_scenario", "build_market", "run"),
    "market": ("MarketModel", "discount", "attainable_generators", "attainable_space_basis"),
    "arbitrage": (
        "build_constraints",
        "martingale_affine_slice",
        "maximize_lambda_min",
        "max_min_eig_over_slice",
        "check_no_arbitrage",
        "is_martingale_state",
    ),
    "pricing": (
        "replicate",
        "price_bounds",
        "arbitrage_free_prices",
        "optional_decomposition",
        "supermartingale_check",
    ),
    "binomial": (
        "build_n_period",
        "build_single_period",
        "risk_neutral_disk",
        "sample_disk_states",
        "product_martingale_state",
    ),
    "operators": ("apply_function",),
}


def _slice_dim(result):
    return 0 if result is None else len(result[1])


# size counter name -> (traced function, how to read the size from its result)
SIZES = {
    "market.generators": ("market.attainable_generators", len),
    "arbitrage.rank": ("arbitrage.build_constraints", len),
    "arbitrage.slice_dim": ("arbitrage.martingale_affine_slice", _slice_dim),
    "arbitrage.lambda_evals": ("arbitrage.maximize_lambda_min", lambda res: int(res[2])),
}

TRACED_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Recorder:
    """In-memory spans with parent links, call counts and size counters."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._t0 = time.perf_counter()
        self.sizes = {name: 0 for name in SIZES}
        self.absent = []
        self._size_of = {fn: (name, read) for name, (fn, read) in SIZES.items()}

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "parent": parent, "name": name, "child_s": 0.0}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        start = time.perf_counter()
        try:
            yield rec
        finally:
            end = time.perf_counter()
            self._stack.pop()
            rec["start_s"] = start - self._t0
            rec["dur_s"] = end - start
            if parent is not None:
                self.spans[parent]["child_s"] += rec["dur_s"]

    def _wrap(self, name, fn):
        size = self._size_of.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if size is not None:
                counter, read = size
                try:
                    self.sizes[counter] += read(result)
                except (TypeError, IndexError, ValueError):
                    pass  # a later package version returns another shape
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name into the loaded qmarket modules; undo on exit."""
        undo = []
        modules = [m for k, m in sys.modules.items() if k == "qmarket" or k.startswith("qmarket.")]
        try:
            for mod_name, fns in TRACED.items():
                try:
                    home = importlib.import_module("qmarket." + mod_name)
                except ImportError:
                    self.absent.extend(f"{mod_name}.{fn}" for fn in fns)
                    continue
                for fn_name in fns:
                    name = f"{mod_name}.{fn_name}"
                    orig = getattr(home, fn_name, None)
                    if orig is None:
                        self.absent.append(name)
                    elif inspect.isclass(orig):
                        init = orig.__dict__.get("__init__", orig.__init__)
                        undo.append((orig, "__init__", orig.__dict__.get("__init__")))
                        orig.__init__ = self._wrap(name, init)
                    else:
                        wrapped = self._wrap(name, orig)
                        for mod in modules:
                            for attr, value in list(vars(mod).items()):
                                if value is orig:
                                    undo.append((mod, attr, value))
                                    setattr(mod, attr, wrapped)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                if value is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, value)

    def totals(self):
        """Per traced name: (self seconds, calls)."""
        out = {name: [0.0, 0] for name in TRACED_NAMES}
        for rec in self.spans:
            if rec["name"] in out:
                out[rec["name"]][0] += rec["dur_s"] - rec["child_s"]
                out[rec["name"]][1] += 1
        return out

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                row = {k: v for k, v in rec.items() if k != "child_s"}
                row["self_s"] = rec["dur_s"] - rec["child_s"]
                fh.write(json.dumps(row, sort_keys=True) + "\n")
