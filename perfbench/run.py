"""qmarket benchmark: one closed-loop client, seeded workloads, oracle-checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload nperiod-price --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer figures of
a traced run (see README.md).  The package is imported from ``src/`` of the
checkout; without it the benchmark exits with code 2 and prints no result.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: the load comes from one process and stays steady on a
# shared machine.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 1.0
PROBE_REF_S = 1e-3
KINDS = ("check", "price", "replicate", "interval", "decompose", "query")
MAX_REPORTED_FAILURES = 5


class Tally:
    """Attempted and failed operations; a failure never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def fail(self, op, why, wrong):
        self.failed += 1
        self.wrong += int(wrong)
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED {op.kind} [{op.label}]: {why}", file=sys.stderr)


class SpeedProbe:
    """Times a fixed numpy-and-Python kernel between operations.

    The machine the benchmark was tuned on changes speed under the process:
    the same work took up to 1.7x longer for seconds to minutes at a time.
    The kernel slows with it, so scaling an operation's time by
    PROBE_REF_S / (kernel time around it) takes most of the machine's speed
    out of the figure.  The kernel runs no qmarket code.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        self._mat = 0.5 * (m + m.conj().T)
        self._vecs = rng.standard_normal((40, 64))
        g = rng.standard_normal((60, 60))
        self._spd = g @ g.T + 60.0 * np.eye(60)
        self._rhs = rng.standard_normal(60)
        self.samples = []
        self._last = float("-inf")

    def _kernel(self):
        # the shapes of qmarket's hot loops: small-vector projections in Python,
        # small Hermitian eigenproblems, a Newton-sized linear solve and inverse
        v = self._vecs[0].copy()
        for _ in range(2):
            for b in self._vecs:
                v = v - float(v @ b) * b
        for _ in range(5):
            np.linalg.eigvalsh(self._mat)
        np.linalg.solve(self._spd, self._rhs)
        np.linalg.inv(self._mat)
        return v

    def sample(self):
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.samples.append((t0, t1 - t0))
        self._last = t1

    def maybe(self):
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def burst(self, n=10):
        for _ in range(n):
            self.sample()

    def scale(self, t0, t1):
        """PROBE_REF_S over the median kernel time within PROBE_WINDOW_S of [t0, t1]."""
        near = [dt for t, dt in self.samples if t0 - PROBE_WINDOW_S <= t <= t1 + PROBE_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        return PROBE_REF_S / statistics.median(near)


def run_ops(ops, tally, recorder=None, probe=None):
    """Run one round in order; returns [(kind, label, start, seconds, ok)] per operation."""
    times = []
    for op in ops:
        tally.attempted += 1
        if probe is not None:
            probe.maybe()
        t0 = time.perf_counter()
        try:
            if recorder is None:
                out = op.call()
            else:
                with recorder.span("op." + op.kind, label=op.label):
                    out = op.call()
        except Exception:  # the run must go on; the failure is counted and shown
            times.append((op.kind, op.label, t0, time.perf_counter() - t0, False))
            tally.fail(op, traceback.format_exc(limit=3).strip().splitlines()[-1], wrong=False)
            continue
        dt = time.perf_counter() - t0
        try:
            problems = op.check(out)
        except Exception:  # a malformed report is a wrong answer
            problems = ["checker raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
        if problems:
            tally.fail(op, "; ".join(problems[:3]), wrong=True)
        times.append((op.kind, op.label, t0, dt, not problems))
    return times


def _keep_going(start, done, seconds):
    """Start another round only if it is expected to end within the run length."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def end_to_end(visits, setup_s, probe):
    """End-to-end metrics from repeated visits of the same operations.

    Rounds of the pool are visited in turn over the whole run, so each
    operation (one input of one kind) is visited once or more.  Its time is
    the median of its visits, each scaled by the speed probe.  A kind's
    figure is the geometric mean of those times over its operations in one
    pass: solver times spread over a decade between inputs of the same size,
    and an arithmetic mean over a few dozen of them follows the slowest few.
    """
    best = {}
    for key, recs in visits.items():
        ok = [dt * probe.scale(t0, t0 + dt) for _, _, t0, dt, good in recs if good]
        if ok:
            best[key] = (recs[0][0], statistics.median(ok))
    metrics = {"setup_s": (setup_s, "s")}
    metrics["ops_per_s"] = (1.0 / statistics.geometric_mean(dt for _, dt in best.values()), "ops/s")
    for kind in KINDS:
        dts = [dt for k, dt in best.values() if k == kind]
        if dts:
            metrics[f"{kind}_s"] = (statistics.geometric_mean(dts), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(recorder, rounds, untraced_s, traced_s):
    """Per-round self time, calls and sizes from the traced rounds, plus the overhead."""
    metrics = {}
    for name, (self_s, calls) in recorder.totals().items():
        metrics[f"{name}.self_s"] = (self_s / rounds, "s")
        metrics[f"{name}.calls"] = (calls / rounds, "count")
    for name, total in recorder.sizes.items():
        metrics[name] = (total / rounds, "count")
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qmarket" / "__init__.py").is_file():
        print(f"error: no qmarket package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import qmarket as qm
    import qmarket.cli  # noqa: F401  (the CLI is driven in-process)

    import_s = time.perf_counter() - t0
    if Path(qm.__file__).resolve().parent != (src / "qmarket").resolve():
        print(f"error: qmarket imported from {qm.__file__}, not {src}", file=sys.stderr)
        return 2

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = ROOT / "perfbench" / "_work" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]()

    probe = SpeedProbe()
    probe.burst()
    import_s *= probe.scale(*probe.samples[0])
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = wl.generate(args.seed, workdir)
        workloads.warmup(qm, workdir)
        t1 = time.perf_counter()
        probe.burst()
        setups.append((t1 - t0) * probe.scale(t0, t1))
    setup_s = import_s + statistics.median(setups)

    tally = Tally()
    start = time.perf_counter()
    if args.trace:
        recorder = spans.Recorder()
        untraced_s = traced_s = 0.0
        pairs = 0
        while True:
            untraced_s += sum(t[3] for t in run_ops(wl.trace_round(qm, pool, workdir), tally))
            with recorder.installed(), recorder.span("round", index=pairs):
                times = run_ops(wl.trace_round(qm, pool, workdir), tally, recorder)
            traced_s += sum(t[3] for t in times)
            pairs += 1
            if not _keep_going(start, pairs, args.seconds):
                break
        recorder.write_jsonl(workdir / "trace.jsonl")
        for name in recorder.absent:
            print(f"absent: {name} is not in this version of qmarket", file=sys.stderr)
        metrics = per_layer(recorder, pairs, untraced_s, traced_s)
    else:
        visits = {}
        rounds = 0
        while True:
            p = rounds % len(pool)
            for i, rec in enumerate(run_ops(wl.round_ops(qm, pool[p], workdir), tally, probe=probe)):
                visits.setdefault((p, i), []).append(rec)
            rounds += 1
            if rounds >= len(pool) and not _keep_going(start, rounds, args.seconds):
                break
        with open(workdir / "ops.jsonl", "w", encoding="utf-8") as fh:
            for (p, i), recs in sorted(visits.items()):
                for kind, label, t0, dt, ok in recs:
                    row = {"round": p, "op": i, "kind": kind, "label": label, "start": t0 - start,
                           "seconds": dt, "scale": probe.scale(t0, t0 + dt), "ok": ok}
                    fh.write(json.dumps(row) + "\n")
        with open(workdir / "probe.jsonl", "w", encoding="utf-8") as fh:
            for t0, dt in probe.samples:
                fh.write(json.dumps({"start": t0 - start, "seconds": dt}) + "\n")
        metrics = end_to_end(visits, setup_s, probe)

    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
