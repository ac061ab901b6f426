"""Runs one benchmark workload in this process and prints its record.

Started by ``run.py`` in a fresh process with the BLAS/OpenMP thread
variables pinned to 1.  The last line of standard output is one JSON
record: metrics, check counts, notes and an environment block.  The exit
code is 1 when any correctness check failed.

Only this file generates inputs, from ``--seed``; the library receives the
generated arrays.  Outputs are checked against numpy references
(``A @ B``, ``np.linalg.inv``), never against the library's own oracles.
"""

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
if not (SRC / "strassennet" / "__init__.py").is_file():
    sys.exit(f"worker: no strassennet sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import sparse  # noqa: E402

from strassennet import core, inversion, strassen  # noqa: E402
from strassennet import io as snn_io  # noqa: E402
from strassennet.gadgets import FACTORIES, GadgetFactory, GadgetSpec  # noqa: E402

from tracing import Tracer, durations, summarize  # noqa: E402

BATCH = 256
NOTE = ("process-local timers only; no hardware counters or system tracing "
        "are used")
SETUPS = 9            # set-ups per run; setup_s is their median
EVAL_BATCHES = 16     # distinct input batches per run
PERSIST_PASSES = 2    # save/reload passes per untraced run; the first is checked
EVAL_MIN_B256 = 3
EVAL_MIN_B1 = 1000    # so the batch-1 tail is always p99
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


# --- cases: one network family member, its inputs and its checks -------------

class MulCase:
    """``build_str_pow2(k, eps, K)`` on ``(A | B)`` with entries in [-K, K]."""

    def __init__(self, k, activation, eps=1e-3, K=1.0, offset=0.0):
        self.k, self.activation, self.eps, self.K = k, activation, eps, K
        self.offset = offset      # nonzero only to prove the gate can fail
        self.label = f"{activation} k={k}"

    def build(self, factory):
        return strassen.build_str_pow2(self.k, self.eps, self.K, factory)

    def count_failure(self, net):
        """None when the counts equal ``formula_counts_pow2`` exactly."""
        leaf = FACTORIES[self.activation].build(
            GadgetSpec(self.eps / 4 ** self.k, 2 ** self.k * self.K))
        want = strassen.formula_counts_pow2(self.k, leaf.num_weights,
                                            leaf.num_layers)
        got = (net.num_weights, net.num_layers)
        return None if got == want else f"{self.label}: counts {got} != {want}"

    def inputs(self, rng, batch):
        side = 2 ** self.k
        A = rng.uniform(-self.K, self.K, (batch, side, side))
        B = rng.uniform(-self.K, self.K, (batch, side, side))
        cols = np.ascontiguousarray(
            np.concatenate([A, B], axis=2).reshape(batch, -1).T)
        return cols, np.matmul(A, B) + self.offset

    def errors(self, out_cols, ref):
        out = out_cols.T.reshape(ref.shape)
        return np.max(np.abs(out - ref), axis=(1, 2))

    def smaller(self):
        return MulCase(max(self.k - 1, 0), self.activation, self.eps, self.K)


class InvCase:
    """``build_inv(InversionSpec(n, 1, eps, delta))`` on ``A = I - B``."""

    def __init__(self, n, activation, eps=1e-3, delta=0.5, offset=0.0):
        self.spec = inversion.InversionSpec(n, 1.0, eps, delta)
        self.activation, self.eps, self.offset = activation, eps, offset
        self.label = f"inv {activation} n={n}"

    def build(self, factory):
        return inversion.build_inv(self.spec, factory)

    def count_failure(self, net):
        """None when the counts meet ``inv_count_reference``."""
        M, L, exact = inversion.inv_count_reference(
            self.spec, FACTORIES[self.activation])
        got = (net.num_weights, net.num_layers)
        ok = got == (M, L) if exact else got[0] <= M and got[1] <= L
        return None if ok else f"{self.label}: counts {got} vs {(M, L)}"

    def inputs(self, rng, batch):
        # B = Q diag(d) Q^T with |d| < delta: the Neumann tail is largest
        # for symmetric B, so the checks probe the edge of the domain
        n = self.spec.n
        Q, _ = np.linalg.qr(rng.standard_normal((batch, n, n)))
        d = self.spec.delta * rng.uniform(-1.0, 1.0, (batch, n))
        B = (Q * d[:, None, :]) @ np.swapaxes(Q, 1, 2)
        A = np.eye(n) - (B + np.swapaxes(B, 1, 2)) / 2.0
        cols = np.ascontiguousarray(A.reshape(batch, -1).T)
        return cols, np.linalg.inv(A) + self.offset

    def errors(self, out_cols, ref):
        out = out_cols.T.reshape(ref.shape)
        return np.linalg.norm(out - ref, ord=2, axis=(1, 2))

    def smaller(self):
        return InvCase(max(self.spec.n // 2, 1), self.activation, self.eps,
                       self.spec.delta)


def workload_cases(name, tiny, offset):
    """The cases of a workload; ``tiny`` shrinks them for the smoke check."""
    if name == "mul-relu-k4":
        return [MulCase(1 if tiny else 4, "relu", offset=offset)]
    if name == "inv-relu-n8":
        return [InvCase(2 if tiny else 8, "relu", offset=offset)]
    raise ValueError(f"unknown workload {name!r}")


# --- checks -----------------------------------------------------------------

class Gate:
    """Counts attempted and failed checks and the worst error over eps."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_err_ratio = 0.0
        self.messages = []

    def outputs(self, case, out_cols, ref):
        ratios = case.errors(out_cols, ref) / case.eps
        self.attempted += ratios.size
        bad = int(np.count_nonzero(~(ratios <= 1.0)))
        if bad:
            self.failed += bad
            self._say(f"{case.label}: {bad} outputs off by more than eps "
                      f"(worst {float(np.nanmax(ratios)):.3g} eps)")
        self.max_err_ratio = max(self.max_err_ratio, float(np.max(ratios)))

    def expect(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._say(message)

    def _say(self, message):
        if len(self.messages) < 20:
            self.messages.append(message)


# --- measurement helpers ----------------------------------------------------

def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


class MixKernel:
    """Small sparse layers, a JSON round trip and an array pass.

    Cache-resident and call-overhead bound, like batch-1 eval.
    """

    nominal_s = 0.4e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.maps = [sparse.random(400, 400, density=0.005, random_state=rng,
                                   format="csr") for _ in range(6)]
        self.bias = rng.standard_normal((400, 1))
        self.rho = rng.random(400) < 0.4
        self.state = rng.standard_normal((400, 1))
        self.rows = [[i, i + 1, i + 2, i + 3, 0.5 * i] for i in range(150)]
        self.block = rng.standard_normal(2 ** 17)

    def __call__(self):
        V = self.state
        for linmap in self.maps:
            V = linmap @ V + self.bias
            V[self.rho, :] = np.maximum(V[self.rho, :], 0.0)
        json.loads(json.dumps(self.rows))
        return float(self.block.sum())


class LayerKernel:
    """A fixed chain of banded sparse layers at batch 256.

    The same steps as a network layer (CSR matvec, bias add, activation on
    two fifths of the rows) on states as wide as a workload's widest
    layers.  Row ``r`` reads ``per_row`` columns from ``r`` on, on average,
    so reads stream through the state as the networks' near-diagonal maps
    do, and the chain is memory bound where the batch-256 eval is.  Its
    shape is a constant of the benchmark, never read from the networks.
    """

    def __init__(self, rows, per_row, layers, nominal_s):
        rng = np.random.default_rng(0)
        self.maps = []
        for _ in range(layers):
            widths = np.floor(per_row + rng.random(rows)).astype(np.int64)
            row_idx = np.repeat(np.arange(rows), widths)
            starts = np.repeat(np.cumsum(widths) - widths, widths)
            cols = (row_idx + np.arange(row_idx.size) - starts) % rows
            vals = rng.uniform(-0.5, 0.5, row_idx.size)
            self.maps.append(sparse.csr_matrix((vals, (row_idx, cols)),
                                               shape=(rows, rows)))
        self.bias = rng.standard_normal(rows)
        self.rho = rng.random(rows) < 0.4
        self.state = rng.standard_normal((rows, BATCH))
        self.nominal_s = nominal_s

    def __call__(self):
        V = self.state
        for linmap in self.maps:
            V = linmap @ V
            V = V + self.bias[:, None]
            V[self.rho, :] = np.maximum(V[self.rho, :], 0.0)
        return V


class PyKernel:
    """Builds sorted entry lists from arrays, dumps them indented, parses them.

    Interpreter bound, like ``io.save_network``, ``io.load_network`` and
    the builders, and short enough to run many times inside one such call.
    """

    nominal_s = 1e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.idx = rng.integers(1, 10000, (100, 4))
        self.val = rng.standard_normal(100)

    def __call__(self):
        entries = sorted([int(i), int(j), int(k), int(l), float(v)]
                         for (i, j, k, l), v in zip(self.idx, self.val))
        return json.loads(json.dumps({"entries": entries}, indent=1))


# Layer kernels sized like each workload's widest eval layers: 12005 state
# rows in the k=4 multiplier, 2808 in the n=8 inverter.
EVAL_KERNELS = {
    "mul-relu-k4": (12005, 2.6, 2, 40e-3),
    "inv-relu-n8": (2808, 1.6, 12, 40e-3),
}


class Probe:
    """Scales a long call by a kernel timed at intervals while it runs.

    A ``SIGALRM`` timer runs the kernel every ``INTERVAL_S`` in this one
    thread, between the call's bytecodes.  The call's wall time minus the
    kernel's is multiplied by the mean of ``nominal_s`` over the kernel's
    times, the host's mean speed during the call.  A call of seconds sees
    the host switch speeds several times; kernel runs only before and
    after it would miss that.  When no tick falls inside a call, one
    kernel run just after it stands in.
    """

    INTERVAL_S = 0.05

    def __init__(self, kernel):
        self.kernel = kernel
        self.factors = []
        self._ticks = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        self._ticks.append(time.perf_counter() - t0)

    def call(self, fn, *args):
        """``(fn(*args), seconds)``, the seconds scaled to nominal speed."""
        self._ticks = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            result, dt = timed(fn, *args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        dt -= sum(self._ticks)
        if not self._ticks:
            self._tick(None, None)
        factor = statistics.fmean(self.kernel.nominal_s / t for t in self._ticks)
        self.factors.append(factor)
        return result, dt * factor

    def mark(self):
        return len(self.factors)

    def factor(self, first):
        """Median factor of the calls since ``first``, for the notes."""
        return statistics.median(self.factors[first:])


class Pace:
    """Scales timings to a fixed host speed with a kernel timed alongside.

    On a host whose cores are shared, the same code runs up to a half
    slower for seconds to minutes at a time, and memory-bound code more
    than the rest.  A kernel that does the same kind of work as the timed
    calls, without calling the library, runs next to them; a timing is
    multiplied by the kernel's ``nominal_s`` over its time measured there.
    That cancels slowdowns that hit the kernel and the library alike; a
    faster library still shows in full, since the kernel does not change.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []

    def _time_kernel(self):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def mark(self):
        return len(self.samples)

    def scaled_calls(self, fn, until):
        """Scaled seconds of ``fn(0)``, ``fn(1)``, ... until ``until``.

        At least one call runs.  The kernel runs before the first call and
        after each, and a call is scaled by the mean of the two kernel runs
        around it.  That also cancels slowdowns lasting only a fraction of
        a second, which set the batch-1 tail.
        """
        kernel_s, calls = [self._time_kernel()], []
        while not calls or time.perf_counter() < until:
            calls.append(timed(fn, len(calls))[1])
            kernel_s.append(self._time_kernel())
        return [dt * 2.0 * self.kernel.nominal_s / (before + after)
                for dt, before, after in zip(calls, kernel_s, kernel_s[1:])]

    def factor(self, first):
        """``nominal_s`` over the median kernel time since ``first``."""
        return self.kernel.nominal_s / statistics.median(self.samples[first:])


def tail(samples):
    """(percentile, value): the highest ladder percentile with >= 10 beyond."""
    n = len(samples)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(samples, p))
    return 0.0, float(max(samples))


def structure_metrics(nets):
    """Work per input computed from public layer attributes (not measured)."""
    flops = state_bytes = csr_bytes = rows = bias_nnz = rho = 0
    for net in nets:
        for layer in net.layers:
            out_size, in_size = layer.out_shape.size, layer.in_shape.size
            nnz_bias = int(np.count_nonzero(layer.bias))
            n_rho = int(np.count_nonzero(layer.mask.rho))
            # multiply-add per map entry, one add per state row, one rho call
            flops += 2 * layer.map.nnz + out_size + n_rho
            state_bytes += 8 * (in_size + out_size)
            csr_bytes += 12 * layer.map.nnz + 8 * (out_size + 1)
            rows += out_size
            bias_nnz += nnz_bias
            rho += n_rho
    bytes_per_input = state_bytes + csr_bytes / BATCH
    return {
        "core.flops_per_input": (flops, "flop"),
        "core.state_bytes_per_input": (state_bytes, "B"),
        "core.ops_per_byte": (flops / bytes_per_input, "flop/B"),
        "core.bias_nnz_frac": (bias_nnz / rows, "frac"),
        "core.rho_frac": (rho / rows, "frac"),
    }


def _entries(net):
    return sum(layer.map.nnz for layer in net.layers)


BUILD_POINTS = (
    ("core.SparseLinearMap", core.SparseLinearMap, "__init__",
     lambda args, result: args[0].nnz),
    ("core.matrix", core.SparseLinearMap, "matrix", None),
    ("core.realize_flat", core, "realize_flat", None),
    ("core.scale_output", inversion, "scale_output", None),
    ("combinators.parallelize", strassen, "parallelize",
     lambda args, result: _entries(result)),
    ("combinators.parallelize", inversion, "parallelize",
     lambda args, result: _entries(result)),
    ("combinators.concat", strassen, "concat", None),
    ("combinators.concat", inversion, "concat", None),
    ("strassen.build_str_pow2", strassen, "build_str_pow2", None),
    ("strassen.build_split", strassen, "build_split", None),
    ("strassen.build_mix", strassen, "build_mix", None),
    ("strassen.build_str_square", inversion, "build_str_square", None),
    ("inversion.build_inv", inversion, "build_inv", None),
)
EVAL_POINTS = (("core.realize_flat", core, "realize_flat",
                lambda args, result: args[2].shape[1]),)
IO_POINTS = (
    ("io.save_network", snn_io, "save_network", None),
    ("io.network_to_dict", snn_io, "network_to_dict",
     lambda args, result: _entries(args[0])),
    ("io.load_network", snn_io, "load_network", None),
    ("io.network_from_dict", snn_io, "network_from_dict",
     lambda args, result: _entries(result)),
    ("core.SparseLinearMap", core.SparseLinearMap, "__init__",
     lambda args, result: args[0].nnz),
)


def build_layer_metrics(spans, first, setup_s, num_weights):
    s = summarize(spans, first)
    return {
        "core.matrix.s": s["core.matrix"]["s"],
        "core.SparseLinearMap.s": s["core.SparseLinearMap"]["s"],
        "core.SparseLinearMap.entries": s["core.SparseLinearMap"]["count"],
        "combinators.parallelize.s": s["combinators.parallelize"]["s"],
        "combinators.parallelize.calls": s["combinators.parallelize"]["calls"],
        "combinators.parallelize.entries_out":
            s["combinators.parallelize"]["count"],
        "combinators.concat.s": s["combinators.concat"]["s"],
        "combinators.concat.calls": s["combinators.concat"]["calls"],
        "build.amplification":
            s["core.SparseLinearMap"]["count"] / num_weights,
        "gadgets.build.s": s["gadgets.build"]["s"],
        "gadgets.build.calls": s["gadgets.build"]["calls"],
        "strassen.build_str_pow2.self_s":
            s["strassen.build_str_pow2"]["self_s"],
        "strassen.build_split.s": s["strassen.build_split"]["s"],
        "strassen.build_mix.s": s["strassen.build_mix"]["s"],
        "inversion.build_inv.self_share":
            s["inversion.build_inv"]["self_s"] / setup_s,
        "inversion.build_str_square.calls":
            s["strassen.build_str_square"]["calls"],
    }


def io_layer_metrics(spans, first, n_nets):
    """io times and entries per save and per load of the workload's nets.

    The checked pass saves every net twice (the re-save) and loads it once.
    """
    s = summarize(spans, first)
    saves = s["io.save_network"]["calls"] / n_nets
    loads = s["io.load_network"]["calls"] / n_nets
    return {
        "io.network_to_dict.s": s["io.network_to_dict"]["s"] / saves,
        "io.save_network.self_s": s["io.save_network"]["self_s"] / saves,
        "io.load_network.self_s": s["io.load_network"]["self_s"] / loads,
        "io.network_from_dict.s": s["io.network_from_dict"]["s"] / loads,
        "io.entries": (s["io.network_to_dict"]["count"] / saves
                       + s["io.network_from_dict"]["count"] / loads),
    }


LAYER_UNITS = {
    ".calls": "count", ".entries": "count", ".entries_out": "count",
    ".amplification": "ratio", ".self_share": "frac", "_mb": "MB",
}


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "s"


def median_dict(rows):
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


# --- the run ----------------------------------------------------------------

class Run:
    """One workload run: set-up, measured phases, checks, optional tracing."""

    def __init__(self, args):
        self.args = args
        offset = 1.0 if args.wrong_reference else 0.0
        self.cases = workload_cases(args.workload, args.tiny, offset)
        self.rng = np.random.default_rng(args.seed)
        self.gate = Gate()
        self.tracer = Tracer() if args.trace else None
        self.metrics = {}
        self.notes = {}
        self.tmp = tempfile.TemporaryDirectory(prefix=".scratch-",
                                               dir=BENCH_DIR)
        self.pace = Pace(MixKernel())
        self.probe = Probe(PyKernel())

    def put(self, name, value, unit):
        self.metrics[name] = {"value": float(value), "unit": unit}

    def factory(self, case, traced):
        base = FACTORIES[case.activation]
        if not traced:
            return base
        return GadgetFactory(base.activation_name,
                             self.tracer.wrap("gadgets.build", base.build))

    def path(self, name):
        return os.path.join(self.tmp.name, name)

    # set-up: builder call through the first realize, which fills the CSR

    def setup_once(self, case, b1_col, b1_ref, traced=False):
        """``(net, scaled seconds, raw seconds)`` of one set-up."""
        def build_and_realize():
            net = case.build(self.factory(case, traced))
            return net, core.realize_flat(net, None, b1_col)

        (net, out), dt = self.probe.call(build_and_realize)
        self.gate.outputs(case, out, b1_ref)
        return net, dt, dt / self.probe.factors[-1]

    def setup_all(self, inputs, traced=False):
        """Build every case once: the nets, scaled and raw set-up seconds."""
        nets, total, raw = [], 0.0, 0.0
        for case, per_case in zip(self.cases, inputs):
            cols, ref = per_case[0]
            net, dt, dt_raw = self.setup_once(case, cols[:, :1], ref[:1],
                                              traced)
            failure = case.count_failure(net)
            self.gate.expect(failure is None, failure)
            nets.append(net)
            total += dt
            raw += dt_raw
        return nets, total, raw

    def setups(self, inputs, reps, traced=False):
        """Repeated set-up: the nets, the median scaled seconds, and the
        per-layer metrics of each rep when traced."""
        times, layer_rows, nets = [], [], None
        probe = self.probe.mark()
        for _ in range(reps):
            nets = None
            gc.collect()
            first = self.tracer.mark() if traced else 0
            if traced:
                with self.tracer.installed(BUILD_POINTS):
                    nets, dt, dt_raw = self.setup_all(inputs, traced=True)
                weights = sum(net.num_weights for net in nets)
                layer_rows.append(build_layer_metrics(
                    self.tracer.spans, first, dt_raw, weights))
            else:
                nets, dt, _ = self.setup_all(inputs)
            times.append(dt)
        self.notes["setup_probe_factor"] = self.probe.factor(probe)
        return nets, statistics.median(times), layer_rows

    # evaluation

    def eval_b256_once(self, nets, batches, pos):
        """Seconds for batch ``pos`` through every net (outputs checked)."""
        total = 0.0
        for case, net, per_case in zip(self.cases, nets, batches):
            cols, ref = per_case[pos % len(per_case)]
            out, dt = timed(core.realize_flat, net, None, cols)
            total += dt
            self.gate.outputs(case, out, ref)
        return total

    def eval_b1_once(self, nets, batches, pos):
        """Seconds for input ``pos`` alone through every net."""
        total = 0.0
        for case, net, per_case in zip(self.cases, nets, batches):
            cols, ref = per_case[(pos // BATCH) % len(per_case)]
            i = pos % BATCH
            out, dt = timed(core.realize_flat, net, None, cols[:, i:i + 1])
            total += dt
            self.gate.outputs(case, out, ref[i:i + 1])
        return total

    def put_eval(self, b256, b1):
        pct, value = tail(b1)
        self.put("eval_per_s", BATCH / statistics.median(b256), "1/s")
        self.put("eval_b1_ms_p50", 1e3 * statistics.median(b1), "ms")
        self.put("eval_b1_ms_tail", 1e3 * value, "ms")
        self.notes.update(eval_b256_samples=len(b256), eval_b1_samples=len(b1),
                          eval_b1_tail_percentile=pct)

    # persistence

    def persist_pass(self, nets, saves, loads, gate_outputs=None):
        """Save and reload every net; with ``gate_outputs``, check the reload."""
        file_bytes = 0
        for pos, (case, net) in enumerate(zip(self.cases, nets)):
            path = self.path(f"net{pos}.json")
            saves[pos].append(
                self.probe.call(snn_io.save_network, net, path)[1])
            file_bytes += os.path.getsize(path)
            loaded, dt = self.probe.call(snn_io.load_network, path)
            loads[pos].append(dt)
            if gate_outputs is not None:
                # the checked re-save and its reload are second samples
                saves[pos].append(self.check_reload(case, net, loaded, path,
                                                    gate_outputs[pos]))
                loads[pos].append(self.probe.call(
                    snn_io.load_network, path + ".again")[1])
                os.remove(path + ".again")
            os.remove(path)
        return file_bytes

    def check_reload(self, case, net, loaded, path, want):
        """Checks a reload; returns the seconds its re-save took."""
        self.gate.expect(core.mnn_equal(net, loaded),
                         f"{case.label}: reload is not mnn_equal")
        cols, out = want
        again = core.realize_flat(loaded, None, cols)
        self.gate.expect(np.array_equal(again, out),
                         f"{case.label}: reload outputs differ")
        _, dt = self.probe.call(snn_io.save_network, loaded, path + ".again")
        with open(path, "rb") as a, open(path + ".again", "rb") as b:
            self.gate.expect(a.read() == b.read(),
                             f"{case.label}: re-save is not byte-identical")
        return dt

    # memory probes (traced runs only)

    def tracemalloc_build(self, inputs):
        peak = 0
        tracemalloc.start()
        try:
            for case, per_case in zip(self.cases, inputs):
                cols, ref = per_case[0]
                tracemalloc.reset_peak()
                net = self.setup_once(case, cols[:, :1], ref[:1])[0]
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                del net
        finally:
            tracemalloc.stop()
        return peak / 2 ** 20

    def tracemalloc_io(self, nets):
        """io peak on the next smaller member of the largest net's family.

        tracemalloc slows JSON io about tenfold, so the full-size network
        would not fit the run's time limit.
        """
        largest = max(range(len(nets)), key=lambda i: nets[i].num_weights)
        case = self.cases[largest].smaller()
        net = case.build(FACTORIES[case.activation])
        path = self.path("probe.json")
        tracemalloc.start()
        try:
            snn_io.save_network(net, path)
            loaded = snn_io.load_network(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        os.remove(path)
        self.gate.expect(core.mnn_equal(net, loaded),
                         f"{case.label}: probe reload is not mnn_equal")
        return peak / 2 ** 20, _entries(net), case.label

    # phases

    def make_inputs(self):
        """Per case, a list of (columns, reference) batches from the seed."""
        return [[case.inputs(self.rng, BATCH) for _ in range(EVAL_BATCHES)]
                for case in self.cases]

    def evaluate(self, nets, batches):
        """Pace-scaled seconds of the batch-256 and the batch-1 calls.

        One batch-256 call, scaled by the layer kernel, alternates with as
        much time in batch-1 calls, scaled by the mix kernel, so both sample
        the whole window of measured seconds.
        """
        b256, b1 = [], []
        t_end = time.perf_counter() + self.args.seconds
        # made here and dropped on return, so its states leave peak RSS alone
        eval_pace = Pace(LayerKernel(*EVAL_KERNELS[self.args.workload]))
        pace = self.pace.mark()
        while (time.perf_counter() < t_end or len(b256) < EVAL_MIN_B256
               or len(b1) < EVAL_MIN_B1):
            t_round = time.perf_counter()
            b256 += eval_pace.scaled_calls(
                lambda i: self.eval_b256_once(nets, batches, len(b256)), 0.0)
            first = len(b1)
            b1 += self.pace.scaled_calls(
                lambda i: self.eval_b1_once(nets, batches, first + i),
                2.0 * time.perf_counter() - t_round)
        self.notes.update(eval_b256_pace_factor=eval_pace.factor(0),
                          eval_b1_pace_factor=self.pace.factor(pace))
        return b256, b1

    def persist(self, nets, batches, passes):
        """Save/load passes; the first checks every reload.

        Every save and load is scaled by the probe.
        """
        saves = [[] for _ in nets]
        loads = [[] for _ in nets]
        gc.collect()
        probe = self.probe.mark()
        want = []
        for net, per_case in zip(nets, batches):
            cols = per_case[0][0]
            want.append((cols, core.realize_flat(net, None, cols)))
        file_bytes = self.persist_pass(nets, saves, loads, want)
        for _ in range(passes - 1):
            self.persist_pass(nets, saves, loads)
        self.notes["persist_probe_factor"] = self.probe.factor(probe)
        return (sum(statistics.median(s) for s in saves),
                sum(statistics.median(s) for s in loads), file_bytes)

    def execute(self):
        inputs = self.make_inputs()
        if self.tracer is not None:
            self.execute_traced(inputs)
            return
        nets, setups, _ = self.setups(inputs, SETUPS)
        self.notes["rss_mb_after_setup"] = peak_rss_mb()
        self.put("setup_s", setups, "s")
        self.put_eval(*self.evaluate(nets, inputs))
        self.notes["rss_mb_after_eval"] = peak_rss_mb()
        save_s, load_s, file_bytes = self.persist(nets, inputs, PERSIST_PASSES)
        self.put("save_s", save_s, "s")
        self.put("load_s", load_s, "s")
        self.put("file_bytes", file_bytes, "B")
        self.put("num_weights", sum(n.num_weights for n in nets), "count")
        self.put("num_layers", sum(n.num_layers for n in nets), "count")
        self.put("max_err_ratio", self.gate.max_err_ratio, "ratio")
        self.put("peak_rss_mb", peak_rss_mb(), "MB")

    def execute_traced(self, inputs):
        """Untraced reference first, then the same phases with spans."""
        tr = self.tracer
        nets, setup_plain, _ = self.setups(inputs, SETUPS)
        b256_plain, _ = self.evaluate(nets, inputs)
        nets = None
        nets, setup_traced, rows = self.setups(inputs, SETUPS, traced=True)
        for name, value in median_dict(rows).items():
            self.put(name, value, layer_unit(name))
        with tr.installed(EVAL_POINTS):
            first = tr.mark()
            b256, b1 = self.evaluate(nets, inputs)
        self.put("core.realize_flat.s", statistics.median(
            durations(tr.spans, "core.realize_flat", first, BATCH)), "s")
        self.put("core.realize_flat.b1_s_per_call", statistics.median(
            durations(tr.spans, "core.realize_flat", first, 1)), "s")
        with tr.installed(IO_POINTS):
            first = tr.mark()
            self.persist(nets, inputs, passes=1)
        for name, value in io_layer_metrics(tr.spans, first, len(nets)).items():
            self.put(name, value, "count" if name == "io.entries" else "s")
        for name, (value, unit) in structure_metrics(nets).items():
            self.put(name, value, unit)
        self.put("build.tracemalloc_peak_mb", self.tracemalloc_build(inputs),
                 "MB")
        peak, entries, label = self.tracemalloc_io(nets)
        self.put("io.tracemalloc_peak_mb", peak, "MB")
        self.put("io.tracemalloc_entries", entries, "count")
        self.notes["io_tracemalloc_network"] = label
        self.put("trace.overhead_setup_s",
                 setup_traced - setup_plain, "s")
        self.put("trace.overhead_eval_per_s",
                 BATCH / statistics.median(b256)
                 - BATCH / statistics.median(b256_plain), "1/s")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    pinned = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
        "pinned_env": {name: os.environ.get(name) for name in pinned},
        "note": NOTE,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", help="write the spans here (traced runs)")
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-check sizes: k=1 and n=2")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="offset every reference by 1 (the gate must fail)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    run = Run(args)
    try:
        run.execute()
    finally:
        run.tmp.cleanup()
    if run.tracer is not None and args.trace_out:
        run.tracer.write(args.trace_out)
    gate = run.gate
    for message in gate.messages:
        print(f"FAILED CHECK: {message}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": gate.failed == 0,
        "attempted": gate.attempted, "failed": gate.failed,
        "failed_frac": gate.failed / max(gate.attempted, 1),
        "metrics": run.metrics, "notes": run.notes,
        "env": environment(args.seed),
    }
    print(json.dumps(record))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
