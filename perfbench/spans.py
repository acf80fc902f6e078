"""Span tracer that wraps anyongas functions from outside the package.

Each call of a wrapped function is one span.  Spans are kept in memory and
folded as they close into a table of call count, self time (span time
minus the time of its child spans), failures and the slowest single call.
The table sits in shared memory with one row block per process, because
the CLI maps rows through a fork-started process pool: a pool worker
inherits the wrappers and records its spans in a block of its own.  The
parent does not see the worker's spans as children, so a caller's self
time includes the time it waited for the pool.
"""

import functools
import importlib
import multiprocessing
import os
import sys
import time

FIELDS = ("calls", "self_s", "failed", "max_s", "inner")
_CALLS, _SELF, _FAILED, _MAX, _INNER = range(len(FIELDS))


def _fermi_branch(x, order=None, method="auto"):
    try:
        series = method == "series" or (method == "auto" and float(x) <= 1.0)
    except (TypeError, ValueError):
        series = True
    return "qfunctions.fermi_f_series" if series else "qfunctions.fermi_f_integral"


def _nonzero_status(status):
    return status != 0


SOLVE = "thermo.solve_fugacity"

# (span name, module, attribute, options); an attribute with a dot is a method
TARGETS = (
    ("cli.main", "anyongas.cli", "main", {"failed_if": _nonzero_status}),
    (SOLVE, "anyongas.thermo", "solve_fugacity", {}),
    ("thermo.b_density_supremum", "anyongas.thermo", "b_density_supremum", {}),
    ("thermo.b_state", "anyongas.thermo", "b_state", {}),
    ("thermo.f_state", "anyongas.thermo", "f_state", {}),
    ("thermo.virial_coefficients", "anyongas.thermo", "virial_coefficients", {}),
    ("thermo.brentq", "anyongas.thermo", "brentq", {}),
    ("qfunctions.quad", "anyongas.qfunctions", "quad", {}),
    # a density evaluation is a bose_g or fermi_f call made inside a solve
    ("qfunctions.bose_g", "anyongas.qfunctions", "bose_g", {"inside": SOLVE}),
    ("qfunctions.fermi_f", "anyongas.qfunctions", "fermi_f",
     {"inside": SOLVE, "branch": _fermi_branch}),
    ("kernels.g_series_sum", "anyongas.kernels", "g_series_sum", {}),
    ("kernels.f_series_sum", "anyongas.kernels", "f_series_sum", {}),
    ("kernels.cf_convergent_value", "anyongas.kernels", "cf_convergent_value", {}),
    ("distributions.b_occupation", "anyongas.distributions", "b_occupation", {}),
    ("distributions.b_occupation_jd", "anyongas.distributions", "b_occupation_jd", {}),
    ("distributions.cf_bounds", "anyongas.distributions", "cf_bounds", {}),
    ("distributions.cf_convergent", "anyongas.distributions", "cf_convergent", {}),
    ("distributions.f_occupation", "anyongas.distributions", "f_occupation", {}),
    ("distributions.f_occupation_arcsin", "anyongas.distributions",
     "f_occupation_arcsin", {}),
    ("qcore.basic_number", "anyongas.qcore", "basic_number", {}),
    ("qcore.PowerSeries.compose", "anyongas.qcore", "PowerSeries.compose", {}),
    ("qcore.PowerSeries.revert", "anyongas.qcore", "PowerSeries.revert", {}),
    ("oracle.run_verification", "anyongas.oracle", "run_verification", {}),
    ("oracle.trace_average", "anyongas.oracle", "trace_average", {}),
    ("oracle.taylor_reference", "anyongas.oracle", "taylor_reference", {}),
    ("algebra.build_b_rep", "anyongas.algebra", "build_b_rep", {}),
    ("algebra.rep_report", "anyongas.algebra", "rep_report", {}),
)

SPAN_NAMES = tuple(
    name for target in TARGETS
    for name in (("qfunctions.fermi_f_series", "qfunctions.fermi_f_integral")
                 if "branch" in target[3] else (target[0],))
)


# row blocks in the shared table: the benchmark's process and every pool
# worker the CLI starts while tracing is on each take one
MAX_PROCESSES = 4096


class Tracer:
    """Aggregates spans of wrapped calls, across forked worker processes."""

    def __init__(self):
        self.names = SPAN_NAMES
        self.index = {name: i for i, name in enumerate(self.names)}
        self._width = len(self.names) * len(FIELDS)
        self._table = multiprocessing.RawArray("d", MAX_PROCESSES * self._width)
        self._slots = multiprocessing.RawValue("i", 0)
        self._slot_lock = multiprocessing.Lock()
        self._pid = None
        self._base = 0
        self._stack = []
        self._depth = [0] * len(self.names)
        self._undo = []

    def _claim_block(self):
        # first span in this process: take a fresh row block, drop the stack
        # inherited through fork (its spans belong to the parent)
        with self._slot_lock:
            slot = self._slots.value
            self._slots.value = slot + 1
        if slot >= MAX_PROCESSES:
            raise RuntimeError(f"more than {MAX_PROCESSES} traced processes")
        self._pid = os.getpid()
        self._base = slot * self._width
        self._stack = []
        self._depth = [0] * len(self.names)

    def call(self, i, func, args, kwargs, failed_if=None, inside=None):
        """Run func as one span of row i."""
        if self._pid != os.getpid():
            self._claim_block()
        stack = self._stack
        frame = [0.0]  # time covered by child spans
        stack.append(frame)
        self._depth[i] += 1
        failed = True
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
            failed = failed_if is not None and failed_if(result)
            return result
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self._depth[i] -= 1
            if stack:
                stack[-1][0] += elapsed
            table, row = self._table, self._base + i * len(FIELDS)
            table[row + _CALLS] += 1.0
            table[row + _SELF] += elapsed - frame[0]
            if failed:
                table[row + _FAILED] += 1.0
            if elapsed > table[row + _MAX]:
                table[row + _MAX] = elapsed
            if inside is not None and self._depth[inside]:
                table[self._base + inside * len(FIELDS) + _INNER] += 1.0

    def wrap(self, func, name, branch=None, failed_if=None, inside=None):
        """A wrapper that records every call of func as a span."""
        index = None if branch else self.index[name]
        inside_index = None if inside is None else self.index[inside]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            i = index if branch is None else self.index[branch(*args, **kwargs)]
            return self.call(i, func, args, kwargs, failed_if, inside_index)

        return wrapper

    def install(self):
        """Wrap each target in every anyongas namespace that holds it."""
        for name, module_name, attribute, options in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._replace(owner, method, self.wrap(original, name, **options))
                continue
            original = getattr(module, attribute)
            wrapper = self.wrap(original, name, **options)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "anyongas":
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, key, wrapper)

    def _replace(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        """Put every original function back."""
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def totals(self):
        """{span name: {field: value}}: sums over processes, max for max_s."""
        blocks = min(self._slots.value, MAX_PROCESSES)
        out = {}
        for i, name in enumerate(self.names):
            fields = dict.fromkeys(FIELDS, 0.0)
            for block in range(blocks):
                row = block * self._width + i * len(FIELDS)
                for f, field in enumerate(FIELDS):
                    value = self._table[row + f]
                    if f == _MAX:
                        fields[field] = max(fields[field], value)
                    else:
                        fields[field] += value
            out[name] = fields
        return out
