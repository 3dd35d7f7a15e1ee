"""Span tracer for the benchmark's traced run.

Every public module-level function of each layer module is wrapped at every
name it is looked up by: ``zetalab.zeros.hardy_z`` as well as
``zetalab.specfun.hardy_z``, because the modules import these names directly
and patching only the defining module would miss their calls.  A span records
its name, start, end, parent span and job id, plus the work the call did (the
points, samples or sizes named in ``WORK``).  Spans are kept in memory and
written out by the caller at the end of the run.  Nothing under ``src/``
changes: the wrapping happens at run time, from this file.
"""

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "zeros", "rmt", "hybrid", "toeplitz", "arithmetic", "experiments", "cli")

# span fields
NAME, START, END, PARENT, JOB, WORK, ERROR = range(7)


def _arg(fn, pos, name):
    """Fetch argument ``name`` (positional index ``pos``) from a call, or its default."""
    default = inspect.signature(fn).parameters[name].default

    def get(args, kwargs):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(name, default)

    return get


def _work_extractors(mods):
    """Work done by one call, as a number, for the functions per-layer metrics count."""
    rm, hy, tp, ar = mods["rmt"], mods["hybrid"], mods["toeplitz"], mods["arithmetic"]
    mc_samples = _arg(rm.mc_moment, 2, "samples")
    weyl_n = _arg(rm.weyl_quadrature_oracle, 0, "n")
    weyl_grid = _arg(rm.weyl_quadrature_oracle, 2, "grid")
    hybrid_samples = _arg(hy.mc_hybrid_moment, 2, "samples")
    max_freq = _arg(tp.symbol_coeffs, 2, "max_freq")
    det_size = _arg(tp.toeplitz_det, 1, "size")
    pow_s = _arg(ar.p_x_pow, 0, "s")
    pow_poly = _arg(ar.p_x_pow, 2, "poly")

    def n_zeros(a, k, r):
        return r.n_zeros

    return {
        "specfun.hardy_z": lambda a, k, r: np.size(a[0] if a else k["t"]),
        "specfun.zeta_and_deriv": lambda a, k, r: np.size(a[0] if a else k["s"]),
        "specfun.exp_integral_e1": lambda a, k, r: np.size(a[0] if a else k["z"]),
        "zeros.compute_zeros": lambda a, k, r: len(r),
        "zeros.load_zeros": lambda a, k, r: len(r),
        "rmt.mc_moment": lambda a, k, r: mc_samples(a, k),
        "rmt.weyl_quadrature_oracle": lambda a, k, r: (
            weyl_grid(a, k) ** weyl_n(a, k) if weyl_n(a, k) > 1 else 0
        ),
        "hybrid.mc_hybrid_moment": lambda a, k, r: hybrid_samples(a, k),
        "hybrid.kernel_U_batch": lambda a, k, r: np.size(a[0] if a else k["z_values"]),
        "hybrid.kernel_U": lambda a, k, r: 1,
        "toeplitz.symbol_coeffs": lambda a, k, r: max_freq(a, k) + 2,
        "toeplitz.toeplitz_det": lambda a, k, r: det_size(a, k),
        "arithmetic.a_coeffs": lambda a, k, r: len(r.m),
        "arithmetic.p_x_pow": lambda a, k, r: np.size(pow_s(a, k)) * len(pow_poly(a, k).m),
        "experiments.zeta_prime_moment": n_zeros,
        "experiments.landau_gonek": n_zeros,
        "experiments.px_mean": n_zeros,
        "experiments.twisted_first_moment": n_zeros,
    }


class Tracer:
    """Records spans while ``job`` is set; a pass-through otherwise."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self._patches = []

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = perf_counter()
                span[ERROR] = type(exc).__name__
                stack.pop()
                raise
            span[END] = perf_counter()
            stack.pop()
            if work is not None:
                span[WORK] = int(work(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap every public function of each layer at every module attribute that holds it."""
        mods = {layer: importlib.import_module(f"zetalab.{layer}") for layer in LAYERS}
        work = _work_extractors(mods)
        wrappers = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = self._wrap(name, fn, work.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "zetalab" and not mod_name.startswith("zetalab."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


def layer_metrics(spans, traced_run_s):
    """Per-layer metrics from the spans of one traced job stream."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * n
    e1_child_time = [0.0] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child_time[p] += dur[i]
            if s[NAME] == "specfun.exp_integral_e1":
                e1_child_time[p] += dur[i]

    def under(i, prefix):
        """True if an ancestor of span i is named ``prefix`` or lies in layer ``prefix``."""
        p = spans[i][PARENT]
        while p >= 0:
            name = spans[p][NAME]
            if name == prefix or name.startswith(prefix + "."):
                return True
            p = spans[p][PARENT]
        return False

    total = defaultdict(float)  # inclusive seconds per function
    work = defaultdict(int)
    calls = defaultdict(int)
    errors = defaultdict(int)
    self_by_layer = defaultdict(float)
    self_by_fn = defaultdict(float)
    kernel_u_self = 0.0
    z_points_in_compute = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        own = dur[i] - child_time[i]
        self_by_layer[name.split(".", 1)[0]] += own
        self_by_fn[name] += own
        calls[name] += 1
        if s[ERROR] == "MissingZeroError":
            errors[name] += 1
        if name in ("hybrid.kernel_U_batch", "hybrid.kernel_U"):
            kernel_u_self += dur[i] - e1_child_time[i]
        # count work and inclusive time once per outermost call of a function
        if under(i, name):
            continue
        total[name] += dur[i]
        work[name] += s[WORK]
        if name == "specfun.hardy_z" and under(i, "zeros.compute_zeros"):
            z_points_in_compute += s[WORK]
        if name.startswith("experiments.") and s[ERROR] is None and not under(i, "experiments"):
            work["experiments.zeros_summed"] += s[WORK]

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    m = {}

    def timed(prefix, fn, count, unit):
        """Work count, inclusive seconds and time per unit of work (unit "us" or "ns")."""
        m[f"{prefix}.{count}"] = (work[fn], "count")
        m[f"{prefix}.s"] = (total[fn], "s")
        scale = 1e6 if unit == "us" else 1e9
        m[f"{prefix}.{unit}_per_{count.rstrip('s')}"] = (per(total[fn], work[fn], scale), unit)

    timed("specfun.hardy_z", "specfun.hardy_z", "points", "us")
    timed("specfun.zeta_and_deriv", "specfun.zeta_and_deriv", "points", "us")
    timed("specfun.exp_integral_e1", "specfun.exp_integral_e1", "points", "ns")
    zeros_found = work["zeros.compute_zeros"]
    m["zeros.compute.calls"] = (calls["zeros.compute_zeros"], "count")
    m["zeros.compute.self_s"] = (self_by_fn["zeros.compute_zeros"], "s")
    m["zeros.zeros_found"] = (zeros_found, "count")
    m["zeros.z_points_per_zero"] = (per(z_points_in_compute, zeros_found, 1.0), "ratio")
    m["zeros.missing_zero_errors"] = (errors["zeros.compute_zeros"], "count")
    m["zeros.load.ordinates"] = (work["zeros.load_zeros"], "count")
    m["zeros.load.s"] = (total["zeros.load_zeros"], "s")
    timed("rmt.mc", "rmt.mc_moment", "samples", "us")
    timed("rmt.weyl", "rmt.weyl_quadrature_oracle", "points", "ns")
    timed("hybrid.mc", "hybrid.mc_hybrid_moment", "samples", "us")
    m["hybrid.kernel_U.points"] = (work["hybrid.kernel_U_batch"] + work["hybrid.kernel_U"], "count")
    m["hybrid.kernel_U.self_s"] = (kernel_u_self, "s")
    m["hybrid.fourier_quadrature.s"] = (total["hybrid.fourier_coeffs_by_quadrature"], "s")
    m["toeplitz.symbol_coeffs.freqs"] = (work["toeplitz.symbol_coeffs"], "count")
    m["toeplitz.symbol_coeffs.s"] = (total["toeplitz.symbol_coeffs"], "s")
    m["toeplitz.det.size_sum"] = (work["toeplitz.toeplitz_det"], "count")
    m["toeplitz.det.s"] = (total["toeplitz.toeplitz_det"], "s")
    m["arithmetic.a_coeffs.support"] = (work["arithmetic.a_coeffs"], "count")
    m["arithmetic.a_coeffs.s"] = (total["arithmetic.a_coeffs"], "s")
    m["arithmetic.p_x_pow.terms"] = (work["arithmetic.p_x_pow"], "count")
    m["arithmetic.p_x_pow.s"] = (total["arithmetic.p_x_pow"], "s")
    m["experiments.zeros_summed"] = (work["experiments.zeros_summed"], "count")
    m["cli.jobs"] = (calls["cli.main"], "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_by_layer[layer], "s")
    layer_self = sum(self_by_layer[layer] for layer in LAYERS)
    m["bench.layer_self_share"] = (per(layer_self, traced_run_s, 1.0), "ratio")
    return m
