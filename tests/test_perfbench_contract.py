"""The names the benchmark reads from the package.

``Tracer.install`` (perfbench/tracing.py) looks up, by name, every function
whose work it counts and the position of the argument it reads; a renamed
function or argument makes it raise.  The per-job checks of
perfbench/workloads.py call package functions by name, and a test here finds
each of them in its source.  So a simplification of the package cannot break
the benchmark silently.
"""

import math
import re
from pathlib import Path

import numpy as np

from zetalab import arithmetic, experiments, hybrid, rmt, specfun, toeplitz, zeros

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# a module attribute in code, not the tail of a path or a file name like "zeros.txt"
_MODULE_NAME = re.compile(r"(?<![\w./\"'])(experiments|hybrid|rmt|toeplitz|zeros)\.(\w+)")


def test_names_the_workload_checks_read_exist():
    modules = {"experiments": experiments, "hybrid": hybrid, "rmt": rmt, "toeplitz": toeplitz, "zeros": zeros}
    used = set(_MODULE_NAME.findall((PERFBENCH / "workloads.py").read_text()))
    assert ("experiments", "landau_gonek") in used and ("zeros", "load_zeros") in used
    missing = [f"{mod}.{name}" for mod, name in sorted(used) if not hasattr(modules[mod], name)]
    assert missing == []


def test_tracer_installs_counts_and_uninstalls(monkeypatch, smoothing_y4, zeros_100):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv(zeros.CACHE_ENV, raising=False)  # compute_zeros(60) below computes
    import tracing

    originals = (rmt.mc_moment, hybrid.mc_hybrid_moment)
    params = hybrid.HybridParams(n=4, x_cutoff=math.e**3, smoothing=smoothing_y4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = 0
        poly = arithmetic.a_coeffs(1.0, math.log(100.0), m_max=100)
        rmt.mc_moment(4, 1.0, 100, 0)
        hybrid.mc_hybrid_moment(params, 1.0, 200, 0)
        rmt.weyl_quadrature_oracle(2, 1.0, 64)
        specfun.zeta_and_deriv(0.5 + 1j * np.linspace(100.0, 200.0, 10))
        experiments.px_mean(zeros_100, 100.0, 1.0, math.log(100.0))
        zeros.compute_zeros(60.0)
    finally:
        tracer.job = None
        tracer.uninstall()
    assert (rmt.mc_moment, hybrid.mc_hybrid_moment) == originals
    # the samples are read from their argument positions; hybrid samples are
    # not counted again under rmt.mc_moment
    mc = [(s[tracing.NAME], s[tracing.WORK]) for s in tracer.spans if "mc_" in s[tracing.NAME]]
    assert mc == [("rmt.mc_moment", 100), ("hybrid.mc_hybrid_moment", 200)]
    # the Weyl oracle's points are grid**n, read from positions 0 and 2
    weyl = [s[tracing.WORK] for s in tracer.spans if s[tracing.NAME] == "rmt.weyl_quadrature_oracle"]
    assert weyl == [64**2]
    # zeta' points are the size of the s argument; compute_zeros(60) takes Z and
    # Z' by Euler-Maclaurin once at each of its 13 predicted roots
    zeta = [s[tracing.WORK] for s in tracer.spans if s[tracing.NAME] == "specfun.zeta_and_deriv"]
    assert zeta == [10, 13]
    # px_mean counts its zeros; P_X at the zeros is its traced child
    # p_x_euler, and the truncated series p_x_pow is not called
    spans = tracer.spans
    px = [i for i, s in enumerate(spans) if s[tracing.NAME] == "experiments.px_mean"]
    assert [spans[i][tracing.WORK] for i in px] == [len(zeros_100.below(100.0))]
    children = {s[tracing.NAME] for s in spans if s[tracing.PARENT] == px[0]}
    assert "arithmetic.p_x_euler" in children and "arithmetic.p_x_pow" not in children
    # an a_coeffs span's work is its support size; the private expansion it
    # calls gets no span of its own
    support = [s[tracing.WORK] for s in spans if s[tracing.NAME] == "arithmetic.a_coeffs"]
    assert support == [len(poly.m)]
    assert not any("smooth_expand" in s[tracing.NAME] for s in spans)
    # a compute_zeros span's work is the length of the list it returns
    found = [s[tracing.WORK] for s in spans if s[tracing.NAME] == "zeros.compute_zeros"]
    assert found == [13]


def test_traced_toeplitz_route_and_its_dense_oracle(monkeypatch, smoothing_y4):
    # es_comparison is one power-series coefficient: no symbol or determinant
    # child span; check_toeplitz's oracle call still runs and is counted
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    k, n = 1.0, 16
    params = hybrid.HybridParams(n=n, x_cutoff=math.e**3, smoothing=smoothing_y4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = 0
        det = toeplitz.es_comparison(k, params).det
        dense = toeplitz.toeplitz_det(toeplitz.symbol_coeffs(k, params, max_freq=n - 2), n - 1, method="dense")
    finally:
        tracer.job = None
        tracer.uninstall()
    spans = tracer.spans
    es = [i for i, s in enumerate(spans) if s[tracing.NAME] == "toeplitz.es_comparison"]
    children = {s[tracing.NAME] for s in spans if s[tracing.PARENT] == es[0]}
    assert "toeplitz.symbol_coeffs" not in children and "toeplitz.toeplitz_det" not in children
    work = {s[tracing.NAME]: s[tracing.WORK] for s in spans if s[tracing.PARENT] == -1}
    assert work["toeplitz.symbol_coeffs"] == n and work["toeplitz.toeplitz_det"] == n - 1
    assert abs(det - dense) < 1e-9 * abs(dense)
