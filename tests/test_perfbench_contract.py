"""The names and argument positions the traced benchmark (perfbench/tracing.py) reads.

``Tracer.install`` looks up, by name, every function whose work it counts and
the position of the argument it reads; a renamed function or argument makes
it raise, so a simplification of the package cannot break the benchmark
silently.
"""

import math
from pathlib import Path

from zetalab import hybrid, rmt

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_counts_and_uninstalls(monkeypatch, smoothing_y4):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = (rmt.mc_moment, hybrid.mc_hybrid_moment)
    params = hybrid.HybridParams(n=4, x_cutoff=math.e**3, smoothing=smoothing_y4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = 0
        rmt.mc_moment(4, 1.0, 100, 0)
        hybrid.mc_hybrid_moment(params, 1.0, 200, 0)
        rmt.weyl_quadrature_oracle(2, 1.0, 64)
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
