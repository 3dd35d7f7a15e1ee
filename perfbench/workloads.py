"""Seeded job streams and the untimed per-job checks.

A workload is a list of ``Job``s, each one ``zetalab`` CLI invocation.  A
stream is made of whole *blocks*: a block holds a fixed mix of job kinds, the
seed draws the free parameters inside each kind and the order of the whole
stream.  Holding the mix fixed keeps a run's cost and its share of slow cases
the same from seed to seed, which is what makes the end-to-end figures steady.

Every check compares a job's output with the independent route the package
pairs it with (exact Haar formula, Heine/Toeplitz value, closed-form Fourier
coefficients, dense LU, the published zero table, the acceptance bands).
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from zetalab import experiments, hybrid, rmt, toeplitz, zeros

# relative to the checkout root, which is the working directory of every run
TABLE = Path("perfbench") / "data" / "zeros_t5000.txt"
# `zetalab zeros compute --t-max 5000`, 4520 ordinates
TABLE_SHA256 = "fa5139bfa0596a51107ae4396d6ab5abe8c5af82d3e860bc01b5e028dd31c918"
TABLE_T = 5000.0

# MC checks: a stream tests up to about 120 mean components at 4 SE.  One miss is
# within chance (P ~ 0.5 % for normal means, more for the heavy-tailed
# negative and complex orders); two or more mark the run incorrect.
MC_N_SE = 4.0
MC_CHANCE_MISSES = 1

E2, E3, E4 = math.e**2, math.e**3, math.e**4


@dataclass
class Job:
    kind: str
    argv: list  # CLI argv after --output-dir; "{tmp}" is the job's fresh directory
    params: dict
    check: object  # check(job, tmp, ctx) -> Verdict, with the outputs under tmp


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    mc: dict = field(default_factory=dict)  # rel_se and component misses for MC jobs


class Context:
    """Inputs shared by the generators and checks: the stored table and the published one."""

    def __init__(self):
        data = TABLE.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest != TABLE_SHA256:
            raise SystemExit(f"stored zero table {TABLE} has SHA-256 {digest}, expected {TABLE_SHA256}")
        self.table = np.array([float(x) for x in data.split()])
        self.first100 = np.loadtxt(Path("tests") / "data" / "zeros_first100.txt")
        head = self.table[: len(self.first100)]
        if len(head) != 100 or np.max(np.abs(head - self.first100)) >= 1e-6:
            raise SystemExit("stored zero table disagrees with tests/data/zeros_first100.txt")
        self._table_zl = None
        self._lg2 = None

    def table_zeros(self):
        if self._table_zl is None:
            self._table_zl = zeros.load_zeros(TABLE)
        return self._table_zl

    def landau_gonek_m2(self):
        if self._lg2 is None:
            self._lg2 = experiments.landau_gonek(self.table_zeros(), 2, TABLE_T).empirical
        return self._lg2


def _c(text):
    """Complex value of a CLI --k string."""
    return complex(text.replace("i", "j"))


def _emp(row):
    return complex(float(row["empirical_re"]), float(row["empirical_im"]))


def _pred(row):
    return complex(float(row["predicted_re"]), float(row["predicted_im"]))


def _rel(row):
    return abs(_emp(row) - _pred(row)) / abs(_pred(row))


def rows_of(tmp):
    return json.loads((tmp / "out" / "results.json").read_text())


def _mc_verdict(row, reference):
    mean = _emp(row)
    se_re, se_im = float(row["se_re"]), float(row["se_im"])
    misses = 0
    for diff, se in ((mean.real - reference.real, se_re), (mean.imag - reference.imag, se_im)):
        if abs(diff) > MC_N_SE * se + 1e-12 * max(1.0, abs(reference)):
            misses += 1
    rel_se = math.hypot(se_re, se_im) / abs(reference)
    detail = f"mean {mean:.6g} vs {reference:.6g} (se {se_re:.3g}, {se_im:.3g})"
    return Verdict(misses == 0, detail, {"rel_se": rel_se, "misses": misses, "components": 2})


# ---------------------------------------------------------------- zeros-cold

ZC_T_LO, ZC_T_HI = 100.0, 1000.0
ZC_JITTER = 0.02  # heights are drawn within +-2 % (in log) of their stratum centre
ZC_BLOCK = 5
# Passing heights come three to a stratum: one job's wall time varies by about
# 8 % from run to run, so the median and tail are taken inside a cluster of
# like-sized jobs rather than from a single one.
ZC_PER_STRATUM = 3


def riemann_siegel_theta(t):
    """Stirling series for theta(t), kept here so the generator does not run the program under test."""
    return t / 2 * np.log(t / (2 * np.pi)) - t / 2 - np.pi / 8 + 1 / (48 * t) + 7 / (5760 * t**3)


def theta_count_fails(table, t):
    """True where the table's zero count below t differs from round(theta(t)/pi + 1),
    i.e. where ``compute_zeros(t)`` raises ``MissingZeroError``."""
    return np.searchsorted(table, t, side="right") != np.round(riemann_siegel_theta(t) / np.pi + 1)


def zeros_cold(rng, n_blocks, ctx):
    """`zeros compute --t-max T`, T log-uniform on [100, 1000], stratified by height and outcome.

    The heights where the theta-count heuristic raises MissingZeroError keep
    their population share (measured on the stored table) in every stream, so
    the defect shows at its real rate and cost instead of by the luck of the draw.
    """
    grid = np.exp(np.linspace(math.log(ZC_T_LO), math.log(ZC_T_HI), 100_001))
    fail_share = float(np.mean(theta_count_fails(ctx.table, grid)))
    k_total = ZC_BLOCK * n_blocks
    k_fail = max(1, round(fail_share * k_total))
    span = math.log(ZC_T_HI / ZC_T_LO)
    k_pass = k_total - k_fail
    jobs = []
    for fails, count, strata in ((True, k_fail, k_fail), (False, k_pass, max(1, round(k_pass / ZC_PER_STRATUM)))):
        for i in range(count):
            centre = math.log(ZC_T_LO) + span * (i % strata + 0.5) / strata
            while True:
                t = float(f"{math.exp(centre + rng.uniform(-ZC_JITTER, ZC_JITTER)):.4f}")
                near_zero = np.min(np.abs(ctx.table - t)) < 1e-4
                if not near_zero and bool(theta_count_fails(ctx.table, t)) == fails:
                    break
            jobs.append(Job(
                "zeros-compute",
                ["--workers", "1", "zeros", "compute", "--t-max", f"{t:.4f}", "--out", "{tmp}/zeros.txt"],
                {"t_max": t, "theta_count_fails": fails},
                check_zeros_compute,
            ))
    return jobs


def check_zeros_compute(job, tmp, ctx):
    t = job.params["t_max"]
    gammas = np.loadtxt(tmp / "zeros.txt", ndmin=1)
    row = rows_of(tmp)[0]
    if np.any(np.diff(gammas) <= 0):
        return Verdict(False, "ordinates not strictly ascending")
    ref = ctx.first100[ctx.first100 <= t]
    if len(gammas) < len(ref) or np.max(np.abs(gammas[: len(ref)] - ref)) >= 1e-6:
        return Verdict(False, "disagrees with tests/data/zeros_first100.txt beyond 1e-6")
    predicted = round(float(row["predicted_re"]))
    table_count = int(np.searchsorted(ctx.table, t, side="right"))
    if not len(gammas) == predicted == table_count == int(row["n_zeros"]):
        return Verdict(False, f"{len(gammas)} zeros, CLI predicted {predicted}, stored table {table_count}")
    return Verdict(True, f"{len(gammas)} zeros below {t}")


# ---------------------------------------------------------------- zeta-table
# One job per acceptance criterion 9-13 in every block; the seed draws m and k.


def zeta_table(rng, n_blocks, ctx):
    z = str(TABLE)
    jobs = []
    for _ in range(n_blocks):
        m = int(rng.integers(2, 7))
        k = str(rng.choice(["1", "-1"]))
        jobs += [
            Job("landau-gonek", ["--workers", "1", "landau-gonek", "--t", "5000", "--m", str(m), "--zeros", z],
                {"m": m}, check_landau_gonek),
            Job("px-mean", ["--workers", "1", "px-mean", "--t", "5000", "--k=" + k, "--zeros", z],
                {"k": k}, check_band(0.10)),
            Job("conjecture-table", ["--workers", "1", "conjecture-table", "--k=1", "--t", "1000,2500,5000",
                                     "--zeros", z], {"k": "1"}, check_first_moment),
            Job("conjecture-table", ["--workers", "1", "conjecture-table", "--k=-1", "--t", "5000",
                                     "--zeros", z], {"k": "-1"}, check_reciprocal),
            Job("twisted", ["--workers", "1", "twisted", "--t", "5000", "--zeros", z], {}, check_band(0.07)),
        ]
    return jobs


def check_band(tol):
    """Criteria 10 and 13: |empirical - predicted| / |predicted| < tol."""

    def check(job, tmp, ctx):
        rel = _rel(rows_of(tmp)[0])
        return Verdict(rel < tol, f"relative deviation {rel:.4f} (band {tol})")

    return check


def check_landau_gonek(job, tmp, ctx):
    """Criterion 9."""
    row = rows_of(tmp)[0]
    m = job.params["m"]
    if m == 6:
        ratio = abs(_emp(row)) / abs(ctx.landau_gonek_m2())
        return Verdict(ratio < 0.2, f"|m=6| / |m=2| = {ratio:.4f} (band 0.2)")
    rel = _rel(row)
    ok = rel < 0.15 and (m != 2 or abs(float(row["predicted_re"]) + 275.8) < 0.1)
    return Verdict(ok, f"relative deviation {rel:.4f} (band 0.15)")


def check_first_moment(job, tmp, ctx):
    """Criterion 11: 3-term main term within 5 % at T=5000, bare ratios in [0.8, 1] and rising."""
    rows = rows_of(tmp)
    ratios = [float(r["sum_re"]) / experiments.cgg_leading_term(float(r["T"])) for r in rows]
    last = rows[-1]
    dev = abs(float(last["sum_re"]) - float(last["polynomial_main_term"])) / abs(float(last["polynomial_main_term"]))
    ok = dev < 0.05 and all(0.8 <= r <= 1.0 for r in ratios) and all(a < b for a, b in zip(ratios, ratios[1:]))
    return Verdict(ok, f"main-term deviation {dev:.4f}; bare ratios " + "/".join(f"{r:.4f}" for r in ratios))


def check_reciprocal(job, tmp, ctx):
    """Criterion 12."""
    emp = _emp(rows_of(tmp)[0]).real
    rel = abs(emp - 1.0 / math.log(TABLE_T / (2 * math.pi))) / abs(emp)
    return Verdict(rel < 0.15, f"relative deviation {rel:.4f} (band 0.15)")


# ---------------------------------------------------------------- haar-mc

# an odd number of sizes puts the median job inside the middle size's cluster
HAAR_N = (2, 4, 8, 16, 24, 32, 64)
# every class has Re k >= -1, so the variance of Z'^k is finite
HAAR_K = {
    "integer": ("1", "2"),
    "half-integer": ("0.5", "1.5"),
    "complex": ("0.5+0.5i", "1+i", "1-0.5i"),
    "negative": ("-0.5", "-1", "-0.5+0.5i"),
}
HAAR_SAMPLES = 300


def haar_mc(rng, n_blocks, ctx):
    jobs = []
    for _ in range(n_blocks):
        for n in HAAR_N:
            for ks in HAAR_K.values():
                k = str(rng.choice(ks))
                seed = int(rng.integers(2**31))
                jobs.append(Job(
                    "rmt-moment",
                    ["--workers", "1", "rmt-moment", "--n", str(n), "--k=" + k,
                     "--samples", str(HAAR_SAMPLES), "--seed", str(seed)],
                    {"n": n, "k": k}, check_rmt_moment,
                ))
    return jobs


def check_rmt_moment(job, tmp, ctx):
    return _mc_verdict(rows_of(tmp)[0], rmt.exact_moment(job.params["n"], _c(job.params["k"])))


# ---------------------------------------------------------------- cross-checks

CRIT1_K = ("1", "2", "0.5", "1+i")
# Weyl oracle: n -> (grid, tolerance, jobs a block).  n=2 is criterion 1's tolerance;
# at n=3 the measured error at grid 64 is 1.5e-6 (k=1/2) and 9e-7 (k=1+i).
WEYL = {2: (1024, 1e-6, 2), 3: (64, 3e-6, 1)}
# Fourier check: X -> (j_window, grid), each meeting criterion 4's bounds with
# margin (measured worst mismatch 6e-9, 6e-9, 3e-9).
FOURIER = {E2: (30, 40), E3: (25, 40), E4: (20, 40)}
TOEPLITZ_SIZES = "32,64,128,256,512"
TOEPLITZ_K = ("1", "0.5+0.5i", "2", "1+i", "0.5", "-0.5")
# Five cheap Toeplitz jobs and two n=2 Weyl oracles a block put the stream's median
# job in the middle of the n=2 oracles' cluster rather than on the edge between two
# differently priced kinds.
TOEPLITZ_PER_BLOCK = 5
HYBRID_K = ("1", "2", "0.5+0.5i")  # criterion 5
HYBRID_N = (4, 6, 8)
HYBRID_SAMPLES = 20000


def cross_checks(rng, n_blocks, ctx):
    jobs = []
    for _ in range(n_blocks):
        for n, (grid, tol, count) in WEYL.items():
            for k in rng.choice(CRIT1_K, size=count, replace=False):
                k = str(k)
                jobs.append(Job("rmt-oracle", ["--workers", "1", "rmt-oracle", "--n", str(n), "--k=" + k,
                                               "--grid", str(grid)], {"n": n, "k": k, "tol": tol}, check_oracle))
        for x, (j_window, grid) in FOURIER.items():
            k = str(rng.choice(["1", "1+i"]))
            jobs.append(Job("hybrid-fourier-check",
                            ["--workers", "1", "hybrid-fourier-check", "--x", repr(x), "--k=" + k,
                             "--j-window", str(j_window), "--grid", str(grid)],
                            {"x": x, "k": k}, check_fourier))
        for k in ("0", *rng.choice(TOEPLITZ_K, size=TOEPLITZ_PER_BLOCK - 1, replace=False)):
            k = str(k)
            jobs.append(Job("toeplitz-check", ["--workers", "1", "toeplitz-check", "--k=" + k, "--x", repr(E3),
                                               "--sizes", TOEPLITZ_SIZES], {"k": k}, check_toeplitz))
        for n, k in zip(rng.permutation(HYBRID_N), HYBRID_K):
            seed = int(rng.integers(2**31))
            jobs.append(Job("hybrid-mc", ["--workers", "1", "hybrid-mc", "--n", str(n), "--x", repr(E3),
                                          "--k=" + k, "--samples", str(HYBRID_SAMPLES), "--seed", str(seed)],
                            {"n": int(n), "k": k}, check_hybrid_mc))
    return jobs


def _params(n, x):
    return hybrid.HybridParams(n=n, x_cutoff=x, smoothing=hybrid.SmoothingSpec(4.0))


def check_oracle(job, tmp, ctx):
    """Criterion 1 at n=2; the recorded grid-64 tolerance at n=3."""
    p = job.params
    err = abs(_emp(rows_of(tmp)[0]) - rmt.exact_moment(p["n"], _c(p["k"])))
    return Verdict(err < p["tol"], f"|oracle - exact| = {err:.2e} (tol {p['tol']:g})")


def check_fourier(job, tmp, ctx):
    """Criterion 4: every coefficient within 1e-6 of the closed form, those at m >= log X below 1e-8."""
    k = _c(job.params["k"])
    params = _params(8, job.params["x"])
    worst_match = worst_vanish = 0.0
    for row in rows_of(tmp):
        m = int(row["m"])
        emp = _emp(row)
        worst_match = max(worst_match, abs(emp - hybrid.fourier_s(m, k, params)))
        if m >= params.log_x:
            worst_vanish = max(worst_vanish, abs(emp))
    ok = worst_match < 1e-6 and worst_vanish < 1e-8
    return Verdict(ok, f"mismatch {worst_match:.2e}, above-cutoff {worst_vanish:.2e}")


def check_toeplitz(job, tmp, ctx):
    """k=0 ladder gate; Hessenberg vs dense LU to 1e-9 for sizes <= 64; |ratio-1| shrinking for k != 0."""
    k = _c(job.params["k"])
    rows = rows_of(tmp)
    for row in rows:
        n = int(row["n"])
        if n > 64:
            continue
        sc = toeplitz.symbol_coeffs(k, _params(n, E3), max_freq=n - 2)
        dense = toeplitz.toeplitz_det(sc, n - 1, method="dense")
        det = complex(float(row["det_re"]), float(row["det_im"]))
        if abs(det - dense) > 1e-9 * abs(dense):
            return Verdict(False, f"size {n}: Hessenberg {det} vs dense LU {dense}")
    errs = [abs(complex(float(r["ratio_re"]), float(r["ratio_im"])) - 1) for r in rows]
    if k == 0:
        return Verdict(max(errs) <= 1e-8, f"k=0 ladder: max |ratio - 1| = {max(errs):.1e}")
    shrinking = all(a > b for a, b in zip(errs, errs[1:]))
    return Verdict(shrinking, "|ratio - 1| = " + "/".join(f"{e:.2e}" for e in errs))


def check_hybrid_mc(job, tmp, ctx):
    k = _c(job.params["k"])
    heine = toeplitz.es_comparison(k, _params(job.params["n"], E3)).expectation
    return _mc_verdict(rows_of(tmp)[0], heine)


# name -> (generator, minimum blocks, seconds per block measured on a 2-core x86-64 box
# when the benchmark was added)
WORKLOADS = {
    "zeros-cold": (zeros_cold, 3, 6.7),
    "zeta-table": (zeta_table, 3, 7.4),
    "haar-mc": (haar_mc, 2, 7.3),
    "cross-checks": (cross_checks, 3, 8.0),
}


def make_stream(name, seed, seconds, ctx):
    """The seeded job stream in seeded order: as many whole blocks as fit in ``seconds``,
    but never fewer than the workload's minimum, which puts the median and the tail
    job inside clusters of like-sized jobs."""
    generate, min_blocks, block_s = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    n_blocks = max(min_blocks, int(seconds // block_s))
    jobs = generate(rng, n_blocks, ctx)
    return [jobs[i] for i in rng.permutation(len(jobs))]
