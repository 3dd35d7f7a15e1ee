"""Batch experiment runner: config, seeds, caching, CSV/JSON emission, gates.

Every subcommand is a thin wrapper over one library operation.  A run writes

* ``results.csv``  -- fixed column contract, one observation per row,
* ``results.json`` -- the same rows plus per-experiment extras,
* ``manifest.json`` -- resolved config, library versions, checksums, wall time.

Exit status is 0 iff every configured tolerance gate passes (3 on a gate
failure, naming the gate; 2 on configuration errors and on invalid inputs,
with a one-line message).  Same config + seed
reproduces the CSV byte-for-byte; wall-clock timing lives in the manifest and
the JSON rows only.
"""

import argparse
import csv
import hashlib
import json
import math
import re
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, arithmetic, experiments, hybrid, rmt, toeplitz, zeros
from .errors import MissingZeroError

CSV_COLUMNS = [
    "experiment",
    "k",
    "T",
    "X",
    "empirical_re",
    "empirical_im",
    "predicted_re",
    "predicted_im",
    "ratio_re",
    "ratio_im",
    "n_zeros",
    "runtime",
]

COLUMN_PROVENANCE = {
    "empirical_re": "empirical",
    "empirical_im": "empirical",
    "predicted_re": "predicted",
    "predicted_im": "predicted",
    "ratio_re": "ratio",
    "ratio_im": "ratio",
}

_COLUMN_CONTRACT_VERSION = 1


def parse_complex(text):
    """Parse '2', '-1', '0.5+0.5i', '1+i', 'i' (j also accepted)."""
    s = str(text).strip().replace(" ", "").replace("i", "j")
    s = re.sub(r"(?<![0-9.])j", "1j", s)
    return complex(s)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return repr(float(value))


def _row(experiment, k=None, t=None, x=None, empirical=None, predicted=None, n_zeros=None):
    emp = complex(empirical) if empirical is not None else None
    pred = complex(predicted) if predicted is not None else None
    ratio = None
    if emp is not None and pred is not None and pred != 0:
        ratio = emp / pred
    row = {
        "experiment": experiment,
        "k": str(k) if k is not None else "",
        "T": _fmt(t),
        "X": _fmt(x),
        "empirical_re": _fmt(emp.real if emp is not None else None),
        "empirical_im": _fmt(emp.imag if emp is not None else None),
        "predicted_re": _fmt(pred.real if pred is not None else None),
        "predicted_im": _fmt(pred.imag if pred is not None else None),
        "ratio_re": _fmt(ratio.real if ratio is not None else None),
        "ratio_im": _fmt(ratio.imag if ratio is not None else None),
        "n_zeros": "" if n_zeros is None else str(int(n_zeros)),
        "runtime": "",
    }
    return row, {}


def _resolve_zeros(source, t_height):
    if source in (None, "compute", "cache"):
        return zeros.compute_zeros(t_height)
    return zeros.load_zeros(source)


# ---------------------------------------------------------------------------
# subcommand implementations: each returns a list of (row, extras)


def _run_rmt_moment(cfg):
    k = parse_complex(cfg["k"])
    est = rmt.mc_moment(int(cfg["n"]), k, int(cfg["samples"]), cfg.get("seed", 0),
                        workers=int(cfg.get("workers", 1)))
    exact = rmt.exact_moment(int(cfg["n"]), k)
    row, extras = _row("rmt-moment", k=cfg["k"], empirical=est.mean, predicted=exact)
    extras.update(se_re=est.se_re, se_im=est.se_im, samples=est.samples, n=int(cfg["n"]))
    return [(row, extras)]


def _run_rmt_oracle(cfg):
    k = parse_complex(cfg["k"])
    val = rmt.weyl_quadrature_oracle(int(cfg["n"]), k, int(cfg.get("grid", 1024)))
    exact = rmt.exact_moment(int(cfg["n"]), k)
    row, extras = _row("rmt-oracle", k=cfg["k"], empirical=val, predicted=exact)
    extras.update(grid=int(cfg.get("grid", 1024)), n=int(cfg["n"]))
    return [(row, extras)]


def _hybrid_params(cfg):
    spec = hybrid.SmoothingSpec(float(cfg.get("y", 4.0)))
    return hybrid.HybridParams(n=int(cfg.get("n", 8)), x_cutoff=float(cfg["x"]), smoothing=spec)


def _run_hybrid_fourier_check(cfg):
    params = _hybrid_params(cfg)
    k = parse_complex(cfg["k"])
    m_max = int(cfg.get("m_max", 4 * math.ceil(params.log_x)))
    quad_coeffs = hybrid.fourier_coeffs_by_quadrature(
        params, m_max, j_window=int(cfg.get("j_window", 50)), grid=int(cfg.get("grid", 128))
    )
    out = []
    for m in range(1, m_max + 1):
        lemma = hybrid.fourier_s(m, k, params)
        row, extras = _row(
            "hybrid-fourier-check", k=cfg["k"], x=params.x_cutoff,
            empirical=k * quad_coeffs[m], predicted=lemma,
        )
        extras.update(m=m)
        out.append((row, extras))
    return out


def _run_hybrid_mc(cfg):
    params = _hybrid_params(cfg)
    k = parse_complex(cfg["k"])
    est = hybrid.mc_hybrid_moment(params, k, int(cfg["samples"]), cfg.get("seed", 0),
                                  workers=int(cfg.get("workers", 1)))
    heine = toeplitz.es_comparison(k, params).expectation
    row, extras = _row("hybrid-mc", k=cfg["k"], x=params.x_cutoff, empirical=est.mean, predicted=heine)
    extras.update(se_re=est.se_re, se_im=est.se_im, n=params.n)
    return [(row, extras)]


def _run_toeplitz_check(cfg):
    k = parse_complex(cfg["k"])
    sizes = [int(s) for s in str(cfg.get("sizes", "32,64,128")).split(",")]
    spec = hybrid.SmoothingSpec(float(cfg.get("y", 4.0)))
    out = []
    for n in sizes:
        params = hybrid.HybridParams(n=n, x_cutoff=float(cfg.get("x", math.e**3)), smoothing=spec)
        res = toeplitz.es_comparison(k, params)
        row, extras = _row(
            "toeplitz-check", k=cfg["k"], x=params.x_cutoff,
            empirical=res.expectation, predicted=res.asymptotic,
        )
        extras.update(n=n, det_re=res.det.real, det_im=res.det.imag)
        out.append((row, extras))
    return out


def _run_zeros(cfg):
    action = cfg["action"]
    if action == "compute":
        zl = zeros.compute_zeros(float(cfg["t_max"]))
        if cfg.get("out"):
            Path(cfg["out"]).write_text(zeros._format_table(zl.gammas))
        row, extras = _row(
            "zeros-compute", t=zl.t_max, empirical=len(zl),
            predicted=zeros.zero_count(zl.t_max), n_zeros=len(zl),
        )
        return [(row, extras)]
    if action == "load":
        zl = zeros.load_zeros(cfg["path"])
        row, extras = _row("zeros-load", t=zl.t_max, empirical=len(zl), n_zeros=len(zl))
        extras.update(source=zl.source)
        return [(row, extras)]
    if action == "cross-validate":
        za = _resolve_zeros(cfg["a"], float(cfg.get("t_max", 100.0)))
        zb = _resolve_zeros(cfg["b"], float(cfg.get("t_max", 100.0)))
        rep = zeros.cross_validate(za, zb)
        row, extras = _row(
            "zeros-cross-validate", t=rep.overlap_t, empirical=rep.max_abs_diff,
            predicted=0.0, n_zeros=rep.n_compared,
        )
        extras.update(count_a=rep.count_a, count_b=rep.count_b)
        return [(row, extras)]
    raise ValueError(f"unknown zeros action {action!r}")


def _run_px_mean(cfg):
    t = float(cfg["t"])
    x = float(cfg.get("x") or math.log(t))
    k = parse_complex(cfg.get("k", "1"))
    zl = _resolve_zeros(cfg.get("zeros"), t)
    poly = arithmetic.a_coeffs(k, x, int(cfg.get("m_max", 10**6)))
    res = experiments.px_mean(zl, t, k, poly)
    row, extras = _row(
        "px-mean", k=cfg.get("k", "1"), t=t, x=x,
        empirical=res.empirical, predicted=res.predicted, n_zeros=res.n_zeros,
    )
    extras.update(predicted_bare=res.details["predicted_bare"].real,
                  subsidiary_sum=res.details["subsidiary_sum"])
    return [(row, extras)]


def _run_landau_gonek(cfg):
    t = float(cfg["t"])
    zl = _resolve_zeros(cfg.get("zeros"), t)
    res = experiments.landau_gonek(zl, int(cfg["m"]), t)
    row, extras = _row(
        "landau-gonek", t=t, empirical=res.empirical, predicted=res.predicted,
        n_zeros=res.n_zeros,
    )
    extras.update(m=int(cfg["m"]))
    return [(row, extras)]


def _run_twisted(cfg):
    t = float(cfg["t"])
    x = float(cfg.get("x") or math.log(t))
    zl = _resolve_zeros(cfg.get("zeros"), t)
    poly = arithmetic.a_coeffs(-1, x, int(cfg.get("m_max", 10**6)))
    res = experiments.twisted_first_moment(zl, t, poly)
    row, extras = _row(
        "twisted", k="-1", t=t, x=x, empirical=res.empirical,
        predicted=res.predicted, n_zeros=res.n_zeros,
    )
    extras.update(main_term=res.details["main_term"], subsidiary_term=res.details["subsidiary_term"])
    return [(row, extras)]


def _run_conjecture_table(cfg):
    k = parse_complex(cfg["k"])
    heights = [float(t) for t in str(cfg["t"]).split(",")]
    zl = _resolve_zeros(cfg.get("zeros"), max(heights))
    out = []
    for t, res in zip(heights, experiments.zeta_prime_moments(zl, heights, k)):
        row, extras = _row(
            "conjecture-table", k=cfg["k"], t=t, empirical=res.empirical,
            predicted=res.predicted, n_zeros=res.n_zeros,
        )
        extras.update(branch=res.branch, normalized_by_formula=str(res.details["normalized_by_formula"]))
        if k == 1:
            # known first-moment case: also compare the unnormalized sum
            # against the three-term polynomial main term
            total = res.details["sum"]
            main = experiments.cgg_main_term(t)
            extras.update(sum_re=total.real, polynomial_main_term=main,
                          ratio_to_polynomial=total.real / main)
        out.append((row, extras))
    return out


_RUNNERS = {
    "rmt-moment": _run_rmt_moment,
    "rmt-oracle": _run_rmt_oracle,
    "hybrid-fourier-check": _run_hybrid_fourier_check,
    "hybrid-mc": _run_hybrid_mc,
    "toeplitz-check": _run_toeplitz_check,
    "zeros": _run_zeros,
    "px-mean": _run_px_mean,
    "landau-gonek": _run_landau_gonek,
    "twisted": _run_twisted,
    "conjecture-table": _run_conjecture_table,
}


def _default_gates(subcommand, cfg):
    if subcommand == "zeros" and cfg.get("action") == "cross-validate":
        tol = float(cfg.get("tol", 1e-6))
        return [{"name": "cross-validate-tol", "column": "empirical_re", "abs_max": tol}]
    if subcommand == "toeplitz-check" and cfg.get("k") is not None:
        if parse_complex(cfg["k"]) == 0:
            return [
                {"name": "k0-exact-ladder-re", "column": "ratio_re", "min": 1 - 1e-8, "max": 1 + 1e-8},
                {"name": "k0-exact-ladder-im", "column": "ratio_im", "min": -1e-8, "max": 1e-8},
            ]
    return []


def evaluate_gates(gates, rows):
    """Each gate must hold on every row: min <= value <= max, |value| <= abs_max.

    An empty cell is skipped; a nan value fails every gate on its column.
    """
    failures = []
    for gate in gates:
        col = gate["column"]
        name = gate.get("name", col)
        for i, row in enumerate(rows):
            text = row.get(col, "")
            if text == "":
                continue
            value = float(text)
            if math.isnan(value):
                failures.append(f"gate {name!r}: row {i} {col} is nan")
                continue
            if "min" in gate and value < gate["min"]:
                failures.append(f"gate {name!r}: row {i} {col}={value:g} < min {gate['min']:g}")
            if "max" in gate and value > gate["max"]:
                failures.append(f"gate {name!r}: row {i} {col}={value:g} > max {gate['max']:g}")
            if "abs_max" in gate and abs(value) > gate["abs_max"]:
                failures.append(f"gate {name!r}: row {i} |{col}|={abs(value):g} > {gate['abs_max']:g}")
    return failures


def _write_outputs(out_dir, rows, extras_list, cfg, gates, gate_failures, wall_time):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    json_path = out_dir / "results.json"
    json_rows = []
    for row, extras in zip(rows, extras_list):
        rec = dict(row)
        rec["runtime"] = wall_time
        rec.update(extras)
        json_rows.append(rec)
    json_path.write_text(json.dumps(json_rows, indent=2, default=str) + "\n")

    manifest = {
        "zetalab_version": __version__,
        "numpy_version": np.__version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": wall_time,
        "config": cfg,
        "column_contract": {"version": _COLUMN_CONTRACT_VERSION, "provenance": COLUMN_PROVENANCE},
        "checksums": {
            "results.csv": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
            "results.json": hashlib.sha256(json_path.read_bytes()).hexdigest(),
        },
        "gates": gates,
        "gate_failures": gate_failures,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str) + "\n")


def _build_parser():
    parser = argparse.ArgumentParser(prog="zetalab", description=__doc__)
    parser.add_argument("--config", help="JSON config file; CLI flags override its fields")
    parser.add_argument("--output-dir", help="directory for results.csv/results.json/manifest.json")
    parser.add_argument("--workers", type=int, help="worker processes for Monte-Carlo sampling")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, *flags):
        p = sub.add_parser(name)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        return p

    add("rmt-moment", ("--n", {"type": int}), ("--k", {}), ("--samples", {"type": int}),
        ("--seed", {"type": int}))
    add("rmt-oracle", ("--n", {"type": int}), ("--k", {}), ("--grid", {"type": int}))
    add("hybrid-fourier-check", ("--x", {"type": float}), ("--y", {"type": float}),
        ("--k", {}), ("--j-window", {"type": int, "dest": "j_window"}),
        ("--grid", {"type": int}), ("--m-max", {"type": int, "dest": "m_max"}))
    add("hybrid-mc", ("--n", {"type": int}), ("--x", {"type": float}), ("--y", {"type": float}),
        ("--k", {}), ("--samples", {"type": int}), ("--seed", {"type": int}))
    add("toeplitz-check", ("--k", {}), ("--x", {"type": float}), ("--y", {"type": float}),
        ("--sizes", {}))
    zp = sub.add_parser("zeros")
    zsub = zp.add_subparsers(dest="action", required=True)
    zc = zsub.add_parser("compute")
    zc.add_argument("--t-max", type=float, dest="t_max")
    zc.add_argument("--out")
    zl = zsub.add_parser("load")
    zl.add_argument("--path")
    zx = zsub.add_parser("cross-validate")
    zx.add_argument("--a")
    zx.add_argument("--b")
    zx.add_argument("--tol", type=float, help="gate on max |delta gamma| (default 1e-6)")
    zx.add_argument("--t-max", type=float, dest="t_max")
    add("px-mean", ("--t", {"type": float}), ("--x", {"type": float}), ("--k", {}),
        ("--m-max", {"type": int, "dest": "m_max"}), ("--zeros", {}))
    add("landau-gonek", ("--t", {"type": float}), ("--m", {"type": int}), ("--zeros", {}))
    add("twisted", ("--t", {"type": float}), ("--x", {"type": float}),
        ("--m-max", {"type": int, "dest": "m_max"}), ("--zeros", {}))
    add("conjecture-table", ("--k", {}), ("--t", {}), ("--zeros", {}))
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    cfg = {}
    if args.config:
        try:
            cfg.update(json.loads(Path(args.config).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    for key, value in vars(args).items():
        if key in ("config",) or value is None:
            continue
        cfg[key] = value

    subcommand = cfg.pop("subcommand")
    out_dir = cfg.pop("output_dir", None) or cfg.pop("output-dir", None) or "zetalab-results"
    gates = cfg.pop("gates", None)

    runner = _RUNNERS[subcommand]
    start = time.perf_counter()
    try:
        if gates is None:
            gates = _default_gates(subcommand, cfg)
        results = runner(cfg)
    except (KeyError, TypeError) as exc:
        print(f"configuration error for {subcommand}: missing or bad field {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MissingZeroError) as exc:
        # bad values and every library input error (DomainError, CapabilityError,
        # ZeroTableParseError, EmptyOverlapError, ...) subclass ValueError;
        # MissingZeroError is a zero scan that could not certify its count
        message = " ".join(str(exc).split())
        print(f"{subcommand}: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2
    wall_time = time.perf_counter() - start

    rows = [r for r, _ in results]
    extras = [e for _, e in results]
    failures = evaluate_gates(gates, rows)
    resolved = dict(cfg)
    resolved["subcommand"] = subcommand
    resolved["output_dir"] = str(out_dir)
    _write_outputs(out_dir, rows, extras, resolved, gates, failures, wall_time)

    for row in rows:
        print(",".join(str(row[c]) for c in CSV_COLUMNS))
    if failures:
        for failure in failures:
            print(f"GATE FAIL: {failure}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
