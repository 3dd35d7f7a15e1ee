"""Batch experiment runner: config, seeds, caching, CSV/JSON emission, gates.

Every subcommand is a thin wrapper over one library operation, declared once
in ``_SUBCOMMANDS`` with its fields, their types and their defaults; the
argument parser is generated from that table.  A run's config merges the
defaults, then the ``--config`` JSON file, then the flags.  A key that names
no field of the subcommand (or ``output_dir``, ``workers``, ``gates``) is an
error.  A run writes

* ``results.csv``  -- fixed column contract, one observation per row,
* ``results.json`` -- the same rows plus per-experiment extras,
* ``manifest.json`` -- every field's value, library versions, checksums, wall time.

Exit status is 0 iff every configured tolerance gate passes (3 on a gate
failure, naming the gate; 2 on configuration errors and on invalid inputs,
with a one-line message).  Same config + seed
reproduces the CSV byte-for-byte; wall-clock timing lives in the manifest and
the JSON rows only.
"""

import argparse
import cmath
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import re
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, experiments, hybrid, rmt, toeplitz, zeros
from .errors import DomainError, MissingZeroError

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
    """Parse '2', '-1', '0.5+0.5i', '1+i', 'i' (j also accepted); ValueError
    unless both parts are finite."""
    s = str(text).strip().replace(" ", "").replace("i", "j")
    s = re.sub(r"(?<![0-9.])j", "1j", s)
    value = complex(s)
    if not cmath.isfinite(value):
        raise ValueError(f"{text!r} is not a finite complex number")
    return value


def _text_of(parse, wanted):
    """A field type that keeps the text given, for the CSV and the manifest, once ``parse`` reads it."""

    def check(value):
        parse(str(value))
        return str(value)

    check.__name__, check.parse = wanted, parse
    return check


_COMPLEX = _text_of(parse_complex, "complex number")
_FLOATS = _text_of(lambda text: [float(t) for t in text.split(",")], "comma-separated list of floats")
_INTS = _text_of(lambda text: [int(t) for t in text.split(",")], "comma-separated list of integers")


def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def _row(experiment, k=None, t=None, x=None, empirical=None, predicted=None, n_zeros=None, **extras):
    """One result: the CSV columns, then the JSON-only extras as given, except that a
    complex extra ``name`` goes in as the floats ``name_re`` and ``name_im``."""
    emp = complex(empirical) if empirical is not None else None
    pred = complex(predicted) if predicted is not None else None
    ratio = emp / pred if emp is not None and pred is not None and pred != 0 else None
    row = {"experiment": experiment, "k": str(k) if k is not None else "", "T": _fmt(t), "X": _fmt(x)}
    for column, value in (("empirical", emp), ("predicted", pred), ("ratio", ratio)):
        row[f"{column}_re"] = _fmt(value.real if value is not None else None)
        row[f"{column}_im"] = _fmt(value.imag if value is not None else None)
    row |= {"n_zeros": "" if n_zeros is None else str(int(n_zeros)), "runtime": ""}
    for name, value in extras.items():
        if isinstance(value, complex):
            row[f"{name}_re"], row[f"{name}_im"] = float(value.real), float(value.imag)
        else:
            row[name] = value
    return row


def _resolve_zeros(source, t_height):
    if source in (None, "compute"):
        return zeros.compute_zeros(t_height)
    return zeros.load_zeros(source)


def _hybrid_params(cfg, n):
    return hybrid.HybridParams(n=n, x_cutoff=cfg["x"], smoothing=hybrid.SmoothingSpec(cfg["y"]))


# ---------------------------------------------------------------------------
# subcommand implementations: each takes the resolved config and returns a
# list of rows; a default that depends on other fields is written back to cfg


def _run_rmt_moment(cfg):
    k = parse_complex(cfg["k"])
    est = rmt.mc_moment(cfg["n"], k, cfg["samples"], cfg["seed"], workers=cfg["workers"])
    exact = rmt.exact_moment(cfg["n"], k)
    return [_row("rmt-moment", k=cfg["k"], empirical=est.mean, predicted=exact,
                 se_re=est.se_re, se_im=est.se_im, samples=est.samples, n=cfg["n"])]


def _run_rmt_oracle(cfg):
    k = parse_complex(cfg["k"])
    val = rmt.weyl_quadrature_oracle(cfg["n"], k, cfg["grid"])
    exact = rmt.exact_moment(cfg["n"], k)
    return [_row("rmt-oracle", k=cfg["k"], empirical=val, predicted=exact, grid=cfg["grid"], n=cfg["n"])]


def _run_hybrid_fourier_check(cfg):
    params = _hybrid_params(cfg, 1)  # the Fourier coefficients do not depend on N
    k = parse_complex(cfg["k"])
    if cfg["m_max"] is None:
        cfg["m_max"] = 4 * math.ceil(params.log_x)
    if cfg["m_max"] < 1:
        raise DomainError(f"hybrid-fourier-check compares m = 1..m_max, so m_max >= 1 (got {cfg['m_max']})")
    quad_coeffs = hybrid.fourier_coeffs_by_quadrature(params, cfg["m_max"], j_window=cfg["j_window"],
                                                      grid=cfg["grid"])
    return [
        _row("hybrid-fourier-check", k=cfg["k"], x=params.x_cutoff, empirical=k * quad_coeffs[m],
             predicted=hybrid.fourier_s(m, k, params), m=m)
        for m in range(1, cfg["m_max"] + 1)
    ]


def _run_hybrid_mc(cfg):
    params = _hybrid_params(cfg, cfg["n"])
    k = parse_complex(cfg["k"])
    heine = toeplitz.es_comparison(k, params).expectation  # first: it refuses an N the series cannot serve
    est = hybrid.mc_hybrid_moment(params, k, cfg["samples"], cfg["seed"], workers=cfg["workers"])
    return [_row("hybrid-mc", k=cfg["k"], x=params.x_cutoff, empirical=est.mean, predicted=heine,
                 se_re=est.se_re, se_im=est.se_im, n=params.n)]


def _run_toeplitz_check(cfg):
    k = parse_complex(cfg["k"])
    sizes = _INTS.parse(cfg["sizes"])
    # one series to the largest size: the Fourier coefficients do not depend on N
    results = toeplitz.es_comparisons(k, _hybrid_params(cfg, 1), sizes)
    return [_row("toeplitz-check", k=cfg["k"], x=cfg["x"], empirical=res.expectation,
                 predicted=res.asymptotic, n=n, det=res.det)
            for n, res in zip(sizes, results)]


def _run_zeros_compute(cfg):
    zl = zeros.compute_zeros(cfg["t_max"])
    if cfg["out"]:
        Path(cfg["out"]).write_text(zl.text)
    # the scan covers whole Rosser blocks, so the list's length is the certified N(t_max)
    return [_row("zeros-compute", t=zl.t_max, empirical=len(zl), predicted=len(zl), n_zeros=len(zl))]


def _run_zeros_load(cfg):
    zl = zeros.load_zeros(cfg["path"])
    return [_row("zeros-load", t=zl.t_max, empirical=len(zl), n_zeros=len(zl), source=zl.source)]


def _run_zeros_cross_validate(cfg):
    rep = zeros.cross_validate(_resolve_zeros(cfg["a"], cfg["t_max"]), _resolve_zeros(cfg["b"], cfg["t_max"]))
    return [_row("zeros-cross-validate", t=rep.overlap_t, empirical=rep.max_abs_diff, predicted=0.0,
                 n_zeros=rep.n_compared, count_a=rep.count_a, count_b=rep.count_b)]


def _run_px_mean(cfg):
    t = cfg["t"]
    if cfg["x"] is None and t > 0:  # any other height fails the library's check before X is read
        cfg["x"] = math.log(t)
    k = parse_complex(cfg["k"])
    zl = _resolve_zeros(cfg["zeros"], t)
    res = experiments.px_mean(zl, t, k, cfg["x"])
    return [_row("px-mean", k=cfg["k"], t=t, x=cfg["x"], empirical=res.empirical,
                 predicted=res.predicted, n_zeros=res.n_zeros, **res.details)]


def _run_landau_gonek(cfg):
    t = cfg["t"]
    res = experiments.landau_gonek(_resolve_zeros(cfg["zeros"], t), cfg["m"], t)
    return [_row("landau-gonek", t=t, empirical=res.empirical, predicted=res.predicted,
                 n_zeros=res.n_zeros, m=cfg["m"])]


def _run_twisted(cfg):
    t = cfg["t"]
    if cfg["x"] is None and t > 0:  # any other height fails the library's check before X is read
        cfg["x"] = math.log(t)
    zl = _resolve_zeros(cfg["zeros"], t)
    res = experiments.twisted_first_moment(zl, t, cfg["x"])
    return [_row("twisted", k="-1", t=t, x=cfg["x"], empirical=res.empirical,
                 predicted=res.predicted, n_zeros=res.n_zeros, **res.details)]


def _run_conjecture_table(cfg):
    k = parse_complex(cfg["k"])
    heights = _FLOATS.parse(cfg["t"])
    zl = _resolve_zeros(cfg["zeros"], max(heights))
    return [_row("conjecture-table", k=cfg["k"], t=t, empirical=res.empirical, predicted=res.predicted,
                 n_zeros=res.n_zeros, **res.details)
            for t, res in zip(heights, experiments.zeta_prime_moments(zl, heights, k))]


# name -> (runner, {field: type | (type, default)}); a bare type is a required
# field, and each field is the flag --field with "_" spelled "-"
_SUBCOMMANDS = {
    "rmt-moment": (_run_rmt_moment, {"n": int, "k": _COMPLEX, "samples": int, "seed": (int, 0)}),
    "rmt-oracle": (_run_rmt_oracle, {"n": int, "k": _COMPLEX, "grid": (int, 1024)}),
    "hybrid-fourier-check": (_run_hybrid_fourier_check, {
        "x": float, "y": (float, 4.0), "k": _COMPLEX, "j_window": (int, 50), "grid": (int, 128),
        "m_max": (int, None),  # 4 ceil(log X)
    }),
    "hybrid-mc": (_run_hybrid_mc, {
        "n": (int, 8), "x": float, "y": (float, 4.0), "k": _COMPLEX, "samples": int, "seed": (int, 0),
    }),
    "toeplitz-check": (_run_toeplitz_check, {
        "k": _COMPLEX, "x": (float, math.e**3), "y": (float, 4.0), "sizes": (_INTS, "32,64,128"),
    }),
    "zeros compute": (_run_zeros_compute, {"t_max": float, "out": (str, None)}),
    "zeros load": (_run_zeros_load, {"path": str}),
    "zeros cross-validate": (_run_zeros_cross_validate, {
        "a": str, "b": str, "tol": (float, 1e-6), "t_max": (float, 100.0),
    }),
    # x defaults to log T; zeros is a table path or "compute" (the default)
    "px-mean": (_run_px_mean, {"t": float, "x": (float, None), "k": (_COMPLEX, "1"), "zeros": (str, None)}),
    "landau-gonek": (_run_landau_gonek, {"t": float, "m": int, "zeros": (str, None)}),
    "twisted": (_run_twisted, {"t": float, "x": (float, None), "zeros": (str, None)}),
    "conjecture-table": (_run_conjecture_table, {"k": _COMPLEX, "t": _FLOATS, "zeros": (str, None)}),
}

# fields of every subcommand; gates come from the config file only
_GLOBAL_FIELDS = {"output_dir": (str, "zetalab-results"), "workers": (int, 1), "gates": (list, None)}

_REQUIRED = object()


def _spec(spec):
    """(type, default) of a table entry; the default of a bare type is _REQUIRED."""
    return spec if isinstance(spec, tuple) else (spec, _REQUIRED)


def _cast(field, typ, value):
    """value as the field's type, a flag's text read as JSON for an int field.
    ValueError names the field for a bool (no field is one), a non-integral
    number for an int field (1e6 is taken) and any value the type refuses,
    with the reason a :func:`_text_of` type gives."""
    if typ is int and isinstance(value, str):
        with contextlib.suppress(ValueError):
            value = json.loads(value)
    reason = ""
    if not (isinstance(value, bool) or typ is int and isinstance(value, float) and not value.is_integer()):
        try:
            return typ(value)
        except (TypeError, ValueError) as exc:
            reason = "" if isinstance(typ, type) else f" ({exc})"  # a builtin's reason repeats the value
    wanted = "an integer" if typ is int else f"a {typ.__name__}"
    raise ValueError(f"field {field!r} needs {wanted}, got {value!r}{reason}")


def _resolve(name, args):
    """The run's config: the field defaults, then the --config file, then the
    flags (their text), each cast once by :func:`_cast`.  ValueError names a
    key that is no field, a missing required field, a value its field's type
    refuses, and a worker count below 1, or above 1 where no samples are drawn."""
    fields = _SUBCOMMANDS[name][1] | _GLOBAL_FIELDS
    path = args.pop("config")
    given = json.loads(Path(path).read_text()) if path else {}
    if not isinstance(given, dict):
        raise ValueError(f"{path} holds no JSON object")
    unknown = [key for key in given if key not in fields]
    if unknown:
        raise ValueError(f"unknown field {', '.join(map(repr, unknown))}")
    given = {key: value for key, value in [*given.items(), *args.items()] if value is not None}
    cfg = {}
    for field, spec in fields.items():
        typ, default = _spec(spec)
        value = given.pop(field, default)
        if value is _REQUIRED:
            raise ValueError(f"missing field {field!r}")
        cfg[field] = None if value is None else _cast(field, typ, value)
    workers = cfg["workers"]
    if workers < 1:
        raise ValueError(f"field 'workers' needs an integer >= 1, got {workers}")
    if workers > 1 and "samples" not in fields:  # the subcommands that sample are those with a samples field
        raise ValueError(f"field 'workers' must be 1 for {name}, which draws no samples, got {workers}")
    return cfg


def _default_gates(name, cfg):
    if name == "zeros cross-validate":
        return [{"name": "cross-validate-tol", "column": "empirical_re", "abs_max": cfg["tol"]}]
    if name == "toeplitz-check" and parse_complex(cfg["k"]) == 0:
        return [
            {"name": "k0-exact-ladder-re", "column": "ratio_re", "min": 1 - 1e-8, "max": 1 + 1e-8},
            {"name": "k0-exact-ladder-im", "column": "ratio_im", "min": -1e-8, "max": 1e-8},
        ]
    return []


def evaluate_gates(gates, rows):
    """Each gate must hold on every row: min <= value <= max, |value| <= abs_max.

    An empty cell is skipped; a nan value fails every gate on its column.

    Raises:
        ValueError: if a gate has no ``column``, names one that is neither
            a CSV column nor a JSON extra of any row, or meets a text value there.
    """
    known = set(CSV_COLUMNS).union(*rows)
    failures = []
    for gate in gates:
        if "column" not in gate:
            raise ValueError(f"gate {gate!r} names no column")
        col = gate["column"]
        if col not in known:
            raise ValueError(f"gate column {col!r} is neither a CSV column nor a JSON extra of these rows")
        name = gate.get("name", col)
        for i, row in enumerate(rows):
            text = row.get(col, "")
            if text == "":
                continue
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"gate {name!r}: row {i} {col} is the text {text!r}, not a number") from None
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


def _write_outputs(out_dir, rows, cfg, gates, gate_failures, wall_time):
    csv_text = io.StringIO(newline="")
    writer = csv.DictWriter(csv_text, fieldnames=CSV_COLUMNS, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    json_rows = [row | {"runtime": wall_time} for row in rows]
    outputs = {
        "results.csv": csv_text.getvalue().encode(),
        "results.json": (json.dumps(json_rows, indent=2, default=str) + "\n").encode(),
    }
    for name, data in outputs.items():
        (out_dir / name).write_bytes(data)

    manifest = {
        "zetalab_version": __version__,
        "numpy_version": np.__version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": wall_time,
        "config": cfg,
        "column_contract": {"version": _COLUMN_CONTRACT_VERSION, "provenance": COLUMN_PROVENANCE},
        "checksums": {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()},
        "gates": gates,
        "gate_failures": gate_failures,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str) + "\n")


@functools.cache
def _parser():
    parser = argparse.ArgumentParser(prog="zetalab", description=__doc__)
    parser.add_argument("--config", help="JSON config file; CLI flags override its fields")
    parser.add_argument("--output-dir", help="directory for results.csv/results.json/manifest.json")
    parser.add_argument("--workers", help="int, worker processes for Monte-Carlo sampling")
    subparsers = {"": parser.add_subparsers(dest="subcommand", required=True)}
    for name, (_, fields) in _SUBCOMMANDS.items():
        command, _, action = name.partition(" ")
        if action and command not in subparsers:
            actions = subparsers[""].add_parser(command).add_subparsers(dest="action", required=True)
            subparsers[command] = actions
        p = subparsers[command if action else ""].add_parser(action or command)
        # no type=: the flags stay text, and _resolve casts them as it casts the config file
        for field, spec in fields.items():
            typ, default = _spec(spec)
            more = "required" if default is _REQUIRED else "" if default is None else f"default {default}"
            p.add_argument("--" + field.replace("_", "-"), help=", ".join(filter(None, (typ.__name__, more))))
    return parser


def main(argv=None):
    args = vars(_parser().parse_args(argv))
    command = {key: args.pop(key) for key in ("subcommand", "action") if key in args}
    name = " ".join(command.values())
    try:
        cfg = command | _resolve(name, args)
        gates = cfg.pop("gates")
        if gates is None:
            gates = _default_gates(name, cfg)
        out_dir = Path(cfg["output_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)  # before the run, which a bad path would waste
        start = time.perf_counter()
        rows = _SUBCOMMANDS[name][0](cfg)
        wall_time = time.perf_counter() - start
        failures = evaluate_gates(gates, rows)
        _write_outputs(out_dir, rows, cfg, gates, failures, wall_time)
    except (OSError, TypeError, ValueError, MissingZeroError) as exc:
        # OSError is an unreadable config file or zero table, or an output
        # directory that cannot be made or written; unknown, missing or uncastable
        # fields, malformed JSON, a gate on a column of text and every
        # library input error (DomainError, CapabilityError,
        # ZeroTableParseError, EmptyOverlapError, ...) subclass ValueError;
        # MissingZeroError is a zero scan that could not certify its count
        message = " ".join(str(exc).split())
        print(f"{name}: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2

    for row in rows:
        print(",".join(str(row[c]) for c in CSV_COLUMNS))
    if failures:
        for failure in failures:
            print(f"GATE FAIL: {failure}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
