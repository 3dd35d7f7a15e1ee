"""Nontrivial zero ordinates by Hardy-Z sign changes, with count verification.

The scan walks the critical line with a step of one quarter of the local mean
gap 2*pi / log(t/2*pi), brackets sign changes of Z, refines the brackets in
lockstep by Illinois (modified regula falsi) steps down to 1e-11, and
reconciles the final count against round(theta(t)/pi + 1).  A mismatch
triggers rescans of the suspect gaps at 4x density before a hard failure is
raised.

Z is taken from the Riemann-Siegel formula where its value clears twice
Gabcke's error bound, and from Euler-Maclaurin everywhere else (below t = 200
and next to every root), so each sign the scan and the refinement see is the
Euler-Maclaurin sign while most points cost O(sqrt t) instead of O(t).

Computed lists are cached on disk (one ordinate per line, the same plain-text
format the loader ingests) under the directory named by the ``ZETALAB_CACHE``
environment variable, keyed by the exact height, with a SHA-256 digest that
is checked on every read; both files are written atomically.
"""

import hashlib
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, EmptyOverlapError, MissingZeroError, ZeroTableParseError
from .specfun import RS_T_MIN, hardy_z, hardy_z_rs, riemann_siegel_theta

_TWO_PI = 2.0 * math.pi
_SCAN_START = 10.0  # below the first zero at 14.134...
_BRACKET_WIDTH = 1e-11
CACHE_ENV = "ZETALAB_CACHE"


@dataclass(frozen=True)
class ZeroList:
    """Ordered zero ordinates up to a covered height, with provenance."""

    gammas: np.ndarray  # strictly increasing positive reals
    t_max: float
    source: str  # "computed" or "ingested:<path>"
    precision: float  # estimated ordinate accuracy

    def __post_init__(self):
        g = self.gammas
        if len(g) and (np.any(np.diff(g) <= 0) or g[0] <= 0):
            raise ValueError("zero ordinates must be strictly increasing and positive")
        if len(g) and g[-1] > self.t_max:
            raise ValueError("zero ordinates exceed the covered height")

    def below(self, t):
        """Ordinates with gamma <= t."""
        return self.gammas[self.gammas <= t]

    def __len__(self):
        return len(self.gammas)


def expected_zero_count(t):
    """round(theta(t)/pi + 1): the zero count under the |S(t)| < 1/2 heuristic."""
    return int(round(riemann_siegel_theta(t) / math.pi + 1.0))


def _scan_grid(t_lo, t_hi, density=1.0):
    """Scan points with step = local mean gap / (4 * density)."""
    pts = [t_lo]
    t = t_lo
    while t < t_hi:
        gap = _TWO_PI / max(math.log(t / _TWO_PI), 0.2)
        t = t + gap / (4.0 * density)
        pts.append(min(t, t_hi))
    return np.array(pts)


def _eval_z(points):
    """Hardy Z on ascending points, each with the sign Euler-Maclaurin gives it.

    The Riemann-Siegel value stands in wherever it clears twice its error bound,
    so that its sign is Z's; every other point (below RS_T_MIN, or near a root)
    takes the Euler-Maclaurin value, chunked so each chunk's truncation fits its
    heights.
    """
    out = np.empty(len(points))
    certified = points >= RS_T_MIN
    if certified.any():
        z_rs, bound = hardy_z_rs(points[certified])
        out[certified] = z_rs
        certified[certified] = np.abs(z_rs) > 2.0 * bound
    slow = np.flatnonzero(~certified)
    for lo in range(0, len(slow), 2048):
        idx = slow[lo : lo + 2048]
        out[idx] = hardy_z(points[idx])
    return out


def _refine_brackets(lo, hi, z):
    """Lockstep Illinois refinement of sign-change brackets to _BRACKET_WIDTH.

    Each step evaluates Z once per bracket still wider than _BRACKET_WIDTH, at
    the regula falsi point kept at least _BRACKET_WIDTH/4 inside either end,
    so that an iterate landing next to the root closes the bracket on the next
    step; the end retained twice in a row has its value halved (Illinois).
    Near a root |Z| falls below the Riemann-Siegel margin of :func:`_eval_z`,
    so the final ends carry Euler-Maclaurin signs.  Returns the midpoints.
    """
    x0, x1 = lo.copy(), hi.copy()
    f0, f1 = z[:, 0].copy(), z[:, 1].copy()
    margin = 0.25 * _BRACKET_WIDTH
    active = np.flatnonzero(np.abs(x1 - x0) > _BRACKET_WIDTH)
    while active.size:
        a, b, fa, fb = x0[active], x1[active], f0[active], f1[active]
        c = np.clip(
            b - fb * (b - a) / (fb - fa), np.minimum(a, b) + margin, np.maximum(a, b) - margin
        )
        fc = _eval_z(c)
        crossed = np.signbit(fc) != np.signbit(fb)
        x0[active] = np.where(crossed, b, a)
        f0[active] = np.where(crossed, fb, 0.5 * fa)
        x1[active], f1[active] = c, fc
        active = active[np.abs(c - x0[active]) > _BRACKET_WIDTH]
    return 0.5 * (x0 + x1)


def _find_brackets(t_lo, t_hi, density):
    """Sign-change brackets of Z on the scan grid: (lo, hi, Z at [lo, hi] per row)."""
    grid = _scan_grid(t_lo, t_hi, density)
    z = _eval_z(grid)
    flips = np.nonzero(np.signbit(z[:-1]) != np.signbit(z[1:]))[0]
    return grid[flips], grid[flips + 1], np.column_stack((z[flips], z[flips + 1]))


def _cache_paths(cache_dir, t_max, density):
    """Table and digest paths, keyed by the exact (17-digit) t_max and density."""
    base = Path(cache_dir) / f"zeros_t{t_max:.17g}_g{4 * density:.17g}.txt"
    return base, base.with_suffix(".sha256")


def _read_cache(path, digest_path):
    """Cached ordinates, or None when a file is missing or the table fails its digest."""
    try:
        data = path.read_bytes()
        digest = digest_path.read_text().strip()
    except FileNotFoundError:
        return None
    if hashlib.sha256(data).hexdigest() != digest:
        return None
    return np.array(data.split(), dtype=float)


def _write_atomic(path, text):
    """Write text to a temporary file beside path, then rename it over path."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _format_table(gammas):
    return "".join(f"{g:.11f}\n" for g in gammas)


def compute_zeros(t_max, cache_dir=None, max_rescans=6, density=1.0):
    """All zero ordinates in (0, t_max], bracketed to 1e-11 and count-verified.

    Args:
        t_max: covered height, between 10 and 1e4 (desk scale).
        cache_dir: directory for the on-disk cache; defaults to the
            ``ZETALAB_CACHE`` environment variable; pass ``False`` to disable
            caching outright.
        max_rescans: rescan rounds (each at doubled density) before a count
            mismatch becomes a hard failure.
        density: multiplier on the initial scan density (1.0 = quarter of the
            local mean gap); the result must not depend on it.

    Raises:
        MissingZeroError: if the scan count cannot be reconciled with
            round(theta(t_max)/pi + 1), carrying the suspect interval.
    """
    if not 10.0 <= t_max <= 1e4:
        raise DomainError("computed zeros support 10 <= t_max <= 1e4; ingest a table beyond that")
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV)
    if cache_dir:
        path, digest_path = _cache_paths(cache_dir, t_max, density)
        cached = _read_cache(path, digest_path)
        if cached is not None:
            return ZeroList(
                gammas=cached, t_max=float(t_max), source="computed", precision=_BRACKET_WIDTH
            )

    lo, hi, z = _find_brackets(_SCAN_START, t_max, density=density)
    gammas = _refine_brackets(lo, hi, z)
    expected = expected_zero_count(t_max)

    rescan_density = 4.0 * density
    attempts = 0
    while len(gammas) != expected and attempts < max_rescans:
        # locate gaps whose theta-count drift suggests a missed pair
        edges = np.concatenate(([_SCAN_START], gammas, [t_max]))
        counts = riemann_siegel_theta(np.maximum(edges, _SCAN_START)) / math.pi + 1.0
        drift = np.diff(counts)
        suspects = np.nonzero(drift > 0.9)[0]
        if len(suspects) == 0:
            suspects = np.argsort(drift)[-3:]
        new = []
        for i in suspects:
            s_lo, s_hi = edges[i] + 1e-9, edges[i + 1] - 1e-9
            if s_hi <= s_lo:
                continue
            b_lo, b_hi, b_z = _find_brackets(s_lo, s_hi, rescan_density)
            if len(b_lo):
                found = _refine_brackets(b_lo, b_hi, b_z)
                new.extend(g for g in found if not np.any(np.abs(gammas - g) < 1e-8))
        if new:
            gammas = np.sort(np.concatenate((gammas, new)))
        rescan_density *= 2.0
        attempts += 1

    if len(gammas) != expected:
        edges = np.concatenate(([_SCAN_START], gammas, [t_max]))
        counts = riemann_siegel_theta(np.maximum(edges, _SCAN_START)) / math.pi + 1.0
        worst = int(np.argmax(np.diff(counts)))
        raise MissingZeroError(
            f"found {len(gammas)} zeros below {t_max}, expected {expected} "
            f"(suspect interval near ({edges[worst]:.6f}, {edges[worst + 1]:.6f}))",
            interval=(float(edges[worst]), float(edges[worst + 1])),
        )

    result = ZeroList(
        gammas=np.sort(gammas), t_max=float(t_max), source="computed", precision=_BRACKET_WIDTH
    )
    if cache_dir:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        text = _format_table(result.gammas)
        _write_atomic(path, text)
        _write_atomic(digest_path, hashlib.sha256(text.encode()).hexdigest() + "\n")
    return result


def load_zeros(path):
    """Parse a zero table: one decimal ordinate per line, ascending, no header."""
    path = Path(path)
    gammas = []
    prev = 0.0
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                raise ZeroTableParseError(
                    f"{path}:{line_no}: not a decimal ordinate: {text!r}", line_number=line_no
                ) from None
            if value <= prev:
                raise ZeroTableParseError(
                    f"{path}:{line_no}: ordinates must be strictly ascending "
                    f"({value} after {prev})",
                    line_number=line_no,
                )
            gammas.append(value)
            prev = value
    arr = np.array(gammas)
    return ZeroList(
        gammas=arr,
        t_max=float(arr[-1]) if len(arr) else 0.0,
        source=f"ingested:{path}",
        precision=1e-6,
    )


@dataclass(frozen=True)
class CrossValidation:
    """Per-zero comparison of two lists on their common height range."""

    n_compared: int
    max_abs_diff: float
    count_a: int
    count_b: int
    overlap_t: float

    @property
    def counts_agree(self):
        return self.count_a == self.count_b


def cross_validate(a, b):
    """Compare two zero lists on the overlap of their covered ranges.

    Raises:
        EmptyOverlapError: if the ranges are disjoint (no common height).
    """
    overlap = min(a.t_max, b.t_max)
    ga, gb = a.below(overlap), b.below(overlap)
    if len(ga) == 0 and len(gb) == 0:
        raise EmptyOverlapError("zero lists share no populated height range")
    n = min(len(ga), len(gb))
    diffs = np.abs(ga[:n] - gb[:n])
    report = CrossValidation(
        n_compared=n,
        max_abs_diff=float(diffs.max()) if n else math.inf,
        count_a=len(ga),
        count_b=len(gb),
        overlap_t=float(overlap),
    )
    return report

