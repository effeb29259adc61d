"""Monolingual perplexity-vs-tokens power laws and the token-efficiency
metrics derived from them.

The fitted form is ``ppl(t) = a * t**(-b) + c`` with a > 0, b > 0 and an
additive floor c, clamped to >= 1 (no perplexity is below 1). The fit
minimizes squared error in log-ppl space. It is solved by a deterministic grid
over b with a closed-form weighted linear least-squares solve for (a, c)
at each b (weights 1/ppl^2, the delta-method approximation of log residuals),
followed by Brent's bounded refinement of b between the grid neighbours of
the best cell. The refinement, :func:`_fminbound`, is SciPy's bounded
``minimize_scalar`` ported op for op, so a fit returns the bits SciPy's would
and xlab needs numpy alone.

Metric vocabulary: given a multilingual run that saw t_n tokens of language n
and reached perplexity ppl_n there,

* mlte(fit, ppl_n) is the token count a monolingual model would need for the
  same perplexity;
* mlpe(fit, t_n) is the perplexity a monolingual model would reach at the
  same token budget;
* teff = mlte / t_n; above 1 means multilinguality helped.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import sqrt
from pathlib import Path
from typing import Sequence

import numpy as np

from .util import check_fields, checked_args, from_fields, read_arrays, write_arrays

FIT_MAGIC = b"XLSF"
FIT_VERSION = 1

# the grid over the exponent b that the refinement starts from
B_MIN, B_MAX, B_STEP = 0.05, 2.0, 0.001


class FitError(ValueError):
    pass


class BelowAsymptoteError(ValueError):
    pass


@dataclass(frozen=True)
class ScalingFit:
    """A power law fitted on [t_min, t_max]; the constructor checks the fields' types."""

    a: float
    b: float
    c: float
    residual: float  # sum of squared log-ppl errors at the fitted points
    t_min: float
    t_max: float

    def __post_init__(self):
        check_fields(self, FitError)
        if not (self.a > 0 and self.b > 0 and self.c >= 0 and 0 < self.t_min <= self.t_max
                and self.residual >= 0):
            raise FitError(f"need a, b > 0, c >= 0, 0 < t_min <= t_max and residual >= 0: {self}")

    def predict(self, tokens) -> np.ndarray | float:
        t = np.asarray(tokens, dtype=np.float64)
        out = self.a * t ** (-self.b) + self.c
        return float(out) if out.ndim == 0 else out

    @checked_args(FitError)
    def in_domain(self, tokens: float) -> bool:
        return self.t_min <= tokens <= self.t_max

    def save(self, path: str | Path) -> None:
        write_arrays(path, FIT_MAGIC, FIT_VERSION, asdict(self))

    @classmethod
    def load(cls, path: str | Path) -> "ScalingFit":
        header, _ = read_arrays(path, FIT_MAGIC, FIT_VERSION, FitError)
        return from_fields(cls, header, FitError, f"{path}: ")


def _solve_ac(u: np.ndarray, p: np.ndarray, w: np.ndarray):
    """Weighted least squares for (a, c) in p ~ a*u + c along u's last axis,
    c clamped to >= 1. Returns (a, c) with a NaN where no a > 0 fits."""
    swuu = (w * u * u).sum(axis=-1)
    sw, swu = w.sum(), (w * u).sum(axis=-1)
    swp, swup = (w * p).sum(), (w * u * p).sum(axis=-1)
    det = swuu * sw - swu * swu
    a = (swup * sw - swp * swu) / det
    c = (swuu * swp - swu * swup) / det
    low = c < 1.0
    c = np.where(low, 1.0, c)
    a = np.where(low, (w * u * (p - 1.0)).sum(axis=-1) / np.maximum(swuu, 1e-300), a)
    a = np.where(det > 0, a, np.nan)
    return np.where(np.isfinite(a) & (a > 0), a, np.nan), c


def _log_objective(t: np.ndarray, p: np.ndarray, b):
    """(residual, a, c) of the best fit at each exponent of the array ``b``;
    the residual is inf and a NaN where no fit with a > 0 exists."""
    u = t ** -np.asarray(b)[..., None]
    # the rows that divide by zero or take the log of a non-positive are masked
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, c = _solve_ac(u, p, 1.0 / p**2)
        pred = a[..., None] * u + c[..., None]
        resid = ((np.log(pred) - np.log(p)) ** 2).sum(axis=-1)
    ok = ~np.isnan(a) & ~np.any(pred <= 0, axis=-1)
    return np.where(ok, resid, np.inf), np.where(ok, a, np.nan), c


def _fminbound(func, lo: float, hi: float, xatol: float) -> float:
    """The x in [lo, hi] at which Brent's bounded method (Brent 1973, *Algorithms for
    Minimization without Derivatives*, ch. 5) stops minimizing ``func``.

    A port, op for op, of ``_minimize_scalar_bounded`` in SciPy 1.17.1's
    ``optimize/_optimize.py`` (BSD 3-clause licence, Copyright (c) 2001-2002
    Enthought, Inc. 2003, SciPy Developers), without its printing and its
    result object: the same steps in the same order, so the same x.
    """
    maxfun = 500  # SciPy's default maxiter
    sqrt_eps = sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # a parabola through the three best points, if it is acceptable
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = 1
        if golden:  # a golden-section step otherwise
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf


def fit_power_law(points: Sequence[tuple[float, float]]) -> ScalingFit:
    """Fit ppl(t) = a*t^(-b) + c to >= 3 (tokens, ppl) points.

    The observed perplexities must be strictly decreasing in tokens (after
    averaging the perplexities of each token count); otherwise no strictly
    decreasing curve fits and a FitError reports the best achievable residual.
    Points that are not number pairs raise FitError too.
    """
    try:
        pts = np.asarray(points)
    except ValueError as e:  # ragged
        raise FitError(f"points must be (tokens, ppl) number pairs: {e}") from e
    if pts.size and (pts.dtype.kind not in "iuf" or pts.ndim != 2 or pts.shape[1] != 2):
        raise FitError(f"points must be (tokens, ppl) number pairs, got {pts.dtype} of shape "
                       f"{pts.shape}")
    t_all, p_all = pts.reshape(-1, 2).astype(np.float64).T
    t, which, counts = np.unique(t_all, return_inverse=True, return_counts=True)
    p = np.bincount(which, weights=p_all) / counts
    if len(t) < 3:
        raise FitError(f"need >= 3 distinct token counts, got {len(t)}")
    if not (np.all(t > 0) and np.all(p > 1)):
        raise FitError("token counts must be positive and perplexities > 1")

    grid = np.arange(B_MIN, B_MAX + B_STEP / 2, B_STEP)
    scores = _log_objective(t, p, grid)[0]
    best_i = int(np.argmin(scores))

    if np.any(np.diff(p) >= 0):
        raise FitError("observed perplexities are not strictly decreasing in tokens; no "
                       f"decreasing power law fits (best residual {min(scores):.6g})")
    if not np.isfinite(scores[best_i]):
        raise FitError("no feasible fit with a > 0 on the search grid")

    bracket = grid[max(best_i - 1, 0)], grid[min(best_i + 1, len(grid) - 1)]
    b = _fminbound(lambda x: float(_log_objective(t, p, x)[0]), *bracket, xatol=1e-10)
    resid, a, c = _log_objective(t, p, b)
    if np.isnan(a):
        raise FitError("no feasible fit with a > 0 after refinement")
    return ScalingFit(a=float(a), b=float(b), c=float(c), residual=float(resid),
                      t_min=float(t[0]), t_max=float(t[-1]))


@checked_args(FitError)
def mlte(fit: ScalingFit, ppl: float) -> float:
    """Tokens a monolingual model needs to reach ``ppl`` under the fit."""
    if ppl <= fit.c:
        raise BelowAsymptoteError(
            f"perplexity {ppl} is at or below the fitted asymptote c={fit.c}; "
            "no finite token count reaches it"
        )
    return float(((ppl - fit.c) / fit.a) ** (-1.0 / fit.b))


@checked_args(FitError)
def mlpe(fit: ScalingFit, tokens: float) -> float:
    """Perplexity a monolingual model reaches at ``tokens``."""
    if tokens <= 0:
        raise FitError(f"tokens must be positive, got {tokens}")
    return float(fit.predict(tokens))


@checked_args(FitError)
def teff(mlte_tokens: float, t_actual: float) -> float:
    """Token efficiency: > 1 means multilinguality helped."""
    if t_actual <= 0:
        raise FitError(f"t_actual must be positive, got {t_actual}")
    return mlte_tokens / t_actual


@dataclass(frozen=True)
class EfficiencyRow:
    language: int
    tokens: float
    ppl: float
    mlte: float | None
    mlpe: float
    teff: float | None
    extrapolated: bool


def efficiency_report(
    fits: ScalingFit | dict[int, ScalingFit],
    per_language: dict[int, tuple[float, float]],
) -> list[EfficiencyRow]:
    """One row per language from {language: (tokens_trained, ppl_reached)}.

    For cloned languages a single monolingual fit serves all clones; real
    language pairs pass one fit per language. A perplexity at or below the
    fitted asymptote yields mlte/teff of None (reported, not raised); a language
    without a fit raises FitError."""
    if isinstance(fits, dict) and (missing := sorted(per_language.keys() - fits.keys())):
        raise FitError(f"no fit for languages {missing}, only for {sorted(fits)}")
    rows = []
    for lang in sorted(per_language):
        t_n, ppl_n = per_language[lang]
        fit = fits[lang] if isinstance(fits, dict) else fits
        try:
            m = mlte(fit, ppl_n)
            eff = teff(m, t_n)
            extrapolated = not fit.in_domain(m)
        except BelowAsymptoteError:
            m, eff, extrapolated = None, None, True
        rows.append(
            EfficiencyRow(
                language=lang, tokens=t_n, ppl=ppl_n, mlte=m,
                mlpe=mlpe(fit, t_n), teff=eff, extrapolated=extrapolated,
            )
        )
    return rows
