"""Monolingual perplexity-vs-tokens power laws and the token-efficiency
metrics derived from them.

The fitted form is ``ppl(t) = a * t**(-b) + c`` with a > 0, b > 0 and an
additive floor c (clamped to >= 1; c = 0 available as the pure form). The
fit minimizes squared error in log-ppl space. It is solved by a deterministic
grid over b with a closed-form weighted linear least-squares solve for (a, c)
at each b (weights 1/ppl^2, the delta-method approximation of log residuals),
followed by golden-section refinement of b.

Metric vocabulary: given a multilingual run that saw t_n tokens of language n
and reached perplexity ppl_n there,

* mlte(fit, ppl_n) is the token count a monolingual model would need for the
  same perplexity;
* mlpe(fit, t_n) is the perplexity a monolingual model would reach at the
  same token budget;
* teff = mlte / t_n; above 1 means multilinguality helped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

# the grid over the exponent b that golden-section refinement starts from
B_MIN, B_MAX, B_STEP = 0.05, 2.0, 0.001


class FitError(ValueError):
    pass


class BelowAsymptoteError(ValueError):
    pass


@dataclass(frozen=True)
class ScalingFit:
    a: float
    b: float
    c: float
    residual: float  # sum of squared log-ppl errors at the fitted points
    t_min: float
    t_max: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0 or self.c < 0:
            raise FitError(f"invalid fit parameters a={self.a}, b={self.b}, c={self.c}")

    def predict(self, tokens) -> np.ndarray | float:
        t = np.asarray(tokens, dtype=np.float64)
        out = self.a * t ** (-self.b) + self.c
        return float(out) if out.ndim == 0 else out

    def in_domain(self, tokens: float) -> bool:
        return self.t_min <= tokens <= self.t_max

    def to_dict(self) -> dict:
        return {
            "a": self.a, "b": self.b, "c": self.c,
            "residual": self.residual, "domain": [self.t_min, self.t_max],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScalingFit":
        return cls(a=d["a"], b=d["b"], c=d["c"], residual=d["residual"],
                   t_min=d["domain"][0], t_max=d["domain"][1])

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, indent=1))

    @classmethod
    def load(cls, path: str | Path) -> "ScalingFit":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _solve_ac(u: np.ndarray, p: np.ndarray, w: np.ndarray, floor: bool):
    """Weighted least squares for (a, c) in p ~ a*u + c; c clamped to the
    floor (1.0) or fixed at 0 for the pure form. Returns None if no a > 0."""
    if floor:
        sw, swu, swuu = w.sum(), (w * u).sum(), (w * u * u).sum()
        swp, swup = (w * p).sum(), (w * u * p).sum()
        det = swuu * sw - swu * swu
        if det <= 0:
            return None
        a = (swup * sw - swp * swu) / det
        c = (swuu * swp - swu * swup) / det
        if c < 1.0:
            c = 1.0
            a = ((w * u * (p - c)).sum()) / max((w * u * u).sum(), 1e-300)
    else:
        c = 0.0
        a = (w * u * p).sum() / max((w * u * u).sum(), 1e-300)
    if not np.isfinite(a) or a <= 0:
        return None
    return float(a), float(c)


def _log_objective(t: np.ndarray, p: np.ndarray, b: float, floor: bool):
    u = t ** (-b)
    sol = _solve_ac(u, p, 1.0 / p**2, floor)
    if sol is None:
        return math.inf, None
    a, c = sol
    pred = a * u + c
    if np.any(pred <= 0):
        return math.inf, None
    resid = float(((np.log(pred) - np.log(p)) ** 2).sum())
    return resid, (a, c)


def fit_power_law(
    points: Sequence[tuple[float, float]],
    floor: bool = True,
) -> ScalingFit:
    """Fit ppl(t) = a*t^(-b) + c to >= 3 (tokens, ppl) points.

    The observed perplexities must be strictly decreasing in tokens (after
    averaging duplicate token counts); otherwise no strictly decreasing curve
    fits and a FitError reports the best achievable residual.
    """
    pts = sorted((float(t), float(p)) for t, p in points)
    merged: list[tuple[float, float]] = []
    for t, p in pts:
        if merged and merged[-1][0] == t:
            prev_t, prev_p = merged[-1]
            merged[-1] = (prev_t, (prev_p + p) / 2)
        else:
            merged.append((t, p))
    if len(merged) < 3:
        raise FitError(f"need >= 3 distinct token counts, got {len(merged)}")
    t = np.array([x for x, _ in merged])
    p = np.array([y for _, y in merged])
    if np.any(t <= 0) or np.any(p <= 1):
        raise FitError("token counts must be positive and perplexities > 1")

    grid = np.arange(B_MIN, B_MAX + B_STEP / 2, B_STEP)
    scores = [_log_objective(t, p, b, floor)[0] for b in grid]
    best_i = int(np.argmin(scores))

    if np.any(np.diff(p) >= 0):
        raise FitError(
            "observed perplexities are not strictly decreasing in tokens; "
            f"no decreasing power law fits (best residual {min(scores):.6g})"
        )
    if not np.isfinite(scores[best_i]):
        raise FitError("no feasible fit with a > 0 on the search grid")

    # golden-section refinement around the best grid cell
    gr = (math.sqrt(5) - 1) / 2
    x_lo = grid[max(best_i - 1, 0)]
    x_hi = grid[min(best_i + 1, len(grid) - 1)]
    x1 = x_hi - gr * (x_hi - x_lo)
    x2 = x_lo + gr * (x_hi - x_lo)
    f1 = _log_objective(t, p, x1, floor)[0]
    f2 = _log_objective(t, p, x2, floor)[0]
    while x_hi - x_lo > 1e-10:
        if f1 <= f2:
            x_hi, x2, f2 = x2, x1, f1
            x1 = x_hi - gr * (x_hi - x_lo)
            f1 = _log_objective(t, p, x1, floor)[0]
        else:
            x_lo, x1, f1 = x1, x2, f2
            x2 = x_lo + gr * (x_hi - x_lo)
            f2 = _log_objective(t, p, x2, floor)[0]
    b = (x_lo + x_hi) / 2
    resid, sol = _log_objective(t, p, b, floor)
    if sol is None:
        raise FitError("no feasible fit with a > 0 after refinement")
    a, c = sol
    return ScalingFit(a=a, b=b, c=c, residual=resid, t_min=float(t[0]), t_max=float(t[-1]))


def mlte(fit: ScalingFit, ppl: float) -> float:
    """Tokens a monolingual model needs to reach ``ppl`` under the fit."""
    if ppl <= fit.c:
        raise BelowAsymptoteError(
            f"perplexity {ppl} is at or below the fitted asymptote c={fit.c}; "
            "no finite token count reaches it"
        )
    return float(((ppl - fit.c) / fit.a) ** (-1.0 / fit.b))


def mlpe(fit: ScalingFit, tokens: float) -> float:
    """Perplexity a monolingual model reaches at ``tokens``."""
    if tokens <= 0:
        raise ValueError("tokens must be positive")
    return float(fit.predict(tokens))


def teff(mlte_tokens: float, t_actual: float) -> float:
    """Token efficiency: > 1 means multilinguality helped."""
    if t_actual <= 0:
        raise ValueError("t_actual must be positive")
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
    fitted asymptote yields mlte/teff of None (reported, not raised)."""
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
