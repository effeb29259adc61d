import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from xlab import scaling, util

PAPER_MONO_POINTS = [(1.2e9, 21.9), (0.6e9, 25.3), (0.12e9, 48.4)]


def test_exact_synthetic_recovery():
    a, b, c = 10.0, 0.5, 15.0
    pts = [(t, a * t**-b + c) for t in (1.0, 4.0, 100.0)]
    fit = scaling.fit_power_law(pts)
    assert abs(fit.a - a) / a < 1e-3
    assert abs(fit.b - b) / b < 1e-3
    assert abs(fit.c - c) / c < 1e-3


def test_identical_ppl_values_rejected():
    with pytest.raises(scaling.FitError, match="strictly decreasing"):
        scaling.fit_power_law([(1.0, 20.0), (4.0, 20.0), (16.0, 10.0)])


def test_duplicate_token_counts_fit_as_their_mean():
    # three runs at 1 token reach 22, 22 and 31: their mean 25 lies on the curve
    a, b, c = 10.0, 0.5, 15.0
    rest = [(t, a * t**-b + c) for t in (4.0, 100.0)]
    fit = scaling.fit_power_law([(1.0, 31.0), *rest, (1.0, 22.0), (1.0, 22.0)])
    assert fit == scaling.fit_power_law([(1.0, 25.0), *rest])
    assert abs(fit.predict(1.0) - 25.0) < 1e-6


def test_too_few_points_rejected():
    with pytest.raises(scaling.FitError, match=">= 3"):
        scaling.fit_power_law([(1.0, 20.0), (4.0, 15.0)])


def test_the_floor_is_always_fitted():
    with pytest.raises(TypeError):
        scaling.fit_power_law(PAPER_MONO_POINTS, floor=False)


def test_three_point_fit_reproduces_inputs():
    fit = scaling.fit_power_law(PAPER_MONO_POINTS)
    for t, p in PAPER_MONO_POINTS:
        assert abs(fit.predict(t) - p) < 1e-6
    assert fit.residual < 1e-12


def test_mlte_inverse_identity():
    fit = scaling.fit_power_law(PAPER_MONO_POINTS)
    for t, p in PAPER_MONO_POINTS:
        assert scaling.mlte(fit, p) == pytest.approx(t, rel=1e-6)


def test_mlte_below_asymptote_rejected():
    fit = scaling.fit_power_law(PAPER_MONO_POINTS)
    with pytest.raises(scaling.BelowAsymptoteError):
        scaling.mlte(fit, fit.c)


@pytest.mark.parametrize("call, match", [
    (lambda fit: scaling.mlpe(fit, 0.0), "tokens must be positive, got 0.0"),
    (lambda fit: scaling.mlpe(fit, math.nan), "tokens must be a number, got nan"),
    (lambda fit: scaling.teff(5.0, -1.0), "t_actual must be positive, got -1.0"),
    (lambda fit: scaling.teff(5.0, math.inf), "t_actual must be a number, got inf"),
    (lambda fit: scaling.teff(math.nan, 5.0), "mlte_tokens must be a number, got nan"),
], ids=["mlpe 0", "mlpe nan", "teff -1", "teff inf", "teff nan"])
def test_mlpe_and_teff_refuse_with_fit_error(call, match):
    # a bare ValueError for the first and third; inf gave 0.0 and nan gave nan
    with pytest.raises(scaling.FitError, match=re.escape(match)):
        call(scaling.fit_power_law(PAPER_MONO_POINTS))


def test_mlte_near_asymptote_is_astronomical():
    fit = scaling.fit_power_law(PAPER_MONO_POINTS)
    t = scaling.mlte(fit, fit.c + 1e-9)
    assert t > 100 * fit.t_max
    assert not fit.in_domain(t)


def test_teff_self_consistency():
    assert scaling.teff(3.0e8, 3.0e8) == 1.0


def test_teff_many_language_headline_number():
    # 240M monolingual-equivalent tokens over a 66.7M-token budget
    assert scaling.teff(240e6, 66.7e6) == pytest.approx(3.6, abs=0.05)


def test_mlpe_mlte_roundtrip_across_six_decades():
    fit = scaling.fit_power_law(PAPER_MONO_POINTS)
    for t in np.logspace(5, 11, 25):
        back = scaling.mlte(fit, scaling.mlpe(fit, t))
        assert abs(back - t) / t < 1e-3


def test_scale_equivariance_in_tokens():
    rng = np.random.default_rng(0)
    a, b, c = 7.0, 0.4, 5.0
    ts = np.logspace(2, 6, 6)
    pts = [(t, a * t**-b + c) for t in ts]
    k = 137.0
    fit1 = scaling.fit_power_law(pts)
    fit2 = scaling.fit_power_law([(k * t, p) for t, p in pts])
    assert fit2.b == pytest.approx(fit1.b, rel=1e-6)
    assert fit2.c == pytest.approx(fit1.c, rel=1e-5)
    assert fit2.a == pytest.approx(fit1.a * k**fit1.b, rel=1e-4)
    # TEff unchanged under rescaling
    ppl = float(fit1.predict(3.3e4))
    t1 = scaling.teff(scaling.mlte(fit1, ppl), 3.3e4)
    t2 = scaling.teff(scaling.mlte(fit2, ppl), k * 3.3e4)
    assert t2 == pytest.approx(t1, rel=1e-4)


def test_monotonicity():
    fit = scaling.fit_power_law(PAPER_MONO_POINTS)
    ppls = np.linspace(fit.c + 1, fit.c + 40, 20)
    ts = [scaling.mlte(fit, p) for p in ppls]
    assert all(x > y for x, y in zip(ts, ts[1:]))
    tokens = np.logspace(7, 10, 20)
    ps = [scaling.mlpe(fit, t) for t in tokens]
    assert all(x > y for x, y in zip(ps, ps[1:]))


def test_noisy_recovery_within_five_percent():
    rng = np.random.default_rng(12)
    a, b, c = 10.0, 0.5, 15.0
    ts = np.logspace(0, 6, 8)
    pts = [(t, (a * t**-b + c) * (1 + 0.005 * rng.standard_normal())) for t in ts]
    fit = scaling.fit_power_law(pts)
    assert abs(fit.a - a) / a < 0.05
    assert abs(fit.b - b) / b < 0.05
    assert abs(fit.c - c) / c < 0.05


def test_fit_json_roundtrip(tmp_path):
    fit = scaling.fit_power_law(PAPER_MONO_POINTS)
    fit.save(tmp_path / "fit.xlsf")
    back = scaling.ScalingFit.load(tmp_path / "fit.xlsf")
    assert back == fit


@pytest.mark.parametrize("text, match", [
    ('{"a": 1.0, "b": 0.5, "c": 1.0, "domain": [1, 10]}', r"unknown fields \['domain'\]"),
    ('{"a": 1.0, "b": 0.5, "c": 1.0, "t_min": 1, "t_max": 10}', r"missing fields \['residual'\]"),
    ('{"a": -1.0, "b": 0.5, "c": 1.0, "residual": 0, "t_min": 1, "t_max": 10}',
     "residual must be a finite float, got 0"),
])
def test_fit_load_errors_name_file_and_field(tmp_path, text, match):
    path = tmp_path / "fit.xlsf"
    util.write_arrays(path, scaling.FIT_MAGIC, scaling.FIT_VERSION, json.loads(text))
    with pytest.raises(scaling.FitError, match=match) as info:
        scaling.ScalingFit.load(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("edit", [dict(a=-1.0), dict(b=0.0), dict(c=-1.0),
                                  dict(t_min=5.0, t_max=2.0), dict(t_min=0.0),
                                  dict(residual=-1.0)])
def test_a_fit_refuses_parameters_domain_and_residual_out_of_range(tmp_path, edit):
    good = dict(a=1.0, b=0.5, c=1.0, residual=0.0, t_min=1.0, t_max=10.0)
    got = {**good, **edit}
    match = re.escape("need a, b > 0, c >= 0, 0 < t_min <= t_max and residual >= 0: "
                      "ScalingFit(a={a}, b={b}, c={c}, residual={residual}, t_min={t_min}, "
                      "t_max={t_max})".format(**got))
    with pytest.raises(scaling.FitError, match=match):
        scaling.ScalingFit(**got)
    path = tmp_path / "fit.xlsf"
    util.write_arrays(path, scaling.FIT_MAGIC, scaling.FIT_VERSION, got)
    with pytest.raises(scaling.FitError, match=f"{path}: {match}"):
        scaling.ScalingFit.load(path)


def test_efficiency_report_rows():
    fit = scaling.fit_power_law(PAPER_MONO_POINTS)
    per_lang = {0: (1.08e9, 22.5), 1: (0.12e9, 32.8)}
    rows = scaling.efficiency_report(fit, per_lang)
    assert [r.language for r in rows] == [0, 1]
    for r in rows:
        t_n, ppl_n = per_lang[r.language]
        assert r.teff == scaling.mlte(fit, ppl_n) / t_n  # exact identity
        assert r.mlpe == pytest.approx(fit.predict(t_n))
    # the imbalanced rare language beats 1; the main language is near 1
    assert rows[1].teff > 1.5
    assert 0.5 < rows[0].teff < 1.5


def test_efficiency_report_below_asymptote():
    fit = scaling.fit_power_law(PAPER_MONO_POINTS)
    rows = scaling.efficiency_report(fit, {0: (1e9, fit.c * 0.99)})
    assert rows[0].mlte is None and rows[0].teff is None and rows[0].extrapolated


def scalar_log_objective(t, p, b):
    """The fit objective written out for one exponent b: weighted least
    squares for (a, c) with c clamped to >= 1, then the squared log-ppl error
    (inf if infeasible)."""
    u = t ** (-b)
    w = 1.0 / p**2
    sw, swu, swuu = w.sum(), (w * u).sum(), (w * u * u).sum()
    swp, swup = (w * p).sum(), (w * u * p).sum()
    det = swuu * sw - swu * swu
    if det <= 0:
        return math.inf
    a = (swup * sw - swp * swu) / det
    c = (swuu * swp - swu * swup) / det
    if c < 1.0:
        c = 1.0
        a = (w * u * (p - c)).sum() / max((w * u * u).sum(), 1e-300)
    if not np.isfinite(a) or a <= 0:
        return math.inf
    pred = a * u + c
    if np.any(pred <= 0):
        return math.inf
    return float(((np.log(pred) - np.log(p)) ** 2).sum())


@st.composite
def curves(draw):
    """Noisy power-law points, log10 token counts in [3, 10] and ppl above 1;
    a negative b makes rising curves, for which many grid cells are infeasible."""
    exps = draw(st.lists(st.floats(3.0, 10.0), min_size=3, max_size=12, unique=True))
    t = 10.0 ** np.sort(np.array(exps))
    a, b = draw(st.floats(1.0, 1e4)), draw(st.floats(-1.0, 1.5))
    c = draw(st.floats(0.0, 10.0))
    noise = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=len(t), max_size=len(t))))
    return t, 1.0 + c + a * (t / t[0]) ** -b * np.exp(noise)


@settings(max_examples=20, deadline=None)
@given(curves())
def test_vectorised_fit_grid_is_bitwise_the_scalar_objective(curve):
    t, p = curve
    grid = np.arange(scaling.B_MIN, scaling.B_MAX + scaling.B_STEP / 2, scaling.B_STEP)
    got = scaling._log_objective(t, p, grid)[0]
    want = np.array([scalar_log_objective(t, p, b) for b in grid])
    assert got.tobytes() == want.tobytes()
    assert scaling._log_objective(t, p, grid[7])[0] == want[7]


def _fit_or_message(points):
    try:
        return np.array(dataclasses.astuple(scaling.fit_power_law(points))).tobytes()
    except scaling.FitError as e:
        return str(e)


def test_fit_is_bitwise_the_fit_with_scipys_bounded_minimize_scalar(monkeypatch):
    rng = np.random.default_rng(24)
    curves = []
    for k in range(240):
        # 3 to 15 points over 1 to 4 decades, starting 1 to 30 times the floor above it
        t = rng.uniform(1e3, 1e6) * np.geomspace(1, 10 ** rng.uniform(1, 4), rng.integers(3, 16))
        b, c = rng.uniform(0.08, 1.9), rng.uniform(1.5, 40.0)
        p = rng.uniform(1, 30) * c * (t / t[0]) ** -b + c
        if k % 2:  # half of them with up to 3% noise
            p *= 1 + rng.uniform(-0.03, 0.03, size=len(t))
        curves.append(list(zip(t.tolist(), p.tolist())))
    ours = [_fit_or_message(pts) for pts in curves]

    def scipy_fminbound(func, lo, hi, xatol):
        return minimize_scalar(func, bounds=(lo, hi), method="bounded",
                               options={"xatol": xatol}).x

    monkeypatch.setattr(scaling, "_fminbound", scipy_fminbound)
    theirs = [_fit_or_message(pts) for pts in curves]
    assert ours == theirs
    errors = sum(isinstance(x, str) for x in ours)
    assert 20 <= errors <= 60  # both outcomes are compared


@pytest.mark.parametrize("points", [[(1, 3, 4)], "abc", [(1.0, "x")], [[1, 2], [3]], 5,
                                    [("1e3", "30"), ("1e4", "20"), ("1e5", "15")]])
def test_points_that_are_not_number_pairs_raise_fit_error(points):
    # [(1, 3, 4)] and "abc" raised numpy's bare ValueError, and numpy read "1e3" as 1000.0
    with pytest.raises(scaling.FitError, match=r"points must be \(tokens, ppl\) number pairs"):
        scaling.fit_power_law(points)


def test_efficiency_report_names_a_language_without_a_fit():
    # a bare KeyError: 1 before
    fit = scaling.fit_power_law(PAPER_MONO_POINTS)
    with pytest.raises(scaling.FitError, match=r"no fit for languages \[1\], only for \[0\]"):
        scaling.efficiency_report({0: fit}, {0: (1e9, 22.5), 1: (1e9, 30.0)})
