"""Closed-form bounds: reference values, exact-arithmetic edges, oracles."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dinners.bounds import (
    ceil_div,
    compute_bounds,
    j_star,
    lb1,
    lb2,
    lb3,
    lb4,
    lb5,
    lb5_argmax,
    lb5_term,
    lb_best,
    lp_value_scan,
    optimum_floor,
    ub1,
    ub1_improved,
    ub2,
    ub_best,
    ub_eucli,
)
from dinners.cli import LB_REFERENCE, UB_REFERENCE
from dinners.model import Instance

LB_TABLE = {params: expected for params, expected, _ in LB_REFERENCE}


def all_lbs(inst: Instance) -> tuple[int, int, int, int, int]:
    four = lb4(inst) if inst.gamma < inst.c else 0
    return (lb1(inst), lb2(inst), lb3(inst), four, lb5(inst))


def test_reference_lb_table():
    assert len(LB_TABLE) == 5
    for params, expected in LB_TABLE.items():
        assert all_lbs(Instance(*params)) == expected, params


def test_lb1_lb2_edges():
    assert lb1(Instance(1, 4, 1, 4, 1)) == 1  # s == sigma
    assert lb2(Instance(1, 1, 9, 1, 3)) == 3
    assert lb3(Instance(3, 3, 2, 1, 2)) == 1  # t*sigma >= s and gamma >= c


def test_lb4_requires_small_gamma():
    with pytest.raises(ValueError):
        lb4(Instance(1, 3, 2, 1, 2))


def test_lb4_matches_high_precision_evaluation():
    mpmath.mp.dps = 60
    for t in (1, 2, 3):
        for s in range(1, 30):
            for c in range(2, 20):
                for gamma in range(1, c):
                    inst = Instance(t, s, c, 1, gamma)
                    m = max(mpmath.sqrt(Fraction(gamma, c - gamma)), mpmath.mpf(1))
                    expr = mpmath.sqrt(s) / (t * gamma) * ((c - gamma) * m + gamma / m)
                    got = lb4(inst)
                    # ceil computed symbolically; near-integers re-checked exactly
                    hi = mpmath.ceil(expr)
                    if abs(expr - mpmath.nint(expr)) > mpmath.mpf("1e-30"):
                        assert got == int(hi), (inst, expr)
                    else:
                        k = int(mpmath.nint(expr))
                        n_sq = (
                            s * c * c
                            if c >= 2 * gamma
                            else 4 * s * gamma * (c - gamma)
                        )
                        d = t * gamma
                        assert (got == k) == (k * k * d * d >= n_sq and (k - 1) ** 2 * d * d < n_sq)


def test_lb5_sigma1_and_negative_clamp():
    assert lb5(Instance(1, 8, 8, 1, 1)) == 0  # empty j range
    assert lb5(Instance(1, 10, 1, 2, 1)) == 0  # all terms negative


def test_j_star_examples():
    assert j_star(11, 2) == 6
    assert j_star(2, 1) == 2


def test_j_star_locates_the_unclamped_maximum():
    for s in range(2, 61):
        for cg in range(1, 61):
            best = max(
                (Fraction(2 * cg, j) - Fraction(s - 1, j * (j - 1)), -j)
                for j in range(2, 200)
            )
            top = -best[1]
            js = j_star(s, cg)
            values = {
                j: Fraction(2 * cg, j) - Fraction(s - 1, j * (j - 1))
                for j in (max(js, 2), max(js + 1, 2))
            }
            assert best[0] in values.values(), (s, cg, js, top)


def test_lb5_attained_at_clamped_j_star():
    for s in range(2, 41):
        for sigma in range(2, 7):
            for cg_source in (1, 2, 5, 9, 17):
                inst = Instance(1, s, cg_source, sigma, 1)
                js = j_star(s, cg_source)
                cands = {min(max(js, 2), sigma), min(max(js + 1, 2), sigma)}
                best = max(lb5_term(inst, j) for j in range(2, sigma + 1))
                assert best == max(lb5_term(inst, j) for j in cands)


def test_ub_reference_values():
    assert len(UB_REFERENCE) == 2
    for params, expected1, expected2 in UB_REFERENCE:
        assert (ub1(Instance(*params)), ub2(Instance(*params))) == (expected1, expected2), params
    assert ub1(Instance(2, 5, 6, 2, 3)) == 3


def test_ub2_applicability():
    assert ub2(Instance(1, 9, 2, 2, 1)) is None  # ceil(s/sigma)=5 > cg=2
    # sigma >= s with at least two groups: one supplier block
    assert ub2(Instance(1, 3, 4, 3, 2)) == 1 - 3 + 3 * max(2, 2)


def test_ub_eucli_examples():
    assert ub_eucli(Instance(1, 12, 2, 2, 1)) == 42
    assert ub_eucli(Instance(1, 14, 2, 2, 1)) == 49
    # q = 0 collapses to a single remainder block with rho = ceil(s/sigma)
    inst = Instance(3, 6, 9, 2, 1)
    rho = ceil_div(6, 2)
    assert ub_eucli(inst) == ceil_div(rho, 3) * (1 - 2 + 2 * 2 * max(9, 2 * rho))


def test_ub1_is_sound_on_the_three_dinner_shapes():
    # The plain formula would give 2 here, below the true optimum 3.
    assert ub1(Instance(2, 4, 2, 2, 1)) == 3
    assert ub1(Instance(2, 3, 2, 2, 1)) == 3
    assert ub1(Instance(1, 4, 2, 2, 1)) == 4
    assert ub1_improved(Instance(2, 4, 2, 2, 1)) is None


def test_ub1_improved_needs_narrow_base():
    # Regular shape: improved variant applies and is no worse than ub1.
    inst = Instance(2, 8, 6, 2, 1)
    v = ub1_improved(inst)
    assert v is not None and v <= ub1(inst)
    # Applicability requires s*gamma > c.
    assert ub1_improved(Instance(2, 3, 9, 2, 1)) is None
    # Wide exceptional shapes are excluded.
    assert ub1_improved(Instance(5, 6, 5, 2, 1)) is None
    assert ub1_improved(Instance(3, 4, 3, 2, 1)) is None


def test_monotonicity_properties():
    for t in (1, 2, 4):
        for sigma in (1, 2, 3):
            for gamma in (1, 2, 3):
                prev = None
                for s in range(1, 30):
                    v = lb1(Instance(t, s, 6, sigma, gamma))
                    assert prev is None or v >= prev
                    prev = v
                prev = None
                for c in range(1, 30):
                    v = lb2(Instance(t, 6, c, sigma, gamma))
                    assert prev is None or v >= prev
                    prev = v
    for sigma in (1, 2, 4):
        base = None
        for t in range(1, 12):
            v = lb3(Instance(t, 7, 9, sigma, 2))
            assert base is None or v <= base
            base = v
    for s in range(1, 20):
        assert lb1(Instance(1, s, 3, 2, 1)) >= lb1(Instance(1, s, 3, 3, 1))


def test_lp_scan_smoke():
    # sigma = 1: single constraint, optimum is the group count.
    assert lp_value_scan(5, 1, 7) == Fraction(7)
    # Scaled and ceiled, the scan recombines into max(lb3, lb5).
    for t, s, c, sigma, gamma in [(1, 8, 11, 2, 1), (6, 8, 8, 2, 1), (2, 9, 7, 3, 2)]:
        inst = Instance(t, s, c, sigma, gamma)
        scan = lp_value_scan(s, sigma, inst.customer_groups)
        import math

        assert math.ceil(Fraction(s, t) * scan) == max(lb3(inst), lb5(inst))


def test_compute_bounds_report():
    rep = compute_bounds(Instance(2, 5, 6, 2, 3))
    assert rep.lb_best == 3 and rep.ub_best == 3
    rep = compute_bounds(Instance(1, 4, 2, 4, 3))
    assert rep.lb4 is None  # gamma >= c
    assert rep.lb_best >= 1
    assert lb_best(Instance(5, 8, 8, 1, 2)) == 8
    assert lb_best(Instance(1, 8, 11, 2, 1)) == 60
    assert lb_best(Instance(2, 5, 6, 2, 3)) == 3
    assert ub_best(Instance(2, 5, 6, 2, 3)) == 3


def test_compute_bounds_evaluates_lb5_once(monkeypatch):
    import dinners.bounds as bounds

    calls = []
    real = bounds.lb5
    monkeypatch.setattr(bounds, "lb5", lambda inst: calls.append(inst) or real(inst))
    inst = Instance(3, 40, 70, 9, 2)
    rep = compute_bounds(inst)
    assert len(calls) == 1
    assert (rep.lb_best, rep.ub_best) == (lb_best(inst), ub_best(inst))


@given(
    t=st.integers(1, 6),
    s=st.integers(1, 400),
    c=st.integers(1, 400),
    sigma=st.integers(1, 120),
    gamma=st.integers(1, 8),
)
def test_lb5_matches_the_full_scan(t, s, c, sigma, gamma):
    inst = Instance(t, s, c, sigma, gamma)
    terms = [lb5_term(inst, j) for j in range(2, sigma + 1)]
    assert lb5(inst) == max(terms + [0])
    if sigma >= 2:
        assert lb5_term(inst, lb5_argmax(inst)) == max(terms)


def test_lb5_is_constant_time_in_sigma(monkeypatch):
    import dinners.bounds as bounds

    calls = []
    real = bounds.lb5_term
    monkeypatch.setattr(bounds, "lb5_term", lambda inst, j: calls.append(j) or real(inst, j))
    compute_bounds(Instance(1, 10**6, 10**6, 10**6, 3))
    assert len(calls) <= 3
    calls.clear()
    assert lb5(Instance(2, 1, 9, 10**6, 1)) == 5  # s = 1: the term falls with j, peaks at j = 2
    assert set(calls) == {2}


def test_optimum_floor_is_lb_best_raised_to_3_on_the_three_dinner_shapes():
    for params in [(2, 4, 2, 2, 1), (2, 3, 2, 2, 1), (5, 4, 6, 2, 3)]:
        inst = Instance(*params)
        assert lb_best(inst) == 2 and optimum_floor(inst) == 3, params
    # sigma != 2, or another (cg, s): the floor is lb_best.
    for params in [(2, 4, 2, 3, 1), (2, 4, 2, 1, 1), (2, 5, 2, 2, 1), (2, 4, 3, 2, 1)]:
        inst = Instance(*params)
        assert optimum_floor(inst) == lb_best(inst), params
