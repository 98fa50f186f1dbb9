"""Cover-invariant checks.

Core claims:
    - h0_hirzebruch matches two independent oracles (monomial count and the
      exact-sequence ladder for multiples of C0 + nf) and is monotone
    - double-cover invariants reproduce the pinned families on F_n, F_{n-3}
      and F_4, and always satisfy both coherence relations; a blown-up base
      or a half class from another lattice is refused
    - the H^1 degree margin equals D.K; Noether margins and the tangency
      condition count match their closed forms
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from horikawa.covers import (
    SurfaceInvariants,
    double_cover_invariants,
    h0_hirzebruch,
    h1_vanishing_by_degree,
    noether_check,
    tangency_condition_count,
)
from horikawa.lattice import BlownHirzebruch, DivisorClass


def h0_monomial_count(n, a, b):
    """Count lattice points (k, j) with 0 <= k <= a, 0 <= j <= b - k*n."""
    return sum(1 for k in range(a + 1) for _ in range(max(0, b - k * n + 1)))


def h0_section_ladder(n, k):
    """h0 of k*(C0 + nf) via the restriction ladder: each step adds j*n + 1."""
    total = 1
    for j in range(1, k + 1):
        total += j * n + 1
    return total


# -- section counts ---------------------------------------------------------------

@pytest.mark.parametrize("n", range(5, 21))
def test_branch_system_dimension(n):
    assert h0_hirzebruch(n, 4, 4 * n) == 10 * n + 5


def test_trivial_class_has_one_section():
    assert h0_hirzebruch(7, 0, 0) == 1


@pytest.mark.parametrize("n", range(1, 12))
def test_hyperplane_class_dimension(n):
    assert h0_hirzebruch(n, 1, n) == n + 2


def test_exhaustive_monomial_oracle():
    for n in range(0, 11):
        for a in range(0, 7):
            for b in range(0, 61):
                assert h0_hirzebruch(n, a, b) == h0_monomial_count(n, a, b)


@pytest.mark.parametrize("n", range(0, 9))
def test_section_ladder_oracle(n):
    for k in range(0, 7):
        assert h0_hirzebruch(n, k, k * n) == h0_section_ladder(n, k)


@given(st.integers(0, 8), st.integers(0, 6), st.integers(0, 50))
def test_h0_monotone(n, a, b):
    assert h0_hirzebruch(n, a + 1, b) >= h0_hirzebruch(n, a, b)
    assert h0_hirzebruch(n, a, b + 1) >= h0_hirzebruch(n, a, b)


def test_negative_section_multiple_vanishes():
    assert h0_hirzebruch(5, -1, 10) == 0


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        h0_hirzebruch(-1, 1, 1)


# -- double covers ------------------------------------------------------------------

def _cover(n, a, b):
    base = BlownHirzebruch(n, 0)
    return double_cover_invariants(base, base.divisor(a, b))


@pytest.mark.parametrize("n", range(5, 21))
def test_elliptic_cover_family(n):
    inv = _cover(n, 2, 2 * n)
    assert (inv.p_g, inv.q, inv.chi, inv.K2) == (n - 1, 0, n, 0)
    assert inv.e == 12 * n


@pytest.mark.parametrize("n", range(4, 21))
def test_horikawa_cover_family(n):
    inv = _cover(n - 3, 3, 2 * n - 4)
    assert (inv.p_g, inv.q, inv.chi, inv.K2) == (n - 1, 0, n, 2 * n - 6)


def test_f4_cover_example():
    inv = _cover(4, 2, 8)
    assert (inv.p_g, inv.q, inv.chi, inv.K2) == (3, 0, 4, 0)


@given(st.integers(0, 8), st.integers(2, 5), st.integers(0, 30))
def test_cover_invariants_always_coherent(n, a, extra):
    # half classes a*C0 + (a*n + extra)*f stay on the cover-like side, where
    # the formulas yield an honest invariant set
    inv = _cover(n, a, a * n + extra)
    # construction would raise otherwise; restate the relations explicitly
    assert inv.chi == 1 - inv.q + inv.p_g
    assert 12 * inv.chi == inv.K2 + inv.e


def test_cover_requires_unblown_base():
    base = BlownHirzebruch(4, 1)
    with pytest.raises(ValueError):
        double_cover_invariants(base, base.divisor(2, 8))


def test_cover_rejects_half_class_of_wrong_rank():
    base = BlownHirzebruch(4, 0)
    with pytest.raises(ValueError, match="different lattices"):
        double_cover_invariants(base, BlownHirzebruch(4, 1).divisor(2, 8))


# -- H^1 degree criterion --------------------------------------------------------------

def test_h1_margin_on_f4_branch():
    surface = BlownHirzebruch(4)
    result = h1_vanishing_by_degree(surface, surface.divisor(4, 16))
    assert result.margin == -24 and result.vanishes


def test_h1_margin_of_fiber():
    surface = BlownHirzebruch(9)
    result = h1_vanishing_by_degree(surface, surface.fiber())
    assert result.margin == -2 and result.vanishes


@given(st.integers(0, 6), st.integers(0, 4), st.lists(st.integers(-6, 6), min_size=2, max_size=6))
def test_h1_margin_equals_pairing_with_canonical(n, k, coeffs):
    surface = BlownHirzebruch(n, max(0, len(coeffs) - 2))
    d = DivisorClass(tuple(coeffs) + (0,) * (surface.rank - len(coeffs)))
    result = h1_vanishing_by_degree(surface, d)
    assert result.margin == surface.pairing(d, surface.canonical_class())
    assert result.margin == surface.adjunction_degree(d) - surface.pairing(d, d)


# -- Noether margin ----------------------------------------------------------------------

@pytest.mark.parametrize("n", range(5, 21))
def test_horikawa_family_is_on_the_line(n):
    result = noether_check(SurfaceInvariants(p_g=n - 1, K2=2 * n - 6))
    assert result.margin == 0 and result.on_line and result.satisfied


@pytest.mark.parametrize("n", range(5, 21))
def test_single_contraction_candidate_violates(n):
    result = noether_check(SurfaceInvariants(p_g=n - 1, K2=n - 3))
    assert result.margin == 3 - n and not result.satisfied


def test_noether_comfortable_margin():
    assert noether_check(SurfaceInvariants(p_g=0, K2=2)).margin == 6


def test_noether_requires_fields():
    with pytest.raises(ValueError):
        noether_check(SurfaceInvariants(p_g=1))


# -- tangency conditions ---------------------------------------------------------------------

def test_tangency_count_n5():
    result = tangency_condition_count(5)
    assert (result.conditions, result.h0, result.margin) == (6, 55, 49)


def test_tangency_count_n8():
    assert tangency_condition_count(8).conditions == 15


@pytest.mark.parametrize("n", range(5, 51))
def test_tangency_margin_positive(n):
    result = tangency_condition_count(n)
    assert result.margin == 7 * n + 14 > 0


def test_tangency_rejects_small_n():
    with pytest.raises(ValueError):
        tangency_condition_count(4)


# -- invariant coherence validation ------------------------------------------------------------

def test_invariants_reject_bad_chi():
    with pytest.raises(ValueError):
        SurfaceInvariants(p_g=2, q=0, chi=4)


def test_invariants_reject_bad_noether_formula():
    with pytest.raises(ValueError):
        SurfaceInvariants(chi=1, K2=9, e=4)
