"""Contraction and smoothing bookkeeping checks.

Core claims:
    - discrepancy vectors exactly solve the tridiagonal chain system, lie in
      [0, 1), vanish for all-2 chains and are positive once some b_i >= 3,
      on short random chains and on class-T chains up to 60 moves deep;
      a numerator outside [0, m) is a fault and raises RuntimeError
    - K^2 corrections: [4] gives 1, the d = 1 family [r+3, 2^(r-1)] gives r,
      and every class-T chain of length r and seed length d gives r - d + 1;
      on any chain it is the plain sum of d_i*(b_i - 2)
    - smoothing the elliptic family with two configuration chains reproduces
      the direct double cover; outputs always satisfy 12*chi = K^2 + e
    - contraction sets enforce the plumbing shape and disjointness, keep each
      chain's negativity check, and branch compatibility is monotone under
      adding chains
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from horikawa import blowdown
from horikawa.blowdown import (
    ContractionSet,
    branch_compatibility,
    discrepancies,
    k2_correction,
    smoothing_invariants,
)
from horikawa.classt import ResolutionChain, expand_t_chain, recognize_class_t
from horikawa.covers import SurfaceInvariants
from horikawa.lattice import BlownHirzebruch
from horikawa.pipeline import (
    build_en_configuration,
    elliptic_surface_invariants,
    horikawa_direct,
)

chains = st.builds(
    ResolutionChain,
    st.lists(st.integers(2, 9), min_size=1, max_size=8).map(tuple),
)


def class_t_chain(d, moves):
    """Apply end moves (0 prepend, 1 append) to the seed of length d."""
    chain = ResolutionChain((4,) if d == 1 else (3,) + (2,) * (d - 2) + (3,))
    for move in moves:
        chain = expand_t_chain(chain)[move]
    return chain


seed_lengths = st.integers(1, 6)
move_lists = st.lists(st.integers(0, 1), max_size=60)
class_t_chains = st.builds(class_t_chain, seed_lengths, move_lists)


# -- discrepancies ---------------------------------------------------------------

def test_discrepancies_pinned_examples():
    assert discrepancies(ResolutionChain((4,))) == (Fraction(1, 2),)
    assert discrepancies(ResolutionChain((5, 2))) == (Fraction(2, 3), Fraction(1, 3))
    assert discrepancies(ResolutionChain((2, 2, 2))) == (Fraction(0), Fraction(0), Fraction(0))


@given(st.one_of(chains, class_t_chains))
def test_discrepancies_solve_the_chain_system(chain):
    b = chain.b
    d = discrepancies(chain)
    for j in range(len(b)):
        lhs = -b[j] * d[j]
        if j > 0:
            lhs += d[j - 1]
        if j + 1 < len(b):
            lhs += d[j + 1]
        assert lhs == -(b[j] - 2)


@given(st.one_of(chains, class_t_chains))
def test_discrepancies_range_and_positivity(chain):
    d = discrepancies(chain)
    assert all(0 <= x < 1 for x in d)
    if any(b >= 3 for b in chain.b):
        assert all(x > 0 for x in d)
    else:
        assert all(x == 0 for x in d)


@pytest.mark.parametrize(
    "fake",
    [
        [3, 4],   # numerator 4 - 3 - 3 < 0
        [0, 4],   # numerator 4 - 0 - 0 == m, so d = 1
        [-1, 4],  # numerator 4 + 1 + 1 > m
    ],
)
def test_discrepancies_out_of_range_raise(monkeypatch, fake):
    monkeypatch.setattr(blowdown, "_continuants", lambda b: list(fake))
    with pytest.raises(RuntimeError, match=r"out of \[0,1\) for \(4,\)"):
        discrepancies(ResolutionChain((4,)))


# -- K^2 correction ---------------------------------------------------------------

def test_correction_pinned_examples():
    assert k2_correction(ResolutionChain((4,))) == 1
    assert k2_correction(ResolutionChain((2, 2, 2, 2))) == 0


@given(st.one_of(chains, class_t_chains))
def test_correction_is_the_plain_discrepancy_sum(chain):
    d = discrepancies(chain)
    plain = sum((x * (bi - 2) for x, bi in zip(d, chain.b)), start=Fraction(0))
    assert k2_correction(chain) == plain


@pytest.mark.parametrize("r", range(1, 21))
def test_correction_of_the_d1_family(r):
    chain = ResolutionChain((r + 3,) + (2,) * (r - 1))
    assert recognize_class_t(chain).tdata.d == 1
    assert k2_correction(chain) == r


@pytest.mark.parametrize("n", range(5, 21))
def test_correction_of_configuration_chain(n):
    assert k2_correction(ResolutionChain((n,) + (2,) * (n - 4))) == n - 3


@given(seed_lengths, move_lists)
def test_correction_of_class_t_chain_is_length_minus_d_plus_one(d, moves):
    chain = class_t_chain(d, moves)
    assert k2_correction(chain) == len(chain) - d + 1


# -- smoothing --------------------------------------------------------------------

@pytest.mark.parametrize("n", range(5, 21))
def test_smoothing_two_chains_matches_direct_cover(n):
    cls = recognize_class_t(ResolutionChain((n,) + (2,) * (n - 4)))
    smoothed = smoothing_invariants(elliptic_surface_invariants(n), [cls, cls])
    direct = horikawa_direct(n)
    fiber = smoothed.fiber
    assert (fiber.chi, fiber.K2, fiber.e) == (direct.chi, direct.K2, direct.e)
    assert (fiber.K2, fiber.e) == (2 * n - 6, 10 * n + 6)


def test_smoothing_e4_with_two_four_chains():
    cls = recognize_class_t(ResolutionChain((4,)))
    smoothed = smoothing_invariants(elliptic_surface_invariants(4), [cls, cls])
    fiber = smoothed.fiber
    assert (fiber.chi, fiber.K2, fiber.e) == (4, 2, 46)
    assert [c.euler_drop for c in smoothed.contributions] == [1, 1]
    assert [c.k2_correction for c in smoothed.contributions] == [1, 1]


def test_smoothing_with_no_chains_is_identity():
    start = SurfaceInvariants(p_g=3, q=0, chi=4, K2=0, e=48)
    assert smoothing_invariants(start, []).fiber == start


def test_smoothing_warns_on_rdp_chain_and_skips_it():
    start = SurfaceInvariants(p_g=3, q=0, chi=4, K2=0, e=48)
    rdp = recognize_class_t(ResolutionChain((2, 2)))
    smoothed = smoothing_invariants(start, [rdp])
    assert smoothed.flags == (
        {
            "name": "warning",
            "detail": "rational double point chain (2, 2) has no effect on the "
            "smoothing invariants; skipping it",
        },
    )
    assert smoothed.fiber == start
    assert smoothed.contributions == ()


def test_smoothing_rejects_non_class_t():
    start = SurfaceInvariants(chi=4, K2=0, e=48)
    bad = recognize_class_t(ResolutionChain((7, 2)))
    with pytest.raises(ValueError):
        smoothing_invariants(start, [bad])


def test_smoothing_requires_k2_e_chi():
    cls = recognize_class_t(ResolutionChain((4,)))
    with pytest.raises(ValueError):
        smoothing_invariants(SurfaceInvariants(chi=4), [cls])


@pytest.mark.parametrize("n", range(5, 16))
def test_smoothing_output_satisfies_noether_formula(n):
    cls = recognize_class_t(ResolutionChain((n,) + (2,) * (n - 4)))
    for copies in (1, 2):
        fiber = smoothing_invariants(elliptic_surface_invariants(n), [cls] * copies).fiber
        assert 12 * fiber.chi == fiber.K2 + fiber.e


# -- contraction sets ----------------------------------------------------------------

def test_configuration_chain_forms_a_contraction_set():
    cfg = build_en_configuration(8)
    contraction = ContractionSet(cfg.surface, (cfg.chain_classes,))
    (verdict,) = contraction.classifications
    assert verdict.chain.b == (8, 2, 2, 2, 2)
    assert verdict.tdata.d == 1


def test_contraction_set_rejects_broken_adjacency():
    cfg = build_en_configuration(6)
    shuffled = (cfg.chain_classes[1], cfg.chain_classes[0], cfg.chain_classes[2])
    with pytest.raises(ValueError, match="pair to"):
        ContractionSet(cfg.surface, (shuffled,))


def test_contraction_set_rejects_minus_one_classes():
    cfg = build_en_configuration(6)
    with pytest.raises(ValueError, match="self-intersection"):
        ContractionSet(cfg.surface, ((cfg.E1,),))


def test_contraction_set_rejects_a_repeated_class():
    surface = BlownHirzebruch(4)
    with pytest.raises(ValueError, match="pairwise distinct"):
        ContractionSet(surface, ((surface.c0(), surface.c0()),))


def test_contraction_set_keeps_each_chains_negativity_check():
    surface = BlownHirzebruch(4, 3)
    e1, e2, e3 = (surface.exceptional(i) for i in (1, 2, 3))
    chains = ((surface.c0(),), (e1 - e2, e2 - e3))
    contraction = ContractionSet(surface, chains)
    assert contraction.negativity == tuple(map(surface.negativity_check, chains))
    assert [r.gram for r in contraction.negativity] == [((-4,),), ((-2, 1), (1, -2))]
    for n in range(5, 41):
        cfg = build_en_configuration(n)
        contraction = ContractionSet(cfg.surface, (cfg.chain_classes,))
        assert contraction.negativity == (cfg.surface.negativity_check(cfg.chain_classes),)


def test_contraction_set_rejects_overlapping_chains():
    surface = BlownHirzebruch(5, 4)
    first = surface.exceptional(1) - surface.exceptional(2)
    second = surface.exceptional(2) - surface.exceptional(3)
    with pytest.raises(ValueError):
        ContractionSet(surface, ((first,), (second,)))


# -- branch compatibility ---------------------------------------------------------------

def test_branch_compatible_with_configuration_chain():
    cfg = build_en_configuration(7)
    contraction = ContractionSet(cfg.surface, (cfg.chain_classes,))
    assert branch_compatibility(cfg.surface, cfg.delta, contraction)


def test_branch_meets_exceptional_twice():
    cfg = build_en_configuration(7)
    assert cfg.surface.pairing(cfg.delta, cfg.E1) == 2


def test_branch_compatibility_vacuous_on_empty_set():
    cfg = build_en_configuration(5)
    contraction = ContractionSet(cfg.surface, ())
    assert branch_compatibility(cfg.surface, cfg.delta, contraction)


def test_branch_compatibility_is_monotone():
    surface = BlownHirzebruch(3, 4)
    far = (surface.exceptional(3) - surface.exceptional(4),)
    near = (surface.exceptional(1) - surface.exceptional(2),)
    branch = 2 * surface.exceptional(1)
    assert branch_compatibility(surface, branch, ContractionSet(surface, (far,)))
    assert not branch_compatibility(surface, branch, ContractionSet(surface, (far, near)))


def test_branch_compatibility_requires_same_surface():
    cfg = build_en_configuration(5)
    other = BlownHirzebruch(5, 1)
    contraction = ContractionSet(cfg.surface, (cfg.chain_classes,))
    with pytest.raises(ValueError):
        branch_compatibility(other, cfg.delta, contraction)
