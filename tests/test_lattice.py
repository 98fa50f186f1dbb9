"""Lattice arithmetic checks.

Core claims:
    - the Gram conventions reproduce the pinned pairings on F_n
    - canonical classes satisfy K^2 = 8 - k and adjunction degrees are even
    - blow-up raises the rank by one and total transforms preserve pairings
    - the basis Gram matrix has determinant (-1)^(k+1) and signature (1, k+1)
    - the Gram matrix of any family, dense or sparse, matches pairing entry
      by entry
    - the leading-minor definiteness test agrees with an exact sympy oracle,
      also on sparse matrices where the Bareiss pass defers rows
    - on a chain's tridiagonal Gram matrix the leading minors are signed
      Hirzebruch-Jung continuants, whose magnitudes increase strictly from at
      least 2 when every entry is >= 2, so such a chain is negative definite
"""

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horikawa.lattice import BlownHirzebruch, DivisorClass, _leading_minors
from horikawa.pipeline import build_en_configuration


def surfaces(max_n: int = 6, max_k: int = 5):
    return st.builds(BlownHirzebruch, st.integers(0, max_n), st.integers(0, max_k))


@st.composite
def surface_with_classes(draw, count: int):
    surface = draw(surfaces())
    vectors = st.lists(st.integers(-9, 9), min_size=surface.rank, max_size=surface.rank)
    classes = tuple(DivisorClass(tuple(draw(vectors))) for _ in range(count))
    return (surface,) + classes


# -- pairing -----------------------------------------------------------------

def test_negative_section_square():
    surface = BlownHirzebruch(5)
    assert surface.pairing(surface.c0(), surface.c0()) == -5


@pytest.mark.parametrize("n", [0, 1, 3, 7])
def test_fiber_square_is_zero(n):
    surface = BlownHirzebruch(n)
    assert surface.pairing(surface.fiber(), surface.fiber()) == 0


@pytest.mark.parametrize("n", range(4, 12))
def test_branch_class_meets_fiber_four_times(n):
    surface = BlownHirzebruch(n)
    branch = surface.divisor(4, 4 * n)
    assert surface.pairing(branch, surface.fiber()) == 4


@given(surface_with_classes(3), st.integers(-5, 5), st.integers(-5, 5))
def test_pairing_symmetric_and_bilinear(data, x, y):
    surface, a, b, c = data
    pair = surface.pairing
    assert pair(a, b) == pair(b, a)
    assert pair(x * a + y * b, c) == x * pair(a, c) + y * pair(b, c)


def test_pairing_rank_mismatch_raises():
    surface = BlownHirzebruch(2, 1)
    short = DivisorClass((1, 0))
    with pytest.raises(ValueError):
        surface.pairing(short, surface.c0())
    with pytest.raises(ValueError):
        DivisorClass((1, 0)) + DivisorClass((1, 0, 0))


def test_divisor_rejects_non_integers():
    with pytest.raises(TypeError):
        DivisorClass((1, 0.5))


# -- canonical class and adjunction -------------------------------------------

def test_canonical_class_f5():
    assert BlownHirzebruch(5).canonical_class().coeffs == (-2, -7)


def test_canonical_class_blown_once():
    assert BlownHirzebruch(5, 1).canonical_class().coeffs == (-2, -7, 1)


@pytest.mark.parametrize("n", range(0, 15))
def test_canonical_square_unblown(n):
    # K^2 = -4n + 4(n+2) = 8 independently of n
    surface = BlownHirzebruch(n)
    k = surface.canonical_class()
    assert surface.pairing(k, k) == -4 * n + 4 * (n + 2) == 8


@given(surfaces())
def test_canonical_square_drops_per_blowup(surface):
    k = surface.canonical_class()
    assert surface.pairing(k, k) == 8 - surface.blowup_count


@pytest.mark.parametrize("n", range(2, 10))
def test_adjunction_degree_of_branch_class(n):
    surface = BlownHirzebruch(n)
    branch = surface.divisor(4, 4 * n)
    assert surface.adjunction_degree(branch) == 12 * n - 8


def test_adjunction_degree_of_fiber():
    surface = BlownHirzebruch(6)
    assert surface.adjunction_degree(surface.fiber()) == -2


@given(surface_with_classes(1))
def test_adjunction_degree_is_even(data):
    surface, c = data
    assert surface.adjunction_degree(c) % 2 == 0


# -- blow-up -----------------------------------------------------------------

def test_blow_up_increments_rank():
    surface = BlownHirzebruch(5)
    blown = surface.blow_up()
    assert (blown.hirzebruch_index, blown.blowup_count) == (5, 1)
    assert blown.rank == 3


@pytest.mark.parametrize("n", range(5, 12))
def test_iterated_blow_up_rank(n):
    surface = BlownHirzebruch(n)
    for _ in range(n - 3):
        surface = surface.blow_up()
    assert surface.rank == n - 1


@given(surface_with_classes(2))
def test_total_transform_preserves_pairings(data):
    surface, a, b = data
    blown = surface.blow_up()
    assert blown.pairing(blown.total_transform(a), blown.total_transform(b)) == surface.pairing(a, b)


def test_total_transform_of_fiber_stays_square_zero():
    surface = BlownHirzebruch(7, 1)
    f = surface.total_transform(BlownHirzebruch(7).fiber())
    assert surface.pairing(f, f) == 0


# -- Gram matrix shape ---------------------------------------------------------

@st.composite
def surface_with_family(draw):
    """A surface and a family mixing dense, sparse and zero classes."""
    surface = draw(surfaces(max_k=10))
    k = surface.blowup_count
    coefficient = st.integers(-9, 9)
    dense = st.lists(coefficient, min_size=surface.rank, max_size=surface.rank)
    family = []
    for kind in draw(st.lists(st.sampled_from(["dense", "sparse", "zero"]), max_size=8)):
        if kind == "dense":
            family.append(DivisorClass(tuple(draw(dense))))
        elif kind == "sparse":
            tail = [0] * k
            for i in draw(st.lists(st.integers(0, k - 1), max_size=3)) if k else []:
                tail[i] = draw(coefficient)
            family.append(surface.divisor(draw(coefficient), draw(coefficient), *tail))
        else:
            family.append(surface.zero())
    return surface, family


@given(surface_with_family())
def test_gram_matches_pairing(data):
    surface, family = data
    gram = surface.gram(family)
    assert len(gram) == len(family)
    for row, a in zip(gram, family):
        assert row == tuple(surface.pairing(a, b) for b in family)


def test_gram_rank_mismatch_raises():
    surface = BlownHirzebruch(2, 1)
    with pytest.raises(ValueError, match="rank 3 lattice"):
        surface.gram([surface.c0(), DivisorClass((1, 0))])


@given(surfaces())
def test_basis_gram_determinant_and_signature(surface):
    basis = [surface.c0(), surface.fiber()]
    basis += [surface.exceptional(i) for i in range(1, surface.blowup_count + 1)]
    gram = surface.gram(basis)
    rows = [list(r) for r in gram]
    assert sympy.Matrix(rows).det() == (-1) ** (surface.blowup_count + 1)
    eigenvalues = sympy.Matrix(rows).eigenvals()
    positive = sum(mult for value, mult in eigenvalues.items() if value > 0)
    negative = sum(mult for value, mult in eigenvalues.items() if value < 0)
    assert (positive, negative) == (1, surface.blowup_count + 1)


def sympy_leading_minors(rows):
    """Leading principal minors up to and including the first zero."""
    minors = []
    for size in range(1, len(rows) + 1):
        minors.append(sympy.Matrix([row[:size] for row in rows[:size]]).det())
        if minors[-1] == 0:
            break
    return minors


@settings(max_examples=60)
@given(st.integers(1, 5).flatmap(
    lambda size: st.lists(
        st.lists(st.integers(-9, 9), min_size=size, max_size=size),
        min_size=size,
        max_size=size,
    )
))
def test_leading_minors_match_sympy(rows):
    assert list(_leading_minors(rows)) == sympy_leading_minors(rows)


@st.composite
def sparse_square_matrices(draw):
    """Square matrices up to 8x8 with a drawn share of zero entries."""
    size = draw(st.integers(1, 8))
    zero_quarters = draw(st.integers(0, 4))
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            zero = draw(st.integers(0, 3)) < zero_quarters
            row.append(0 if zero else draw(st.integers(-9, 9)))
        rows.append(row)
    return rows


@settings(max_examples=80, deadline=None)
@given(sparse_square_matrices())
# row 2 has a zero factor for two steps and then pivots, row 3 for one step and
# is then a factor: each zero-factor update must be an exact D_k / D_{k-1} rescale
@example([[2, 1, 0, 0], [1, 3, 0, 1], [0, 0, 5, 1], [0, 1, 1, 4]])
def test_leading_minors_match_sympy_on_sparse_matrices(rows):
    assert list(_leading_minors(rows)) == sympy_leading_minors(rows)


# -- negativity check ----------------------------------------------------------

def test_negativity_of_short_chain():
    surface = BlownHirzebruch(5, 2)
    c0 = surface.c0()
    f0 = surface.fiber() - surface.exceptional(1) - surface.exceptional(2)
    result = surface.negativity_check([c0, f0])
    assert result.gram == ((-5, 1), (1, -2))
    assert result.negative_definite and not result.vacuous


def test_negativity_vacuous_on_empty_family():
    result = BlownHirzebruch(3).negativity_check([])
    assert result.negative_definite and result.vacuous and result.gram == ()


def test_negativity_single_exceptional():
    surface = BlownHirzebruch(4, 1)
    result = surface.negativity_check([surface.exceptional(1)])
    assert result.negative_definite


def test_negativity_fails_on_hyperbolic_pair():
    surface = BlownHirzebruch(0)
    result = surface.negativity_check([surface.c0(), surface.fiber()])
    assert not result.negative_definite


def test_negativity_rejects_duplicates():
    surface = BlownHirzebruch(2)
    with pytest.raises(ValueError):
        surface.negativity_check([surface.c0(), surface.c0()])


@settings(max_examples=60)
@given(surface_with_classes(3))
def test_negativity_matches_sympy_oracle(data):
    surface, a, b, c = data
    family = []
    for candidate in (a, b, c):
        if candidate.coeffs not in {x.coeffs for x in family}:
            family.append(candidate)
    result = surface.negativity_check(family)
    oracle = sympy.Matrix([list(r) for r in result.gram]).is_negative_definite
    assert result.negative_definite == bool(oracle)


def chain_gram(chain):
    size = len(chain)
    return [
        [-chain[i] if i == j else 1 if abs(i - j) == 1 else 0 for j in range(size)]
        for i in range(size)
    ]


def signed_continuants(chain):
    """(-1)^k K(b_1..b_k) for k = 1..r, with K_k = b_k K_{k-1} - K_{k-2}."""
    before, current = 0, 1
    signed = []
    for k, b in enumerate(chain, start=1):
        before, current = current, b * current - before
        signed.append((-1) ** k * current)
    return signed


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 12), min_size=1, max_size=60))
def test_chain_gram_minors_are_signed_continuants(chain):
    assert list(_leading_minors(chain_gram(chain))) == signed_continuants(chain)
    magnitudes = [abs(minor) for minor in signed_continuants(chain)]
    assert magnitudes[0] >= 2 and all(a < b for a, b in zip(magnitudes, magnitudes[1:]))


def test_long_configuration_chain_is_negative_definite():
    cfg = build_en_configuration(150)
    result = cfg.surface.negativity_check(cfg.chain_classes)
    chain = (150,) + (2,) * 146
    assert result.gram == tuple(tuple(row) for row in chain_gram(chain))
    assert result.negative_definite and not result.vacuous
