"""Lattice arithmetic checks.

Core claims:
    - the Gram conventions reproduce the pinned pairings on F_n
    - canonical classes satisfy K^2 = 8 - k and adjunction degrees are even
    - blow-up raises the rank by one and total transforms preserve pairings
    - the basis Gram matrix has determinant (-1)^(k+1) and signature (1, k+1)
    - the Gram matrix of any family, dense or sparse, matches pairing entry
      by entry, also on the configuration classes of Z_n, which share
      exceptional indices
    - sums, differences, negatives and integer multiples have plain int
      coefficients, while building a class from a non-integer raises
    - a class keeps only its nonzero terms: its dense view is the vector it
      was built from, its arithmetic and pairing match dense oracles (also
      one long class against a short one), and classes built by different
      routes are equal and hash equal
    - a contraction set names the first pair of chain positions, in row
      order, whose pairing breaks the plumbing shape, on or off the band
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

from horikawa.blowdown import ContractionSet
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
    with pytest.raises(TypeError):
        DivisorClass((1, 2.0))


# booleans are ints to `isinstance`, so a caller may build a class from them;
# arithmetic must still hand back plain ints
coefficients = st.one_of(st.integers(-9, 9), st.booleans())


@st.composite
def class_pairs(draw):
    """Two classes of one rank up to 40, dense or mostly zero, so their terms differ."""
    rank = draw(st.integers(1, 40))
    entries = draw(st.sampled_from([coefficients, st.just(0) | st.just(0) | coefficients]))
    vectors = st.lists(entries, min_size=rank, max_size=rank)
    return DivisorClass(tuple(draw(vectors))), DivisorClass(tuple(draw(vectors)))


@given(class_pairs(), coefficients)
@example((DivisorClass((True, 2, -3)), DivisorClass((False, True, 0))), True)
def test_arithmetic_results_have_int_coefficients(pair, k):
    # against a dense oracle; the result keeps only nonzero terms, in index order
    a, b = pair
    expected = [
        [x + y for x, y in zip(a.coeffs, b.coeffs)],
        [x - y for x, y in zip(a.coeffs, b.coeffs)],
        [-x for x in a.coeffs],
        [k * x for x in a.coeffs],
        [k * x for x in a.coeffs],
    ]
    for result, want in zip((a + b, a - b, -a, k * a, a * k), expected):
        assert type(result) is DivisorClass
        assert list(result.coeffs) == want
        assert all(type(x) is int for x in result.coeffs)
        assert result.terms == tuple((i, x) for i, x in enumerate(want) if x)


# -- sparse terms ----------------------------------------------------------------

def dense_pairing(n, a, b):
    """-n*a0*b0 + a0*b1 + a1*b0 - sum_i a_i*b_i, on dense vectors."""
    return -n * a[0] * b[0] + a[0] * b[1] + a[1] * b[0] - sum(x * y for x, y in zip(a[2:], b[2:]))


@given(st.lists(coefficients, max_size=12))
def test_dense_view_is_the_vector_built_from(v):
    c = DivisorClass(v)
    assert c.coeffs == tuple(v) and len(c) == len(v)
    assert c.terms == tuple((i, x) for i, x in enumerate(v) if x)
    assert all(type(x) is int for x in c.coeffs)


@st.composite
def surface_with_long_and_short(draw):
    """A surface with up to 40 blow-ups, one class dense and one with a few terms."""
    surface = draw(surfaces(max_k=40))
    dense = draw(st.lists(st.integers(-9, 9), min_size=surface.rank, max_size=surface.rank))
    sparse = [0] * surface.rank
    for i in draw(st.lists(st.integers(0, surface.rank - 1), max_size=3)):
        sparse[i] = draw(st.integers(-9, 9))
    return surface, dense, sparse


@given(surface_with_long_and_short(), st.booleans())
@example((BlownHirzebruch(4, 30), [1] * 32, [0, 0, 1] + [0] * 28 + [-1]), False)
@example((BlownHirzebruch(4, 30), [3, 5] + [0] * 30, [2, -1] + [7] * 30), True)
def test_pairing_matches_the_closed_formula(data, swap):
    surface, a, b = data
    if swap:
        a, b = b, a
    value = dense_pairing(surface.hirzebruch_index, a, b)
    x, y = DivisorClass(a), DivisorClass(b)
    assert surface.pairing(x, y) == surface.pairing(y, x) == value
    assert surface.pairing(x, x) == dense_pairing(surface.hirzebruch_index, a, a)


@given(class_pairs())
def test_classes_built_by_different_routes_are_equal(pair):
    a, b = pair
    surface = BlownHirzebruch(3, max(0, len(a) - 2))
    for same, other in [((a + b) - b, a), (a - a, DivisorClass([0] * len(a))), (-(-a), a)]:
        assert same == other and hash(same) == hash(other)
    if len(a) >= 2:
        assert a - a == surface.zero()
        assert surface.divisor(*a.coeffs) == a
        assert surface.linear_combination([(1, a), (2, b), (-2, b)]) == a


@given(surfaces(max_k=12))
def test_basis_classes_equal_their_dense_construction(surface):
    rank = surface.rank
    for i in range(1, surface.blowup_count + 1):
        e = [0] * rank
        e[1 + i] = 1
        assert surface.exceptional(i) == DivisorClass(e)
        assert hash(surface.exceptional(i)) == hash(DivisorClass(e))
    n = surface.hirzebruch_index
    canonical = DivisorClass([-2, -(n + 2)] + [1] * surface.blowup_count)
    assert surface.canonical_class() == canonical
    assert surface.zero() == DivisorClass([0] * rank) and surface.zero().terms == ()
    assert surface.c0() == DivisorClass([1] + [0] * (rank - 1))
    blown = surface.blow_up()
    assert blown.total_transform(canonical) == DivisorClass(canonical.coeffs + (0,))


@given(surfaces(max_k=8), st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 9)), max_size=6))
def test_linear_combination_matches_repeated_sums(surface, weighted):
    k = surface.blowup_count
    classes = [surface.divisor(1, j, *[(i + j) % 3 - 1 for i in range(k)]) for j in range(10)]
    pairs = [(w, classes[j]) for w, j in weighted]
    expected = surface.zero()
    for w, c in pairs:
        expected = expected + w * c
    assert surface.linear_combination(pairs) == expected


def test_linear_combination_checks_weights_and_ranks():
    surface = BlownHirzebruch(2, 1)
    with pytest.raises(TypeError, match="weights must be integers"):
        surface.linear_combination([(0.5, surface.c0())])
    with pytest.raises(ValueError, match="rank 3 lattice"):
        surface.linear_combination([(1, DivisorClass((1, 0)))])


def _first_shape_fault(gram):
    """The message of the first break of the plumbing shape, in row order, as the dense scan finds it."""
    for bi in [-row[i] for i, row in enumerate(gram)]:
        if bi < 2:
            return f"chain class with self-intersection {-bi}; need <= -2"
    for i, row in enumerate(gram):
        for j in range(i + 1, len(row)):
            expected = 1 if j == i + 1 else 0
            if row[j] != expected:
                return f"chain positions {i} and {j} pair to {row[j]}, expected {expected}"
    return None


def test_off_band_pairing_names_both_positions():
    surface = BlownHirzebruch(3, 4)
    e = [None] + [surface.exceptional(i) for i in range(1, 5)]
    # a 3-cycle: each pair of classes meets once, so positions 0 and 2 do too
    cycle = (e[1] - e[2], e[2] - e[3], e[3] - e[1])
    with pytest.raises(ValueError, match=r"^chain positions 0 and 2 pair to 1, expected 0$"):
        ContractionSet(surface, (cycle,))
    # positions 1 and 3 meet: that comes before the broken band entry (2, 3)
    chain = (e[1] - e[2], e[2] - e[3], e[3] - e[4], e[3] + e[4])
    with pytest.raises(ValueError, match=r"^chain positions 1 and 3 pair to 1, expected 0$"):
        ContractionSet(surface, (chain,))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(-1, 1), min_size=6, max_size=6), min_size=1, max_size=6))
def test_contraction_set_reports_the_first_shape_fault(vectors):
    surface = BlownHirzebruch(2, 6)
    chain = []
    for v in vectors:
        c = surface.divisor(0, 0, *v)
        if c not in chain:
            chain.append(c)
    fault = _first_shape_fault(surface.gram(chain))
    if fault is None:
        return
    with pytest.raises(ValueError) as info:
        ContractionSet(surface, (chain,))
    assert str(info.value) == fault


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


_repeated = BlownHirzebruch(3, 4).divisor(1, -2, 0, 3, 0, -5)
_dense_tail = BlownHirzebruch(5, 6).divisor(0, 0, 1, -2, 3, -4, 5, -6)


@given(surface_with_family())
# one class three times: the diagonal and its mirror images of a shared tail
@example((BlownHirzebruch(3, 4), [_repeated, _repeated, BlownHirzebruch(3, 4).exceptional(2), _repeated]))
# a zero (C0, f) head with a dense tail, next to head-only and sparse classes
@example((BlownHirzebruch(5, 6), [
    _dense_tail,
    BlownHirzebruch(5, 6).c0(),
    BlownHirzebruch(5, 6).divisor(0, 0, 2, 0, 0, 0, 0, 1),
    _dense_tail + BlownHirzebruch(5, 6).fiber(),
]))
def test_gram_matches_pairing(data):
    surface, family = data
    gram = surface.gram(family)
    assert len(gram) == len(family)
    for row, a in zip(gram, family):
        assert row == tuple(surface.pairing(a, b) for b in family)


@pytest.mark.parametrize("n", range(5, 41))
def test_gram_matches_pairing_on_configuration_classes(n):
    # the chain's classes share exceptional indices with each other and with
    # the dense tails of delta, K and L
    cfg = build_en_configuration(n)
    family = cfg.chain_classes + (cfg.delta, cfg.K, cfg.L, cfg.E1, cfg.E2)
    pair = cfg.surface.pairing
    assert cfg.surface.gram(family) == tuple(tuple(pair(a, b) for b in family) for a in family)


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
