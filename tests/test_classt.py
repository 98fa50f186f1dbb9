"""Continued-fraction and class-T calculus checks.

Core claims:
    - hj_expand and hj_value are mutually inverse, exhaustively for small m
    - hj_value agrees with an independent continuant-recurrence oracle
    - the end moves, seeds, recognition walk and generator are consistent:
      generated chains are recognized, recognized chains replay their trace,
      both children of a class-T chain are class T with the same d
    - recognition returns the generating seed and trace of random class-T
      chains up to 60 moves deep, mirrors the trace on the mirrored chain,
      and carries the same (d, n, a) a brute-force divisor search finds
    - the pinned examples: [4], [5,2], [6,2,2], [3,2,3], all-2 chains,
      and the configuration family [n, 2, ..., 2]
"""

import itertools
from math import gcd, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from horikawa.classt import (
    CLASS_T,
    NOT_CLASS_T,
    RATIONAL_DOUBLE_POINT,
    STEP_APPEND,
    STEP_PREPEND,
    CyclicQuotient,
    ResolutionChain,
    TData,
    expand_t_chain,
    generate_class_t,
    hj_expand,
    hj_value,
    recognize_class_t,
)

chains = st.builds(
    ResolutionChain,
    st.lists(st.integers(2, 9), min_size=1, max_size=8).map(tuple),
)


def continuant(b):
    """Numerator recurrence K(b_1..b_r) = b_r*K(b_1..b_{r-1}) - K(b_1..b_{r-2})."""
    prev, current = 1, b[0]
    for entry in b[1:]:
        prev, current = current, entry * current - prev
    return current


def quotient_oracle(b):
    """(m, q) = (K(b_1..b_r), K(b_2..b_r)) from the continuant oracle."""
    return continuant(b), continuant(b[1:]) if len(b) > 1 else 1


def seed_of_length(d):
    return (4,) if d == 1 else (3,) + (2,) * (d - 2) + (3,)


def replay_moves(seed, trace):
    b = seed
    for step in trace:
        b = (2,) + b[:-1] + (b[-1] + 1,) if step == STEP_PREPEND else (b[0] + 1,) + b[1:] + (2,)
    return b


def divisor_search(m, q):
    """Every (d, n, a) with d*n^2 = m, d*n*a - 1 = q, n >= 2, a >= 1 and
    gcd(a, n) = 1, found by trial division up to sqrt(m)."""
    hits = []
    for i in range(1, isqrt(m) + 1):
        if m % i:
            continue
        for d in {i, m // i}:
            n = isqrt(m // d)
            if n * n != m // d or n < 2:
                continue
            if (q + 1) % (d * n):
                continue
            a = (q + 1) // (d * n)
            if a >= 1 and gcd(a, n) == 1:
                hits.append((d, n, a))
    return hits


# -- expansion and evaluation ---------------------------------------------------

def test_expand_pinned_examples():
    assert hj_expand(CyclicQuotient(4, 1)).b == (4,)
    assert hj_expand(CyclicQuotient(9, 2)).b == (5, 2)
    assert hj_expand(CyclicQuotient(16, 3)).b == (6, 2, 2)


def test_value_pinned_examples():
    assert hj_value(ResolutionChain((4,))) == CyclicQuotient(4, 1)
    for r in range(1, 30):
        assert hj_value(ResolutionChain((2,) * r)) == CyclicQuotient(r + 1, r)


@pytest.mark.parametrize("n", range(5, 21))
def test_value_of_configuration_chain(n):
    chain = ResolutionChain((n,) + (2,) * (n - 4))
    assert hj_value(chain) == CyclicQuotient((n - 2) ** 2, n - 3)


@given(chains)
def test_value_matches_continuant_oracle(chain):
    quotient = hj_value(chain)
    tail = continuant(chain.b[1:]) if len(chain.b) > 1 else 1
    assert (quotient.m, quotient.q) == (continuant(chain.b), tail)


def test_round_trip_exhaustive_small():
    from math import gcd

    for m in range(2, 151):
        for q in range(1, m):
            if gcd(m, q) != 1:
                continue
            x = CyclicQuotient(m, q)
            chain = hj_expand(x)
            assert all(b >= 2 for b in chain.b)
            assert hj_value(chain) == x


@given(chains)
def test_expand_of_value_returns_chain(chain):
    assert hj_expand(hj_value(chain)) == chain


# -- end moves -------------------------------------------------------------------

def test_expand_t_chain_on_seeds():
    left, right = expand_t_chain(ResolutionChain((4,)))
    assert (left.b, right.b) == ((2, 5), (5, 2))
    left, right = expand_t_chain(ResolutionChain((3, 3)))
    assert (left.b, right.b) == ((2, 3, 4), (4, 3, 2))


def test_children_of_class_t_are_class_t_with_same_d():
    for b in generate_class_t(6):
        chain = ResolutionChain(b)
        d = recognize_class_t(chain).tdata.d
        for child in expand_t_chain(chain):
            verdict = recognize_class_t(child)
            assert verdict.kind == CLASS_T
            assert verdict.tdata.d == d


# -- recognition -------------------------------------------------------------------

@pytest.mark.parametrize("n", range(5, 21))
def test_configuration_chain_recognition(n):
    chain = ResolutionChain((n,) + (2,) * (n - 4))
    verdict = recognize_class_t(chain)
    assert verdict.kind == CLASS_T
    assert verdict.tdata == TData(d=1, n=n - 2, a=1)
    quotient = hj_value(chain)
    assert (verdict.tdata.d * verdict.tdata.n**2, quotient.q) == (quotient.m, n - 3)


def test_all_two_chain_is_rational_double_point():
    verdict = recognize_class_t(ResolutionChain((2, 2, 2)))
    assert verdict.kind == RATIONAL_DOUBLE_POINT
    assert verdict.rdp_index == 3
    assert verdict.tdata is None


def test_width_three_seed():
    verdict = recognize_class_t(ResolutionChain((3, 2, 3)))
    assert verdict.kind == CLASS_T
    assert verdict.tdata == TData(d=3, n=2, a=1)
    assert hj_value(ResolutionChain((3, 2, 3))) == CyclicQuotient(12, 5)


@pytest.mark.parametrize("b", [(2, 3), (5, 3), (3, 4), (2, 2, 3), (7, 2)])
def test_not_class_t_examples(b):
    assert recognize_class_t(ResolutionChain(b)).kind == NOT_CLASS_T


def test_seed_length_equals_d():
    for b in generate_class_t(7):
        verdict = recognize_class_t(ResolutionChain(b))
        assert len(verdict.seed) == verdict.tdata.d


def test_trace_replays_to_input():
    for b in generate_class_t(7):
        verdict = recognize_class_t(ResolutionChain(b))
        assert verdict.replay().b == b


def test_reversed_chain_classification():
    # reversal keeps d and n, and flips a to n - a
    for b in generate_class_t(6):
        chain = ResolutionChain(b)
        data = recognize_class_t(chain).tdata
        mirrored = recognize_class_t(chain.reversed()).tdata
        assert (mirrored.d, mirrored.n, mirrored.a) == (data.d, data.n, data.n - data.a)


def test_class_t_parameters_match_quotient():
    for b in generate_class_t(6):
        chain = ResolutionChain(b)
        data = recognize_class_t(chain).tdata
        quotient = hj_value(chain)
        assert data.d * data.n**2 == quotient.m
        assert data.d * data.n * data.a - 1 == quotient.q


MIRROR = {STEP_PREPEND: STEP_APPEND, STEP_APPEND: STEP_PREPEND}


@given(
    st.integers(1, 6),
    st.lists(st.sampled_from((STEP_PREPEND, STEP_APPEND)), max_size=60),
)
def test_recognition_inverts_generation(d, trace):
    seed = seed_of_length(d)
    b = replay_moves(seed, trace)
    verdict = recognize_class_t(ResolutionChain(b))
    assert verdict.kind == CLASS_T
    assert (verdict.seed.b, verdict.reduction_trace) == (seed, tuple(trace))
    data = verdict.tdata
    assert data.d == d
    assert (d * data.n**2, d * data.n * data.a - 1) == quotient_oracle(b)
    mirrored = recognize_class_t(ResolutionChain(b[::-1]))
    assert mirrored.seed.b == seed
    assert mirrored.reduction_trace == tuple(MIRROR[step] for step in trace)
    # every move adds one entry and raises the sum by 3, so a class-T chain
    # has sum 3r - d + 2; raising an end by d leaves no d' >= 1 for the sum
    for raised in ((b[0] + d,) + b[1:], b[:-1] + (b[-1] + d,)):
        assert recognize_class_t(ResolutionChain(raised)).kind == NOT_CLASS_T


def test_carried_parameters_match_divisor_search():
    for b in generate_class_t(12):
        data = recognize_class_t(ResolutionChain(b)).tdata
        assert divisor_search(*quotient_oracle(b)) == [(data.d, data.n, data.a)]


# -- generation ----------------------------------------------------------------------

def test_generate_length_one():
    assert generate_class_t(1) == [(4,)]


def test_generate_length_two():
    assert generate_class_t(2) == [(4,), (2, 5), (5, 2), (3, 3)]


def test_generate_rejects_zero_length():
    with pytest.raises(ValueError):
        generate_class_t(0)


def test_generated_chains_are_recognized():
    for b in generate_class_t(7):
        assert recognize_class_t(ResolutionChain(b)).kind == CLASS_T


def test_generate_agrees_with_recognition_small():
    # entries <= L+3 cover everything the generator can reach at length L:
    # each end move raises the largest entry by at most one and the deepest
    # chain of length L took L-1 moves from the seed [4]
    max_length = 4
    generated = set(generate_class_t(max_length))
    recognized = set()
    for r in range(1, max_length + 1):
        for b in itertools.product(range(2, max_length + 4), repeat=r):
            if recognize_class_t(ResolutionChain(b)).kind == CLASS_T:
                recognized.add(b)
    assert generated == recognized


def test_generate_has_no_duplicates():
    out = generate_class_t(7)
    assert len(out) == len(set(out))


@pytest.mark.parametrize("max_length", range(1, 13))
def test_generate_count_closed_form(max_length):
    out = generate_class_t(max_length)
    assert len(out) == len(set(out)) == 2 ** (max_length + 1) - 2 - max_length


# -- validation -----------------------------------------------------------------------

def test_cyclic_quotient_validation():
    with pytest.raises(ValueError):
        CyclicQuotient(4, 2)
    with pytest.raises(ValueError):
        CyclicQuotient(1, 1)
    with pytest.raises(ValueError):
        CyclicQuotient(5, 5)


def test_chain_validation():
    with pytest.raises(ValueError):
        ResolutionChain(())
    with pytest.raises(ValueError):
        ResolutionChain((3, 1))


def test_tdata_validation():
    with pytest.raises(ValueError):
        TData(d=1, n=4, a=2)
