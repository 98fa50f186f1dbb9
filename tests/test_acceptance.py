"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every expected value is an exact integer or exact rational; every comparison
below is equality, no tolerances.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from horikawa.blowdown import discrepancies, smoothing_invariants
from horikawa.classt import (
    CLASS_T,
    CyclicQuotient,
    ResolutionChain,
    generate_class_t,
    hj_expand,
    hj_value,
    recognize_class_t,
)
from horikawa.covers import (
    double_cover_invariants,
    h0_hirzebruch,
    noether_check,
)
from horikawa.lattice import BlownHirzebruch, DivisorClass
from horikawa.pipeline import (
    build_en_configuration,
    elliptic_surface_invariants,
    horikawa_direct,
    single_contraction_report,
    verify_en_identities,
    w4_example,
)


@contextmanager
def criterion(label):
    try:
        yield
    except AssertionError:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def test_criterion_1_branch_section_count():
    with criterion("criterion 1: h0(4C0 + 4nf) = 10n + 5 against both oracles, n in 5..50"):
        for n in range(5, 51):
            value = h0_hirzebruch(n, 4, 4 * n)
            assert value == 10 * n + 5
            # oracle A: monomial count
            assert value == sum(
                1 for k in range(5) for _ in range(max(0, 4 * n - k * n + 1))
            )
            # oracle B: exact-sequence ladder, adding j*n + 1 sections per step
            ladder = 1
            for j in range(1, 5):
                ladder += j * n + 1
            assert value == ladder


def test_criterion_2_elliptic_double_cover():
    with criterion("criterion 2: cover of F_n in |4(C0+nf)| has (n-1, 0, n, 0), n in 5..20"):
        for n in range(5, 21):
            base = BlownHirzebruch(n, 0)
            inv = double_cover_invariants(base, base.divisor(2, 2 * n))
            assert (inv.p_g, inv.q, inv.chi, inv.K2) == (n - 1, 0, n, 0)


def test_criterion_3_configuration_identities():
    with criterion("criterion 3: configuration identities exact for n in 5..20"):
        for n in range(5, 21):
            report = verify_en_identities(build_en_configuration(n))
            assert report.identity("delta_self_intersection").computed == 12 * n + 12
            assert report.identity("delta_canonical_degree").computed == 10 * n - 2
            assert report.identity("h1_margin").computed == -2 * n - 14 < 0
            assert report.identity("delta_dot_pull_c0").computed == 0
            assert report.identity("delta_dot_f0").computed == 0
            for i in range(1, n - 2):
                assert report.identity(f"delta_dot_u{i}").computed == 0
            assert report.identity("delta_dot_e1").computed == 2
            assert report.identity("delta_dot_e2").computed == 2
            assert report.identity("canonical_chain_decomposition").passed
            assert report.failures() == ()


def test_criterion_4_adjoint_square_anchor_and_flag():
    with criterion("criterion 4: L.L = 127 at n = 5; mismatch flagged exactly when it occurs"):
        report = verify_en_identities(build_en_configuration(5))
        assert report.invariants["adjoint_square_lattice"] == 127 == 25 * 5 + 2
        assert report.flags == ()
        for n in range(6, 21):
            report = verify_en_identities(build_en_configuration(n))
            lattice = report.invariants["adjoint_square_lattice"]
            closed = report.invariants["adjoint_square_closed_form"]
            assert closed == 25 * n + 2
            flagged = any(f["name"] == "adjoint_square_mismatch" for f in report.flags)
            assert flagged == (lattice != closed)


def test_criterion_5_class_t_calculus():
    with criterion("criterion 5: continued-fraction round trip (m <= 500), "
                   "generate/recognize agreement (length <= 6, entries <= 9), "
                   "configuration chains recognized"):
        for m in range(2, 501):
            for q in range(1, m):
                if gcd(m, q) == 1:
                    x = CyclicQuotient(m, q)
                    assert hj_value(hj_expand(x)) == x
        generated = set(generate_class_t(6))
        recognized = set()
        for r in range(1, 7):
            for b in itertools.product(range(2, 10), repeat=r):
                if recognize_class_t(ResolutionChain(b)).kind == CLASS_T:
                    recognized.add(b)
        assert generated == recognized
        for n in range(5, 21):
            chain = ResolutionChain((n,) + (2,) * (n - 4))
            verdict = recognize_class_t(chain)
            assert verdict.kind == CLASS_T
            assert (verdict.tdata.d, verdict.tdata.n, verdict.tdata.a) == (1, n - 2, 1)
            quotient = hj_value(chain)
            assert (quotient.m, quotient.q) == ((n - 2) ** 2, n - 3)


def test_criterion_6_blowdown_equals_direct_cover():
    with criterion("criterion 6: two-chain smoothing equals the direct cover "
                   "(n, 2n-6, 10n+6) on the Noether line, n in 5..20"):
        for n in range(5, 21):
            cls = recognize_class_t(ResolutionChain((n,) + (2,) * (n - 4)))
            fiber = smoothing_invariants(elliptic_surface_invariants(n), [cls, cls]).fiber
            direct = horikawa_direct(n)
            assert (fiber.chi, fiber.K2, fiber.e) == (direct.chi, direct.K2, direct.e)
            assert (fiber.chi, fiber.K2, fiber.e) == (n, 2 * n - 6, 10 * n + 6)
            assert noether_check(fiber).on_line


def test_criterion_7_f4_example():
    with criterion("criterion 7: F_4 example margins, branch placement and the "
                   "one-vs-two contraction dichotomy"):
        base = BlownHirzebruch(4, 0)
        branch = base.divisor(4, 16)
        assert base.pairing(branch, base.canonical_class()) == -24
        assert base.pairing(branch, base.c0()) == 0
        one = w4_example(1)
        assert one.identity("h1_margin").computed == -24
        assert one.identity("noether_violated").passed
        two = w4_example(2)
        fiber = two.invariants["general_fiber"]
        assert (fiber["chi"], fiber["K2"], fiber["e"]) == (4, 2, 46)
        direct = horikawa_direct(4)
        assert (direct.chi, direct.K2, direct.e) == (4, 2, 46)
        assert two.identity("smoothing_matches_direct_cover").passed


def test_criterion_8_single_contraction_obstruction():
    with criterion("criterion 8: single contraction violates the Noether line "
                   "with margin 3 - n, n in 5..20"):
        for n in range(5, 21):
            report = single_contraction_report(n)
            margin = report.identity("noether_margin")
            assert margin.passed and margin.computed == 3 - n < 0
            assert report.identity("noether_violated").passed


def test_criterion_9_property_suites():
    with criterion("criterion 9: Noether formula on every emitted invariant set, "
                   "discrepancies in [0,1), chain definiteness, and 10^4 "
                   "randomized pairing checks"):
        emitted = []
        for n in range(5, 21):
            emitted.append(elliptic_surface_invariants(n))
            emitted.append(horikawa_direct(n))
            cls = recognize_class_t(ResolutionChain((n,) + (2,) * (n - 4)))
            for copies in (1, 2):
                emitted.append(
                    smoothing_invariants(elliptic_surface_invariants(n), [cls] * copies).fiber
                )
        for inv in emitted:
            assert 12 * inv.chi == inv.K2 + inv.e
            assert inv.chi == 1 - inv.q + inv.p_g

        for b in generate_class_t(7):
            for d in discrepancies(ResolutionChain(b)):
                assert isinstance(d, Fraction) and 0 <= d < 1
        for n in range(5, 21):
            for d in discrepancies(ResolutionChain((n,) + (2,) * (n - 4))):
                assert isinstance(d, Fraction) and 0 <= d < 1

        for n in range(5, 21):
            cfg = build_en_configuration(n)
            assert cfg.surface.negativity_check(cfg.chain_classes).negative_definite

        rng = random.Random(20080601)

        def draw(surface):
            return DivisorClass(tuple(rng.randrange(-50, 51) for _ in range(surface.rank)))

        for _ in range(10_000):
            surface = BlownHirzebruch(rng.randrange(0, 9), rng.randrange(0, 6))
            a, b, c = draw(surface), draw(surface), draw(surface)
            x, y = rng.randrange(-9, 10), rng.randrange(-9, 10)
            assert surface.pairing(a, b) == surface.pairing(b, a)
            assert (
                surface.pairing(x * a + y * b, c)
                == x * surface.pairing(a, c) + y * surface.pairing(b, c)
            )
