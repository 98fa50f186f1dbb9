"""Configuration and report pipeline checks.

Core claims:
    - the configuration on Z_n has the adjacencies and self-intersections of
      the plumbing diagram, including the degenerate n = 5 labeling
    - every published identity passes for 5 <= n <= 20 and the pinned values
      at n = 5, 6, 8 are reproduced
    - the adjoint square is flagged (never failed) when it differs from the
      closed form 25n + 2, and agrees at n = 5
    - the report's blow-down of two chains matches H(n), and the F_4 example
      and the single-contraction obstruction witness report the expected
      margins and matches
    - at n = 4 the F_4 example is the single contraction of the chain [4]:
      one copy gives the same cover, contribution, margin and fiber, and two
      copies give that contribution twice
"""

import pytest

from horikawa.pipeline import (
    build_en_configuration,
    elliptic_surface_invariants,
    horikawa_direct,
    single_contraction_report,
    verify_en_identities,
    w4_example,
)
from horikawa.report import DERIVED, PUBLISHED, EnReport, check


# -- configuration geometry ---------------------------------------------------

def test_configuration_rejects_small_n():
    with pytest.raises(ValueError):
        build_en_configuration(4)


def test_configuration_n5_degenerate_labeling():
    cfg = build_en_configuration(5)
    pair = cfg.surface.pairing
    assert cfg.surface.rank == 4
    assert [pair(c, c) for c in cfg.chain_classes] == [-5, -2]
    assert cfg.u[0] == cfg.f0
    assert pair(cfg.E1, cfg.f0) == 1
    assert pair(cfg.E2, cfg.f0) == 1


def test_configuration_n8_chain_shape():
    cfg = build_en_configuration(8)
    pair = cfg.surface.pairing
    assert [pair(c, c) for c in cfg.chain_classes] == [-8, -2, -2, -2, -2]
    chain = cfg.chain_classes
    for i in range(len(chain) - 1):
        assert pair(chain[i], chain[i + 1]) == 1
    assert pair(cfg.E1, cfg.f0) == 1
    assert pair(cfg.E2, cfg.u[0]) == 1


@pytest.mark.parametrize("n", range(5, 13))
def test_exceptional_attachments(n):
    cfg = build_en_configuration(n)
    pair = cfg.surface.pairing
    # E1 and E2 hang off the chain without belonging to it
    assert pair(cfg.E1, cfg.f0) == 1
    assert pair(cfg.E2, cfg.u[0]) == 1
    assert pair(cfg.E1, cfg.E1) == -1
    assert pair(cfg.E2, cfg.E2) == -1


@pytest.mark.parametrize("n", range(5, 13))
def test_adjoint_definition(n):
    cfg = build_en_configuration(n)
    assert cfg.L == cfg.delta - (cfg.pull_c0 + cfg.f0) - cfg.K


# -- the full report ------------------------------------------------------------

@pytest.mark.parametrize("n", range(5, 21))
def test_every_identity_passes(n):
    report = verify_en_identities(build_en_configuration(n))
    assert report.failures() == ()
    assert report.verdict == "pass"


def test_report_pinned_values_n5():
    report = verify_en_identities(build_en_configuration(5))
    assert report.identity("delta_self_intersection").computed == 72
    assert report.identity("delta_canonical_degree").computed == 48
    assert report.identity("branch_sections").computed == 55
    assert report.invariants["adjoint_square_lattice"] == 127
    assert report.invariants["adjoint_square_closed_form"] == 127
    assert report.flags == ()


def test_report_pinned_values_n6():
    report = verify_en_identities(build_en_configuration(6))
    assert report.identity("delta_self_intersection").computed == 84
    assert report.identity("delta_canonical_degree").computed == 58
    flag_names = [f["name"] for f in report.flags]
    assert flag_names == ["adjoint_square_mismatch"]


def test_report_pinned_values_n8():
    report = verify_en_identities(build_en_configuration(8))
    assert report.identity("h1_margin").computed == -30
    assert report.identity("tangency_conditions").computed == 15
    assert report.identity("chain_quotient").computed == [36, 5]


@pytest.mark.parametrize("n", range(5, 21))
def test_h1_margin_equals_delta_dot_k(n):
    cfg = build_en_configuration(n)
    report = verify_en_identities(cfg)
    row = report.identity("h1_margin_is_delta_dot_k")
    assert row.passed
    assert row.computed == cfg.surface.pairing(cfg.delta, cfg.K)


@pytest.mark.parametrize("n", range(5, 21))
def test_adjoint_square_flag_policy(n):
    report = verify_en_identities(build_en_configuration(n))
    lattice = report.invariants["adjoint_square_lattice"]
    closed = report.invariants["adjoint_square_closed_form"]
    assert closed == 25 * n + 2
    mismatch = [f for f in report.flags if f["name"] == "adjoint_square_mismatch"]
    assert bool(mismatch) == (lattice != closed)
    # a flagged finding never affects the verdict
    assert report.verdict == "pass"


@pytest.mark.parametrize("n", range(5, 21))
def test_chain_classification_in_report(n):
    report = verify_en_identities(build_en_configuration(n))
    cls = report.invariants["chain_classification"]
    assert (cls["kind"], cls["d"], cls["n"], cls["a"]) == ("class_t", 1, n - 2, 1)
    mirrored = report.invariants["chain_classification_reversed"]
    assert (mirrored["kind"], mirrored["d"], mirrored["n"]) == ("class_t", 1, n - 2)


def test_verdict_tracks_published_rows():
    bad = check("broken", 1, 2, PUBLISHED)
    report = EnReport(inputs={}, identities=(bad,))
    assert report.verdict == "fail" and not report.all_passed
    soft = check("soft", 1, 2, DERIVED)
    report = EnReport(inputs={}, identities=(soft,))
    assert report.verdict == "pass" and not report.all_passed


def test_identity_lookup_raises_on_unknown_name():
    report = verify_en_identities(build_en_configuration(5))
    with pytest.raises(KeyError):
        report.identity("no_such_identity")


# -- direct double cover -----------------------------------------------------------

def test_horikawa_direct_pinned():
    inv = horikawa_direct(5)
    assert (inv.p_g, inv.q, inv.chi, inv.K2) == (4, 0, 5, 4)
    inv = horikawa_direct(4)
    assert (inv.p_g, inv.q, inv.chi, inv.K2) == (3, 0, 4, 2)


@pytest.mark.parametrize("n", range(4, 21))
def test_horikawa_chi_is_n(n):
    assert horikawa_direct(n).chi == n


def test_horikawa_rejects_small_n():
    with pytest.raises(ValueError):
        horikawa_direct(3)


# -- blow-down against the direct cover ----------------------------------------------

@pytest.mark.parametrize("n", range(5, 21))
def test_blowdown_matches_horikawa(n):
    report = verify_en_identities(build_en_configuration(n))
    assert report.identity("smoothing_matches_direct_cover").passed


def test_blowdown_comparison_pinned_values():
    fiber = verify_en_identities(build_en_configuration(5)).invariants["general_fiber"]
    assert (fiber["chi"], fiber["K2"], fiber["e"]) == (5, 4, 56)
    fiber = verify_en_identities(build_en_configuration(8)).invariants["general_fiber"]
    assert fiber["K2"] == 10


# -- the F_4 example -----------------------------------------------------------------

def test_w4_single_contraction_violates_noether():
    report = w4_example(1)
    assert report.identity("noether_margin").computed == -1
    assert report.identity("noether_violated").passed
    assert report.verdict == "pass"


def test_w4_double_contraction_matches_direct_cover():
    report = w4_example(2)
    assert report.identity("noether_margin").computed == 0
    fiber = report.invariants["general_fiber"]
    assert (fiber["chi"], fiber["K2"], fiber["e"]) == (4, 2, 46)
    assert report.identity("smoothing_matches_direct_cover").passed
    assert report.failures() == ()


def test_w4_branch_misses_negative_section():
    report = w4_example(1)
    assert report.identity("branch_dot_negative_section").computed == 0


def test_w4_is_the_n4_single_contraction():
    one, single = w4_example(1).invariants, single_contraction_report(4).invariants
    for key in ("elliptic_cover", "per_chain", "noether_margin"):
        assert one[key] == single[key]
    assert one["general_fiber"] == single["hypothetical_fiber"]
    (entry,) = one["per_chain"]
    assert w4_example(2).invariants["per_chain"] == [entry, entry]


def test_w4_rejects_other_counts():
    for count in (0, 3):
        with pytest.raises(ValueError):
            w4_example(count)


# -- obstruction witness ----------------------------------------------------------------

@pytest.mark.parametrize("n", range(5, 21))
def test_single_contraction_margin(n):
    report = single_contraction_report(n)
    assert report.identity("noether_margin").computed == 3 - n < 0
    assert report.identity("noether_violated").passed


def test_single_contraction_pinned_values():
    assert single_contraction_report(5).identity("hypothetical_k2").computed == 2
    assert single_contraction_report(6).identity("noether_margin").computed == -3
    assert single_contraction_report(4).identity("noether_margin").computed == -1


def test_single_contraction_is_labeled_as_witness():
    report = single_contraction_report(7)
    assert "obstruction witness" in report.invariants["interpretation"]


# -- elliptic cover -------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(5, 21))
def test_elliptic_cover_euler_number(n):
    assert elliptic_surface_invariants(n).e == 12 * n
