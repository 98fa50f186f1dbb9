"""End-to-end verification of the elliptic-to-Horikawa blow-down pipeline.

For n >= 5 the configuration lives on Z_n, the Hirzebruch surface F_n blown up
n-3 times: once at a point p of the branch curve D in |4C0 + 4nf| (a node) and
n-4 times over a point q where the two branch sheets meet the fiber to order
n-4.  Each infinitely-near center sits on the newest exceptional curve only,
so in the basis (C0, f, e1, ..., e_{n-3}):

    E1 = e1,  f0 = f - e1 - e2,  U_{n-5-j} = e_{2+j} - e_{3+j},  E2 = e_{n-3},

and the chain U_{n-3} = C0, U_{n-4} = f0, U_{n-5}, ..., U_1 has
self-intersections [-n, -2, ..., -2].  The branch transform is
Delta = pull(D) - 2(e1 + ... + e_{n-3}) and the adjoint half-class is
L = Delta - (pull(C0) + f0) - K.

Reports list every checked identity with its expected and computed value and
a provenance tag, plus findings that are flagged rather than failed; the
report's shape and encodings live in `report.py`.  `en-report`,
`single-contraction` and `w4` share one contract-and-smooth step: two copies
of the chain, one copy, and the n = 4 chain [4].
"""

from __future__ import annotations

from ._record import Record
from .blowdown import (
    ContractionSet,
    SmoothedFiberInvariants,
    branch_compatibility,
    smoothing_invariants,
)
from .classt import CLASS_T, ChainClassification, ResolutionChain, hj_value, recognize_class_t
from .covers import (
    NoetherResult,
    SurfaceInvariants,
    double_cover_invariants,
    h0_hirzebruch,
    h1_vanishing_by_degree,
    noether_check,
    tangency_condition_count,
)
from .lattice import BlownHirzebruch, DivisorClass
from .report import (
    DERIVED,
    PUBLISHED,
    TRIVIAL,
    EnReport,
    Identity,
    check,
    classification_dict,
    contribution_dicts,
    invariants_dict,
)

H1_HYPOTHESIS = (
    "degree criterion assumes the class is an irreducible nonsingular curve "
    "on a surface with p_g = q = 0"
)


class EnConfiguration(Record):
    """The named curve classes on Z_n.

    u[i-1] holds U_i, so u runs from U_1 (meeting E2) up to U_{n-3} = pull_c0;
    chain_classes lists them top-down, matching the chain [n, 2, ..., 2].
    """

    __slots__ = ("n", "surface", "pull_c0", "f0", "E1", "E2", "u", "pull_d", "delta", "K", "L")
    n: int
    surface: BlownHirzebruch
    pull_c0: DivisorClass
    f0: DivisorClass
    E1: DivisorClass
    E2: DivisorClass
    u: tuple[DivisorClass, ...]
    pull_d: DivisorClass
    delta: DivisorClass
    K: DivisorClass
    L: DivisorClass

    @property
    def chain_classes(self) -> tuple[DivisorClass, ...]:
        return tuple(reversed(self.u))


def build_en_configuration(n: int) -> EnConfiguration:
    if n < 5:
        raise ValueError("the configuration needs n >= 5")
    surface = BlownHirzebruch(n, n - 3)
    e = [surface.exceptional(i) for i in range(1, n - 2)]
    E1 = e[0]
    E2 = e[-1]
    f0 = surface.fiber() - e[0] - e[1]
    pull_c0 = surface.c0()
    u = tuple(e[k - 1] - e[k] for k in range(n - 4, 1, -1)) + (f0, pull_c0)
    pull_d = surface.divisor(4, 4 * n)
    exceptional_total = surface.divisor(0, 0, *[1] * (n - 3))
    delta = pull_d - 2 * exceptional_total
    K = surface.canonical_class()
    L = delta - (pull_c0 + f0) - K
    return EnConfiguration(
        n=n,
        surface=surface,
        pull_c0=pull_c0,
        f0=f0,
        E1=E1,
        E2=E2,
        u=u,
        pull_d=pull_d,
        delta=delta,
        K=K,
        L=L,
    )


def elliptic_surface_invariants(n: int) -> SurfaceInvariants:
    """E(n) as the double cover of F_n branched in |4(C0 + nf)|."""
    if n < 4:
        raise ValueError("elliptic cover needs n >= 4")
    base = BlownHirzebruch(n, 0)
    return double_cover_invariants(base, base.divisor(2, 2 * n))


def horikawa_direct(n: int) -> SurfaceInvariants:
    """H(n) as the double cover of F_{n-3} branched in |6C0 + (4n-8)f|."""
    if n < 4:
        raise ValueError("direct double cover needs n >= 4")
    base = BlownHirzebruch(n - 3, 0)
    return double_cover_invariants(base, base.divisor(3, 2 * n - 4))


def _configuration_chain(n: int) -> ResolutionChain:
    return ResolutionChain((n,) + (2,) * (n - 4))


def _contract_and_smooth(
    n: int, classification: ChainClassification, copies: int
) -> tuple[SurfaceInvariants, SmoothedFiberInvariants, NoetherResult]:
    """E(n), its smoothing with `copies` copies of the chain contracted, and the Noether check."""
    elliptic = elliptic_surface_invariants(n)
    smoothed = smoothing_invariants(elliptic, [classification] * copies)
    return elliptic, smoothed, noether_check(smoothed.fiber)


def _matches_direct_cover(direct: SurfaceInvariants, fiber: SurfaceInvariants) -> Identity:
    return check(
        "smoothing_matches_direct_cover",
        [direct.chi, direct.K2, direct.e],
        [fiber.chi, fiber.K2, fiber.e],
        PUBLISHED,
    )


def verify_en_identities(cfg: EnConfiguration) -> EnReport:
    """Re-check every identity of the configuration and its blow-down.

    Failures never abort: each identity lands in the report with its computed
    value.  The adjoint self-intersection is reported twice, from the lattice
    and from the closed form 25n + 2; a disagreement is a flagged finding, not
    a failure, because the closed form relies on a fiber decomposition that
    does not hold in this incidence model for n > 5.
    """
    n = cfg.n
    surface = cfg.surface
    pair = surface.pairing
    ids: list[Identity] = []

    ids.append(check("branch_fiber_degree", 4, pair(cfg.pull_d, surface.fiber()), PUBLISHED))

    for i, u_class in enumerate(cfg.u, start=1):
        ids.append(check(f"delta_dot_u{i}", 0, pair(cfg.delta, u_class), PUBLISHED))
    ids.append(check("delta_dot_pull_c0", 0, pair(cfg.delta, cfg.pull_c0), PUBLISHED))
    ids.append(check("delta_dot_f0", 0, pair(cfg.delta, cfg.f0), PUBLISHED))
    ids.append(check("delta_dot_e1", 2, pair(cfg.delta, cfg.E1), PUBLISHED))
    ids.append(check("delta_dot_e2", 2, pair(cfg.delta, cfg.E2), PUBLISHED))

    ids.append(check("delta_self_intersection", 12 * n + 12, pair(cfg.delta, cfg.delta), PUBLISHED))
    ids.append(
        check("delta_canonical_degree", 10 * n - 2, surface.adjunction_degree(cfg.delta), PUBLISHED)
    )
    h1 = h1_vanishing_by_degree(surface, cfg.delta)
    ids.append(check("h1_margin", -2 * n - 14, h1.margin, PUBLISHED))
    ids.append(check("h1_vanishes", True, h1.vanishes, PUBLISHED))
    ids.append(
        check(
            "h1_margin_is_delta_dot_k",
            pair(cfg.delta, cfg.K),
            h1.margin,
            TRIVIAL,
        )
    )

    ids.append(check("branch_sections", 10 * n + 5, h0_hirzebruch(n, 4, 4 * n), PUBLISHED))
    tangency = tangency_condition_count(n)
    ids.append(check("tangency_conditions", 3 * n - 9, tangency.conditions, PUBLISHED))
    ids.append(check("tangency_margin", 7 * n + 14, tangency.margin, DERIVED))

    contraction = ContractionSet(surface, (cfg.chain_classes,))
    (negativity,) = contraction.negativity
    (classification,) = contraction.classifications
    chain = classification.chain
    ids.append(
        check(
            "chain_self_pairings",
            [-n] + [-2] * (n - 4),
            [row[i] for i, row in enumerate(negativity.gram)],
            PUBLISHED,
        )
    )
    ids.append(check("chain_negative_definite", True, negativity.negative_definite, PUBLISHED))

    computed_class = [classification.kind]
    if classification.kind == CLASS_T:
        computed_class += [classification.tdata.d, classification.tdata.n, classification.tdata.a]
    ids.append(check("chain_class_t", [CLASS_T, 1, n - 2, 1], computed_class, PUBLISHED))
    quotient = hj_value(chain)
    ids.append(
        check("chain_quotient", [(n - 2) ** 2, n - 3], [quotient.m, quotient.q], PUBLISHED)
    )
    reversed_classification = recognize_class_t(chain.reversed())
    ids.append(
        check("chain_reversed_is_class_t", CLASS_T, reversed_classification.kind, DERIVED)
    )

    ids.append(
        check(
            "branch_chain_compatible",
            True,
            branch_compatibility(surface, cfg.delta, contraction),
            PUBLISHED,
        )
    )

    base_k = surface.divisor(-2, -(n + 2))
    # E1 + (n-4) E2 + sum_{j=1}^{n-5} (n-4-j) U_j
    decomposition = surface.linear_combination(
        [(1, cfg.E1), (n - 4, cfg.E2)] + list(zip(range(n - 5, 0, -1), cfg.u))
    )
    ids.append(
        check(
            "canonical_chain_decomposition",
            list((base_k + decomposition).coeffs),
            list(cfg.K.coeffs),
            PUBLISHED,
        )
    )
    ids.append(
        check(
            "delta_contraction_expression",
            list((cfg.pull_d - 2 * decomposition).coeffs),
            list(cfg.delta.coeffs),
            PUBLISHED,
        )
    )

    ids.append(check("adjoint_dot_f0", 1, pair(cfg.L, cfg.f0), PUBLISHED))
    ids.append(check("adjoint_dot_pull_c0", 1, pair(cfg.L, cfg.pull_c0), PUBLISHED))

    adjoint_square = pair(cfg.L, cfg.L)
    closed_form = 25 * n + 2
    flags: list[dict] = []
    if adjoint_square != closed_form:
        flags.append(
            {
                "name": "adjoint_square_mismatch",
                "lattice": adjoint_square,
                "closed_form": closed_form,
                "detail": (
                    "lattice value of L.L differs from the closed form 25n+2; "
                    "both are reported, neither is adjudicated"
                ),
            }
        )

    elliptic, smoothed, fiber_noether = _contract_and_smooth(n, classification, 2)
    ids.append(
        check(
            "elliptic_cover_invariants",
            [n - 1, 0, n, 0, 12 * n],
            [elliptic.p_g, elliptic.q, elliptic.chi, elliptic.K2, elliptic.e],
            PUBLISHED,
        )
    )

    fiber = smoothed.fiber
    ids.append(check("general_fiber_chi", n, fiber.chi, DERIVED))
    ids.append(check("general_fiber_k2", 2 * n - 6, fiber.K2, DERIVED))
    ids.append(check("general_fiber_euler", 10 * n + 6, fiber.e, DERIVED))
    direct = horikawa_direct(n)
    ids.append(_matches_direct_cover(direct, fiber))
    ids.append(check("general_fiber_on_noether_line", True, fiber_noether.on_line, DERIVED))

    invariants = {
        "basis": ["C0", "f"] + [f"e{i}" for i in range(1, n - 2)],
        "delta": list(cfg.delta.coeffs),
        "adjoint": list(cfg.L.coeffs),
        "canonical": list(cfg.K.coeffs),
        "chain": list(chain.b),
        "chain_gram": [list(row) for row in negativity.gram],
        "chain_classification": classification_dict(classification),
        "chain_classification_reversed": classification_dict(reversed_classification),
        "adjoint_square_lattice": adjoint_square,
        "adjoint_square_closed_form": closed_form,
        "elliptic_cover": invariants_dict(elliptic),
        "general_fiber": invariants_dict(fiber),
        "general_fiber_p_g_status": "inferred",
        "general_fiber_noether_margin": fiber_noether.margin,
        "direct_double_cover": invariants_dict(direct),
        "per_chain": contribution_dicts(smoothed),
        "h1_hypothesis": H1_HYPOTHESIS,
    }
    return EnReport(
        inputs={"n": n},
        identities=tuple(ids),
        flags=tuple(flags),
        invariants=invariants,
    )


def w4_example(count: int) -> EnReport:
    """Contract `count` (-4)-sections of the elliptic cover of F_4 and smooth.

    One contraction lands below the Noether line (no smoothing can exist);
    two contractions land on it and reproduce the direct double cover.
    """
    if count not in (1, 2):
        raise ValueError("count must be 1 or 2; higher covers are out of scope")
    base = BlownHirzebruch(4, 0)
    branch = base.divisor(4, 16)
    classification = recognize_class_t(_configuration_chain(4))
    cover, smoothed, noether = _contract_and_smooth(4, classification, count)
    fiber = smoothed.fiber
    ids: list[Identity] = []
    ids.append(
        check(
            "elliptic_cover_invariants",
            [3, 0, 4, 0, 48],
            [cover.p_g, cover.q, cover.chi, cover.K2, cover.e],
            DERIVED,
        )
    )
    h1 = h1_vanishing_by_degree(base, branch)
    ids.append(check("h1_margin", -24, h1.margin, PUBLISHED))
    ids.append(check("h1_vanishes", True, h1.vanishes, PUBLISHED))
    ids.append(
        check("branch_dot_negative_section", 0, base.pairing(branch, base.c0()), PUBLISHED)
    )

    if count == 1:
        ids.append(check("noether_margin", -1, noether.margin, DERIVED))
        ids.append(check("noether_violated", True, not noether.satisfied, PUBLISHED))
        interpretation = "below the Noether line: no complex structure"
    else:
        ids.append(check("noether_margin", 0, noether.margin, DERIVED))
        ids.append(check("noether_on_line", True, noether.on_line, DERIVED))
        direct = horikawa_direct(4)
        ids.append(_matches_direct_cover(direct, fiber))
        interpretation = "on the Noether line: matches the direct double cover"
    invariants = {
        "branch": list(branch.coeffs),
        "chain_classification": classification_dict(classification),
        "chain_classification_reversed": classification_dict(
            recognize_class_t(classification.chain.reversed())
        ),
        "elliptic_cover": invariants_dict(cover),
        "general_fiber": invariants_dict(fiber),
        "general_fiber_p_g_status": "inferred",
        "noether_margin": noether.margin,
        "per_chain": contribution_dicts(smoothed),
        "interpretation": interpretation,
        "h1_hypothesis": H1_HYPOTHESIS,
    }
    if count == 2:
        invariants["direct_double_cover"] = invariants_dict(direct)
    return EnReport(
        inputs={"count": count},
        identities=tuple(ids),
        flags=(),
        invariants=invariants,
    )


def single_contraction_report(n: int) -> EnReport:
    """Contract only one configuration chain on E(n); the result violates Noether.

    The violation is the obstruction witness: no smoothing of the single
    contraction exists.  n = 4 degenerates to one (-4)-section.
    """
    if n < 4:
        raise ValueError("single contraction needs n >= 4")
    classification = recognize_class_t(_configuration_chain(n))
    elliptic, smoothed, noether = _contract_and_smooth(n, classification, 1)
    fiber = smoothed.fiber
    ids = [
        check("hypothetical_p_g", n - 1, fiber.p_g, DERIVED),
        check("hypothetical_k2", n - 3, fiber.K2, DERIVED),
        check("noether_margin", 3 - n, noether.margin, DERIVED),
        check("noether_violated", True, not noether.satisfied, PUBLISHED),
    ]
    invariants = {
        "chain_classification": classification_dict(classification),
        "elliptic_cover": invariants_dict(elliptic),
        "hypothetical_fiber": invariants_dict(fiber),
        "general_fiber_p_g_status": "inferred",
        "noether_margin": noether.margin,
        "per_chain": contribution_dicts(smoothed),
        "interpretation": "obstruction witness: no smoothing exists",
    }
    return EnReport(
        inputs={"n": n},
        identities=tuple(ids),
        flags=(),
        invariants=invariants,
    )
