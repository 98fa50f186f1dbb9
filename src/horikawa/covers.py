"""Numerical invariants around double covers of Hirzebruch surfaces.

Section counts on F_n use the closed fiberwise sum; standard double-cover
formulas produce (p_g, q, chi, K^2, e); the degree criterion decides H^1
vanishing for a nonsingular irreducible curve on a regular surface; plus the
Noether-inequality margin and the count of point conditions imposed by the
prescribed fiber tangencies.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ._record import Record
from .lattice import BlownHirzebruch, DivisorClass


class SurfaceInvariants(Record):
    """(p_g, q, chi, K^2, e) with any subset of fields known.

    Whenever enough fields are present the relations chi = 1 - q + p_g and
    12*chi = K^2 + e are enforced at construction.
    """

    __slots__ = ("p_g", "q", "chi", "K2", "e")
    p_g: Optional[int]
    q: Optional[int]
    chi: Optional[int]
    K2: Optional[int]
    e: Optional[int]

    def __init__(
        self,
        p_g: Optional[int] = None,
        q: Optional[int] = None,
        chi: Optional[int] = None,
        K2: Optional[int] = None,
        e: Optional[int] = None,
    ) -> None:
        if p_g is not None and p_g < 0:
            raise ValueError(f"p_g must be nonnegative, got {p_g}")
        if q is not None and q < 0:
            raise ValueError(f"q must be nonnegative, got {q}")
        if None not in (p_g, q, chi) and chi != 1 - q + p_g:
            raise ValueError(f"chi={chi} inconsistent with 1 - q + p_g = {1 - q + p_g}")
        if None not in (chi, K2, e) and 12 * chi != K2 + e:
            raise ValueError(f"12*chi = {12 * chi} but K^2 + e = {K2 + e}")
        super().__init__(p_g, q, chi, K2, e)


#: Invariants shared by every Hirzebruch surface.
HIRZEBRUCH_INVARIANTS = SurfaceInvariants(p_g=0, q=0, chi=1, K2=8, e=4)


class CoverSpec(Record):
    """A double cover of a Hirzebruch surface branched in |2L|."""

    __slots__ = ("base", "base_invariants", "half_class", "degree")
    base: BlownHirzebruch
    base_invariants: SurfaceInvariants
    half_class: DivisorClass
    degree: int

    def __init__(
        self,
        base: BlownHirzebruch,
        base_invariants: SurfaceInvariants,
        half_class: DivisorClass,
        degree: int = 2,
    ) -> None:
        if degree != 2:
            raise ValueError(f"only double covers are supported, got degree {degree}")
        if len(half_class.coeffs) != base.rank:
            raise ValueError("half_class does not live on the base lattice")
        super().__init__(base, base_invariants, half_class, degree)


def h0_hirzebruch(n: int, a: int, b: int) -> int:
    """dim H^0 of a*C0 + b*f on F_n: sum over fiber multiples of the section.

    Equals the number of monomial slots (k, j) with 0 <= k <= a and
    0 <= j <= b - k*n, so a negative multiple a of the section has none.
    """
    if n < 0:
        raise ValueError("hirzebruch index must be nonnegative")
    return sum(max(0, b - k * n + 1) for k in range(a + 1))


def double_cover_invariants(cover: CoverSpec) -> SurfaceInvariants:
    """Invariants of the double cover branched in twice the half class.

    p_g grows by the sections of K_base + L, chi by the usual half pairing
    term, and K^2 doubles the square of K_base + L; q and e then follow from
    chi = 1 - q + p_g and 12*chi = K^2 + e.
    """
    base, inv, half = cover.base, cover.base_invariants, cover.half_class
    if inv.p_g is None or inv.q is None or inv.chi is None:
        raise ValueError("base invariants must include p_g, q and chi")
    if base.blowup_count != 0:
        raise ValueError("section counts are only available on an unblown Hirzebruch base")
    adjoint = base.canonical_class() + half
    p_g = inv.p_g + h0_hirzebruch(base.hirzebruch_index, adjoint.coeffs[0], adjoint.coeffs[1])
    chi_exact = 2 * inv.chi + Fraction(
        base.pairing(half, base.canonical_class()) + base.pairing(half, half), 2
    )
    if chi_exact.denominator != 1:
        raise ValueError(f"inconsistent branch data: chi would be {chi_exact}")
    chi = int(chi_exact)
    K2 = 2 * base.pairing(adjoint, adjoint)
    q = 1 - chi + p_g
    return SurfaceInvariants(p_g=p_g, q=q, chi=chi, K2=K2, e=12 * chi - K2)


class H1Margin(Record):
    """Degree criterion deg K_D - D^2 = D.K; negative forces H^1(O(D)) = 0.

    Valid when D is an irreducible nonsingular curve on a surface with
    p_g = q = 0; that hypothesis is the caller's to assert.
    """

    __slots__ = ("margin", "vanishes")
    margin: int
    vanishes: bool


def h1_vanishing_by_degree(surface: BlownHirzebruch, d: DivisorClass) -> H1Margin:
    margin = surface.pairing(d, surface.canonical_class())
    return H1Margin(margin=margin, vanishes=margin < 0)


class NoetherResult(Record):
    __slots__ = ("margin", "satisfied", "on_line")
    margin: int
    satisfied: bool
    on_line: bool


def noether_check(inv: SurfaceInvariants) -> NoetherResult:
    """Margin of K^2 >= 2*p_g - 4; zero margin puts the surface on the line."""
    if inv.p_g is None or inv.K2 is None:
        raise ValueError("noether_check needs p_g and K2")
    margin = inv.K2 - (2 * inv.p_g - 4)
    return NoetherResult(margin=margin, satisfied=margin >= 0, on_line=margin == 0)


class TangencyCount(Record):
    __slots__ = ("conditions", "h0", "margin")
    conditions: int
    h0: int
    margin: int


def tangency_condition_count(n: int) -> TangencyCount:
    """Point conditions 3(n-4)+3 imposed on |4C0+4nf| by the fiber tangencies."""
    if n < 5:
        raise ValueError("tangency count needs n >= 5")
    conditions = 3 * (n - 4) + 3
    h0 = h0_hirzebruch(n, 4, 4 * n)
    return TangencyCount(conditions=conditions, h0=h0, margin=h0 - conditions)
