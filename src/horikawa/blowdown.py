"""Invariant bookkeeping for chain contraction and Q-Gorenstein smoothing.

Contracting a negative chain adds sum_i d_i*(b_i - 2) to K^2, where the
discrepancy vector (d_i) solves the chain's tridiagonal intersection system;
its closed form in Hirzebruch-Jung continuants (Kollar-Mori, section 4) is
d_i = 1 - (K(b_1..b_{i-1}) + K(b_{i+1}..b_r)) / K(b_1..b_r).
Smoothing a class-T point whose resolution chain has length r and smoothing
dimension d drops the Euler number by r + 1 - d: the contraction removes r
curves and the Milnor fiber of the point contributes Euler number d in place
of the point itself.  The Euler constant is a design commitment validated by
the 12*chi = K^2 + e consistency check on every output and by the pipeline
cross-check against the direct double-cover computation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from ._record import Record
from .classt import (
    CLASS_T,
    NOT_CLASS_T,
    RATIONAL_DOUBLE_POINT,
    ChainClassification,
    ResolutionChain,
    _continuants,
    recognize_class_t,
)
from .covers import SurfaceInvariants
from .lattice import BlownHirzebruch, DivisorClass, NegativityResult


def discrepancies(chain: ResolutionChain) -> tuple[Fraction, ...]:
    """Exact solution (d_i) of sum_i d_i (E_i.E_j) = -(b_j - 2) for all j.

    In Hirzebruch-Jung continuants K (Kollar-Mori, Birational Geometry of
    Algebraic Varieties, section 4), with m = K(b_1..b_r),

        d_i = 1 - (K(b_1..b_{i-1}) + K(b_{i+1}..b_r)) / m,

    read off one forward and one backward continuant pass.  Valid chains
    give 0 <= d_i < 1.
    """
    b = chain.b
    r = len(b)
    head = _continuants(b)
    tail = _continuants(b[::-1])
    m = head[r]
    if m == 0:
        raise RuntimeError(f"singular chain matrix for {b}")
    out = tuple(Fraction(m - head[i] - tail[r - 1 - i], m) for i in range(r))
    if not all(0 <= d < 1 for d in out):
        raise RuntimeError(f"discrepancies {out} out of [0,1) for {b}")
    return out


def k2_correction(chain: ResolutionChain) -> Fraction:
    """Increase of K^2 when the chain contracts: sum_i d_i*(b_i - 2)."""
    return _k2_from_discrepancies(chain, discrepancies(chain))


def _k2_from_discrepancies(chain: ResolutionChain, disc: Sequence[Fraction]) -> Fraction:
    return sum((d * (bi - 2) for d, bi in zip(disc, chain.b)), start=Fraction(0))


class ContractionSet(Record):
    """Disjoint negative chains of curve classes in one ambient lattice.

    Construction verifies the plumbing shape (consecutive classes meet once,
    all other pairs are orthogonal, self-intersections are -b_i <= -2) and
    classifies each chain; chains outside class T are rejected.  The shape is
    read off each chain's Gram matrix from `surface.gram`; once it holds, the
    leading minors are (-1)^k K(b_1..b_k), so the definiteness verdict kept in
    `negativity` comes from the chain's continuants.  With every b_i >= 2 they
    grow strictly (K_k >= K_{k-1} + 1), so the verdict is true for every
    accepted chain: it witnesses the shape check rather than adding a test.
    Only the disjointness of different chains is paired class by class.
    """

    __slots__ = ("surface", "chains", "classifications", "negativity")
    surface: BlownHirzebruch
    chains: tuple[tuple[DivisorClass, ...], ...]
    classifications: tuple[ChainClassification, ...]
    negativity: tuple[NegativityResult, ...]

    def __init__(
        self, surface: BlownHirzebruch, chains: Iterable[Iterable[DivisorClass]]
    ) -> None:
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "chains", chains)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the chains and set `classifications` and `negativity`.

        Kept apart from `__init__` under this name, which benchmarks/tracer.py
        wraps on the class to time construction.
        """
        object.__setattr__(self, "chains", tuple(tuple(c) for c in self.chains))
        pair = self.surface.pairing
        classifications = []
        negativity = []
        for chain in self.chains:
            if not chain:
                raise ValueError("empty chain in contraction set")
            if len({c.coeffs for c in chain}) != len(chain):
                raise ValueError("classes must be pairwise distinct")
            gram = self.surface.gram(chain)
            b = [-row[i] for i, row in enumerate(gram)]
            for bi in b:
                if bi < 2:
                    raise ValueError(f"chain class with self-intersection {-bi}; need <= -2")
            for i, row in enumerate(gram):
                for j in range(i + 1, len(row)):
                    expected = 1 if j == i + 1 else 0
                    got = row[j]
                    if got != expected:
                        raise ValueError(
                            f"chain positions {i} and {j} pair to {got}, expected {expected}"
                        )
            negativity.append(NegativityResult(gram, all(k > 0 for k in _continuants(b)), False))
            verdict = recognize_class_t(ResolutionChain(tuple(b)))
            if verdict.kind == NOT_CLASS_T:
                raise ValueError(f"chain {b} is not of class T")
            classifications.append(verdict)
        for i in range(len(self.chains)):
            for j in range(i + 1, len(self.chains)):
                for a in self.chains[i]:
                    for c in self.chains[j]:
                        if pair(a, c) != 0:
                            raise ValueError(f"chains {i} and {j} are not disjoint")
        object.__setattr__(self, "classifications", tuple(classifications))
        object.__setattr__(self, "negativity", tuple(negativity))


class ChainContribution(Record):
    """What one contracted-and-smoothed chain does to the invariants."""

    __slots__ = ("classification", "discrepancies", "k2_correction", "euler_drop")
    classification: ChainClassification
    discrepancies: tuple[Fraction, ...]
    k2_correction: Fraction
    euler_drop: int


class SmoothedFiberInvariants(Record):
    __slots__ = ("fiber", "contributions", "flags")
    fiber: SurfaceInvariants
    contributions: tuple[ChainContribution, ...]
    flags: tuple[dict, ...]

    def __init__(
        self,
        fiber: SurfaceInvariants,
        contributions: tuple[ChainContribution, ...],
        flags: tuple[dict, ...] = (),
    ) -> None:
        super().__init__(fiber, contributions, flags)


def smoothing_invariants(
    v: SurfaceInvariants, chains: Sequence[ChainClassification]
) -> SmoothedFiberInvariants:
    """Invariants of the general fiber after contracting and smoothing chains.

    chi carries over; K^2 gains each chain's contraction correction; e drops
    by r + 1 - d per chain.  p_g, when present on the input, is carried over
    as an inferred value (reports label it so).  A class-T chain adds the
    integer r - d + 1 to K^2, so a non-integer K^2 or 12*chi != K^2 + e is a
    fault here and raises RuntimeError.  Rational double point chains add
    nothing; each is skipped and flagged {"name": "warning", "detail": ...}.
    """
    if v.K2 is None or v.e is None or v.chi is None:
        raise ValueError("smoothing needs K2, e and chi on the input invariants")
    contributions = []
    flags = []
    total_correction = Fraction(0)
    total_drop = 0
    for cls in chains:
        if cls.kind == RATIONAL_DOUBLE_POINT:
            flags.append(
                {
                    "name": "warning",
                    "detail": f"rational double point chain {cls.chain.b} has no effect "
                    f"on the smoothing invariants; skipping it",
                }
            )
            continue
        if cls.kind != CLASS_T:
            raise ValueError(f"chain {cls.chain.b} is not of class T")
        disc = discrepancies(cls.chain)
        correction = _k2_from_discrepancies(cls.chain, disc)
        drop = len(cls.chain) + 1 - cls.tdata.d
        contributions.append(
            ChainContribution(
                classification=cls,
                discrepancies=disc,
                k2_correction=correction,
                euler_drop=drop,
            )
        )
        total_correction += correction
        total_drop += drop
    k2_exact = v.K2 + total_correction
    if k2_exact.denominator != 1:
        raise RuntimeError(f"K^2 correction sums to non-integer {k2_exact}")
    k2 = int(k2_exact)
    e = v.e - total_drop
    if 12 * v.chi != k2 + e:
        raise RuntimeError(
            f"accounting error: 12*chi = {12 * v.chi} but K^2 + e = {k2 + e}; "
            f"wrong chain/d combination"
        )
    p_g = v.p_g
    q = None if p_g is None else 1 - v.chi + p_g
    fiber = SurfaceInvariants(p_g=p_g, q=q, chi=v.chi, K2=k2, e=e)
    return SmoothedFiberInvariants(
        fiber=fiber, contributions=tuple(contributions), flags=tuple(flags)
    )


def branch_compatibility(
    surface: BlownHirzebruch, branch: DivisorClass, contraction: ContractionSet
) -> bool:
    """True iff the branch class is orthogonal to every contracted class."""
    if contraction.surface != surface:
        raise ValueError("contraction set lives on a different surface")
    pair = surface.pairing
    return all(pair(branch, c) == 0 for chain in contraction.chains for c in chain)
