"""Exact integer intersection theory on blown-up Hirzebruch surfaces.

Divisor classes are integer vectors in the ordered basis (C0, f, e1, ..., ek),
where C0 is the negative section, f the fiber, and e_i the exceptional classes
of k point blow-ups.  A class keeps only its nonzero coefficients, so its
arithmetic and pairings cost what its nonzero terms cost, not the rank.  Every
operation is exact; Python integers are unbounded, so no overflow handling is
needed.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from ._record import Record

_nonzero = operator.itemgetter(1)


def _checked_terms(coeffs: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The nonzero (index, coefficient) pairs of a dense vector, as plain ints.

    Raises TypeError on a coefficient that is not an integer; a bool is
    stored as the int it equals.
    """
    terms = []
    for i, c in enumerate(coeffs):
        if not isinstance(c, int):
            raise TypeError(f"divisor coefficients must be integers, got {c!r}")
        if c:
            terms.append((i, int(c)))
    return tuple(terms)


class DivisorClass(Record):
    """A divisor class on a fixed basis, kept as its nonzero coefficients.

    `rank` is the length of the basis and `terms` the (index, coefficient)
    pairs whose coefficient is nonzero, in index order, so equal classes have
    equal fields; `coeffs` is the dense coefficient tuple.  Sums,
    differences, negatives and integer multiples cost O(nonzero terms).

    The constructor takes the dense coefficients and checks that each is an
    integer, where a caller builds a class.  Results of arithmetic on checked
    classes, and the basis classes a surface hands out, are integers by
    construction, so they are built through `_class` without checking them
    again.
    """

    __slots__ = ("rank", "terms")
    rank: int
    terms: tuple[tuple[int, int], ...]

    def __init__(self, coeffs: Iterable[int]) -> None:
        coeffs = tuple(coeffs)
        super().__init__(len(coeffs), _checked_terms(coeffs))

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The dense coefficient tuple, zeros included."""
        dense = [0] * self.rank
        for i, c in self.terms:
            dense[i] = c
        return tuple(dense)

    def __len__(self) -> int:
        return self.rank

    def _plus(self, other: "DivisorClass", sign: int) -> "DivisorClass":
        """self + sign * other, accumulated over the terms of `other`."""
        if self.rank != other.rank:
            raise ValueError(
                f"divisor classes live on different lattices "
                f"(lengths {self.rank} and {other.rank})"
            )
        acc = dict(self.terms)
        get = acc.get
        for i, x in other.terms:
            acc[i] = get(i, 0) + sign * x
        return _accumulated(self.rank, acc)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self) -> "DivisorClass":
        return _class(self.rank, tuple((i, -x) for i, x in self.terms))

    def __mul__(self, scalar: int) -> "DivisorClass":
        if not isinstance(scalar, int):
            return NotImplemented
        terms = tuple((i, scalar * x) for i, x in self.terms) if scalar else ()
        return _class(self.rank, terms)

    __rmul__ = __mul__


_set_rank, _set_terms = DivisorClass._setters


def _class(rank: int, terms: tuple[tuple[int, int], ...]) -> DivisorClass:
    """A class from its fields, unchecked: the terms are nonzero ints in index order."""
    c = object.__new__(DivisorClass)
    _set_rank(c, rank)
    _set_terms(c, terms)
    return c


def _accumulated(rank: int, acc: dict[int, int]) -> DivisorClass:
    """The class on `rank` with coefficients `acc`, zero entries dropped."""
    return _class(rank, tuple(filter(_nonzero, sorted(acc.items()))))


class NegativityResult(Record):
    """Mutual Gram matrix of a family of classes and its definiteness verdict."""

    __slots__ = ("gram", "negative_definite", "vacuous")
    gram: tuple[tuple[int, ...], ...]
    negative_definite: bool
    vacuous: bool


def _leading_minors(gram: Sequence[Sequence[int]]) -> Iterator[int]:
    """Yield the leading principal minors D_1, D_2, ... of a square matrix.

    One fraction-free Bareiss pass without pivoting (Bareiss 1968): once k
    elimination steps are done, the pivot m[k][k] (0-based) is D_{k+1}, and
    every division is exact.  The pass stops right after yielding a zero
    minor, the first pivot it could not divide by.
    """
    m = [list(row) for row in gram]
    size = len(m)
    prev = 1
    for k in range(size):
        row_k = m[k]
        pivot = row_k[k]
        yield pivot
        if pivot == 0:
            return
        for i in range(k + 1, size):
            row_i = m[i]
            factor = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot


class BlownHirzebruch(Record):
    """The Picard lattice of a Hirzebruch surface F_n blown up k times.

    Basis (C0, f, e1, ..., ek) with Gram matrix

        C0.C0 = -n,  C0.f = 1,  f.f = 0,  e_i.e_j = -delta_ij,

    and both C0 and f orthogonal to every e_i.  The rank is k + 2 and the
    signature is (1, k + 1).  Blow-up centers carry no coordinates here:
    geometry enters only through which integer combinations the caller
    singles out as curve classes.
    """

    __slots__ = ("hirzebruch_index", "blowup_count")
    hirzebruch_index: int
    blowup_count: int

    def __init__(self, hirzebruch_index: int, blowup_count: int = 0) -> None:
        if hirzebruch_index < 0:
            raise ValueError("hirzebruch_index must be nonnegative")
        if blowup_count < 0:
            raise ValueError("blowup_count must be nonnegative")
        super().__init__(hirzebruch_index, blowup_count)

    @property
    def rank(self) -> int:
        return self.blowup_count + 2

    def divisor(self, c0: int, f: int, *exceptional: int) -> DivisorClass:
        """Build a class from coefficients; omitted e-coefficients are zero."""
        if len(exceptional) > self.blowup_count:
            raise ValueError(
                f"{len(exceptional)} exceptional coefficients on a surface with "
                f"{self.blowup_count} blow-ups"
            )
        return _class(self.rank, _checked_terms((c0, f) + exceptional))

    def c0(self) -> DivisorClass:
        return self.divisor(1, 0)

    def fiber(self) -> DivisorClass:
        return self.divisor(0, 1)

    def exceptional(self, i: int) -> DivisorClass:
        """The i-th exceptional class e_i, 1-based."""
        if not 1 <= i <= self.blowup_count:
            raise ValueError(f"exceptional index {i} out of range 1..{self.blowup_count}")
        return _class(self.rank, ((1 + i, 1),))

    def zero(self) -> DivisorClass:
        return _class(self.rank, ())

    def _require_rank(self, c: DivisorClass) -> None:
        if c.rank != self.rank:
            raise ValueError(f"class of length {c.rank} on a rank {self.rank} lattice")

    def linear_combination(self, weighted: Iterable[tuple[int, DivisorClass]]) -> DivisorClass:
        """The sum of k * c over the (k, c) pairs, in one pass over their nonzero terms."""
        acc: dict[int, int] = {}
        get = acc.get
        for k, c in weighted:
            if not isinstance(k, int):
                raise TypeError(f"weights must be integers, got {k!r}")
            self._require_rank(c)
            for i, x in c.terms:
                acc[i] = get(i, 0) + k * x
        return _accumulated(self.rank, acc)

    def pairing(self, a: DivisorClass, b: DivisorClass) -> int:
        """Intersection number a.b under the Gram matrix; symmetric and bilinear.

        Walks the class with fewer terms, where x times a basis class pairs
        with the other class y to x*(y_f - n*y_C0) for C0, x*y_C0 for f and
        -x*y_i for e_i.  y_i is looked up by bisection when the other class
        is more than four times longer, else in a table built from it.
        """
        rank = self.blowup_count + 2
        if a.rank != rank or b.rank != rank:
            raise ValueError(f"classes of length {a.rank} and {b.rank} on a rank {rank} lattice")
        short, long = a.terms, b.terms
        if len(short) > len(long):
            short, long = long, short
        n = self.hirzebruch_index
        value = 0
        if len(long) > 4 * len(short):
            end = len(long)
            pos = 0
            for i, x in short:
                if i < 2:
                    # the terms are in index order, so (C0, f) lead
                    head = dict(long[:2])
                    y0 = head.get(0, 0)
                    value += x * y0 if i else x * (head.get(1, 0) - n * y0)
                    continue
                pos = bisect_left(long, (i,), pos)
                if pos == end:
                    break
                j, y = long[pos]
                if j == i:
                    value -= x * y
        else:
            get = dict(long).get
            for i, x in short:
                if i >= 2:
                    value -= x * get(i, 0)
                elif i:
                    value += x * get(0, 0)
                else:
                    value += x * (get(1, 0) - n * get(0, 0))
        return value

    def gram(self, classes: Sequence[DivisorClass]) -> tuple[tuple[int, ...], ...]:
        """Mutual pairings of a family, the same numbers as `pairing` gives.

        The basis Gram matrix is a (C0, f) block plus -identity on the
        exceptional classes, so an entry can be nonzero only where both
        classes have a nonzero (C0, f) head or both are nonzero at some
        exceptional index.  The head term is filled for the first kind of
        pair; the tail term is subtracted from an index that maps each
        exceptional index to the (position, coefficient) pairs of the
        classes nonzero there, mirrored off the diagonal.
        """
        n = self.hirzebruch_index
        heads = []
        index: dict[int, list[tuple[int, int]]] = {}
        for pos, c in enumerate(classes):
            self._require_rank(c)
            a0 = a1 = 0
            for idx, x in c.terms:
                if idx >= 2:
                    index.setdefault(idx, []).append((pos, x))
                elif idx:
                    a1 = x
                else:
                    a0 = x
            if a0 or a1:
                heads.append((pos, a0, a1))
        size = len(classes)
        rows = [[0] * size for _ in range(size)]
        for k, (i, a0, a1) in enumerate(heads):
            row_i = rows[i]
            for j, b0, b1 in heads[k:]:
                value = -n * a0 * b0 + a0 * b1 + a1 * b0
                row_i[j] = value
                rows[j][i] = value
        for entries in index.values():
            for k, (i, x) in enumerate(entries):
                row_i = rows[i]
                row_i[i] -= x * x
                for j, y in entries[k + 1:]:
                    value = x * y
                    row_i[j] -= value
                    rows[j][i] -= value
        return tuple(map(tuple, rows))

    def canonical_class(self) -> DivisorClass:
        """K = -2*C0 - (n+2)*f + e1 + ... + ek."""
        n = self.hirzebruch_index
        tail = tuple(zip(range(2, self.rank), repeat(1)))
        return _class(self.rank, ((0, -2), (1, -(n + 2))) + tail)

    def blow_up(self) -> "BlownHirzebruch":
        """The same surface blown up at one more point."""
        return BlownHirzebruch(self.hirzebruch_index, self.blowup_count + 1)

    def total_transform(self, d: DivisorClass) -> DivisorClass:
        """Pull back a class from the surface this one blows down to.

        Total transforms append a zero e-coefficient, so all pairings are
        preserved.
        """
        if self.blowup_count == 0:
            raise ValueError("surface has no blow-up to pull back along")
        if d.rank != self.rank - 1:
            raise ValueError(
                f"class of length {d.rank} cannot come from the "
                f"rank {self.rank - 1} predecessor"
            )
        return _class(self.rank, d.terms)

    def adjunction_degree(self, c: DivisorClass) -> int:
        """C.(C + K), which is 2g - 2 for a reduced irreducible member."""
        return self.pairing(c, c + self.canonical_class())

    def negativity_check(self, classes: Iterable[DivisorClass]) -> NegativityResult:
        """Mutual Gram matrix plus a leading-principal-minor definiteness test.

        Negative definite means the minors alternate in sign starting negative.
        One Bareiss pass over the Gram matrix yields every leading minor in
        turn, and the test stops at the first minor that breaks the sign
        pattern.  An empty family is vacuously negative definite and flagged
        as such.
        """
        family = tuple(classes)
        if len(set(family)) != len(family):
            raise ValueError("classes must be pairwise distinct")
        if not family:
            return NegativityResult((), True, True)
        gram = self.gram(family)
        definite = all(
            (-1) ** size * minor > 0
            for size, minor in enumerate(_leading_minors(gram), start=1)
        )
        return NegativityResult(gram, definite, False)
