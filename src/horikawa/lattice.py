"""Exact integer intersection theory on blown-up Hirzebruch surfaces.

Divisor classes are integer vectors in the ordered basis (C0, f, e1, ..., ek),
where C0 is the negative section, f the fiber, and e_i the exceptional classes
of k point blow-ups.  Every operation is exact; Python integers are unbounded,
so no overflow handling is needed.
"""

from __future__ import annotations

import operator
from itertools import compress, count
from typing import Iterable, Iterator, Sequence

from ._record import Record, _restore


class DivisorClass(Record):
    """Integer coefficient vector of a divisor class on a fixed basis.

    The constructor checks that every coefficient is an integer, where a
    caller builds a class.  Sums, differences, negatives and integer
    multiples of checked classes, and the basis classes a surface hands out,
    are integers by construction, so they are built through `_restore`
    without checking them again.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]) -> None:
        coeffs = tuple(coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"divisor coefficients must be integers, got {c!r}")
        object.__setattr__(self, "coeffs", coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def _require_same_rank(self, other: "DivisorClass") -> None:
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError(
                f"divisor classes live on different lattices "
                f"(lengths {len(self.coeffs)} and {len(other.coeffs)})"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        self._require_same_rank(other)
        return _restore(DivisorClass, (tuple(map(operator.add, self.coeffs, other.coeffs)),))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        self._require_same_rank(other)
        return _restore(DivisorClass, (tuple(map(operator.sub, self.coeffs, other.coeffs)),))

    def __neg__(self) -> "DivisorClass":
        return _restore(DivisorClass, (tuple(map(operator.neg, self.coeffs)),))

    def __mul__(self, scalar: int) -> "DivisorClass":
        if not isinstance(scalar, int):
            return NotImplemented
        return _restore(DivisorClass, (tuple(scalar * a for a in self.coeffs),))

    __rmul__ = __mul__


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
        tail = exceptional + (0,) * (self.blowup_count - len(exceptional))
        return DivisorClass((c0, f) + tail)

    def c0(self) -> DivisorClass:
        return self.divisor(1, 0)

    def fiber(self) -> DivisorClass:
        return self.divisor(0, 1)

    def exceptional(self, i: int) -> DivisorClass:
        """The i-th exceptional class e_i, 1-based."""
        if not 1 <= i <= self.blowup_count:
            raise ValueError(f"exceptional index {i} out of range 1..{self.blowup_count}")
        coeffs = [0] * self.rank
        coeffs[1 + i] = 1
        return _restore(DivisorClass, (tuple(coeffs),))

    def zero(self) -> DivisorClass:
        return _restore(DivisorClass, ((0,) * self.rank,))

    def pairing(self, a: DivisorClass, b: DivisorClass) -> int:
        """Intersection number a.b under the Gram matrix; symmetric and bilinear."""
        if len(a.coeffs) != self.rank or len(b.coeffs) != self.rank:
            raise ValueError(
                f"classes of length {len(a.coeffs)} and {len(b.coeffs)} "
                f"on a rank {self.rank} lattice"
            )
        n = self.hirzebruch_index
        value = -n * a.coeffs[0] * b.coeffs[0]
        value += a.coeffs[0] * b.coeffs[1] + a.coeffs[1] * b.coeffs[0]
        value -= sum(map(operator.mul, a.coeffs[2:], b.coeffs[2:]))
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
            coeffs = c.coeffs
            if len(coeffs) != self.rank:
                raise ValueError(
                    f"class of length {len(coeffs)} on a rank {self.rank} lattice"
                )
            if coeffs[0] or coeffs[1]:
                heads.append((pos, coeffs[0], coeffs[1]))
            for idx in compress(count(2), coeffs[2:]):
                index.setdefault(idx, []).append((pos, coeffs[idx]))
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
        return self.divisor(-2, -(n + 2), *([1] * self.blowup_count))

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
        if len(d.coeffs) != self.rank - 1:
            raise ValueError(
                f"class of length {len(d.coeffs)} cannot come from the "
                f"rank {self.rank - 1} predecessor"
            )
        return _restore(DivisorClass, (d.coeffs + (0,),))

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
        if len({c.coeffs for c in family}) != len(family):
            raise ValueError("classes must be pairwise distinct")
        if not family:
            return NegativityResult((), True, True)
        gram = self.gram(family)
        definite = all(
            (-1) ** size * minor > 0
            for size, minor in enumerate(_leading_minors(gram), start=1)
        )
        return NegativityResult(gram, definite, False)
