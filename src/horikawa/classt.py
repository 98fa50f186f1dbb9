"""Hirzebruch-Jung continued fractions and the class-T chain calculus.

A cyclic quotient singularity 1/m(1,q) resolves to a linear chain of rational
curves with self-intersections -b_1, ..., -b_r, where

    m/q = b_1 - 1/(b_2 - 1/(... - 1/b_r)),    all b_i >= 2.

Class T consists of the quotient singularities that admit a one-parameter
Q-Gorenstein smoothing of the germ: the rational double points A_r = [2,...,2]
together with the cyclic quotients 1/(d*n^2)(1, d*n*a - 1), gcd(a, n) = 1.
The non-RDP members are exactly the chains generated from the seeds

    [4]   and   [3, 2, ..., 2, 3]

by arbitrarily iterating the two end moves

    [b_1, ..., b_r] -> [2, b_1, ..., b_{r-1}, b_r + 1]      ("prepend")
    [b_1, ..., b_r] -> [b_1 + 1, b_2, ..., b_r, 2]          ("append")

Recognition inverts the moves: strip a leading 2 and decrement the tail, or
strip a trailing 2 and decrement the head, searching both branches until a
seed is reached or no reduction applies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Optional

RATIONAL_DOUBLE_POINT = "rational_double_point"
CLASS_T = "class_t"
NOT_CLASS_T = "not_class_t"

STEP_PREPEND = "prepend"
STEP_APPEND = "append"


@dataclass(frozen=True)
class CyclicQuotient:
    """The cyclic quotient singularity 1/m(1,q)."""

    m: int
    q: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"order m must be at least 2, got {self.m}")
        if not 1 <= self.q < self.m:
            raise ValueError(f"weight q must satisfy 1 <= q < m, got q={self.q}, m={self.m}")
        if gcd(self.m, self.q) != 1:
            raise ValueError(f"m={self.m} and q={self.q} must be coprime")


@dataclass(frozen=True)
class ResolutionChain:
    """A linear chain of self-intersections [-b_1, ..., -b_r], stored as b_i >= 2."""

    b: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", tuple(self.b))
        if not self.b:
            raise ValueError("chain must be nonempty")
        for entry in self.b:
            if not isinstance(entry, int) or entry < 2:
                raise ValueError(f"chain entries must be integers >= 2, got {entry!r}")

    def __len__(self) -> int:
        return len(self.b)

    def reversed(self) -> "ResolutionChain":
        return ResolutionChain(self.b[::-1])


@dataclass(frozen=True)
class TData:
    """Parameters (d, n, a) of the class-T quotient 1/(d*n^2)(1, d*n*a - 1).

    d is also the number of smoothing parameters of the singular point.
    """

    d: int
    n: int
    a: int

    def __post_init__(self) -> None:
        if self.d < 1 or self.n < 2 or self.a < 1:
            raise ValueError(f"need d >= 1, n >= 2, a >= 1, got {(self.d, self.n, self.a)}")
        if gcd(self.a, self.n) != 1:
            raise ValueError(f"a={self.a} and n={self.n} must be coprime")


@dataclass(frozen=True)
class ChainClassification:
    """Verdict of `recognize_class_t` for one chain.

    For class-T chains, `seed` and `reduction_trace` witness the generation:
    replaying the trace steps on the seed reproduces the input chain, and the
    seed length equals the parameter d.
    """

    chain: ResolutionChain
    kind: str
    tdata: Optional[TData] = None
    rdp_index: Optional[int] = None
    seed: Optional[ResolutionChain] = None
    reduction_trace: tuple[str, ...] = field(default_factory=tuple)

    def replay(self) -> Optional[ResolutionChain]:
        """Apply the recorded trace to the seed; None unless class T."""
        if self.kind != CLASS_T:
            return None
        chain = self.seed
        for step in self.reduction_trace:
            left, right = expand_t_chain(chain)
            chain = left if step == STEP_PREPEND else right
        return chain


def hj_expand(x: CyclicQuotient) -> ResolutionChain:
    """The unique continued-fraction chain of m/q with all entries >= 2."""
    m, q = x.m, x.q
    out = []
    while q:
        b = -(-m // q)
        out.append(b)
        m, q = q, b * q - m
    return ResolutionChain(tuple(out))


def hj_value(chain: ResolutionChain) -> CyclicQuotient:
    """Evaluate the chain's continued fraction back to a quotient 1/m(1,q)."""
    value = Fraction(chain.b[-1])
    for b in reversed(chain.b[:-1]):
        value = b - 1 / value
    return CyclicQuotient(value.numerator, value.denominator)


def expand_t_chain(chain: ResolutionChain) -> tuple[ResolutionChain, ResolutionChain]:
    """Both end moves applied to a chain, in (prepend, append) order."""
    b = chain.b
    left = ResolutionChain((2,) + b[:-1] + (b[-1] + 1,))
    right = ResolutionChain((b[0] + 1,) + b[1:] + (2,))
    return left, right


def _is_seed(b: tuple[int, ...]) -> bool:
    if b == (4,):
        return True
    return len(b) >= 2 and b[0] == 3 and b[-1] == 3 and all(x == 2 for x in b[1:-1])


@lru_cache(maxsize=None)
def _find_seed(b: tuple[int, ...]) -> Optional[tuple[tuple[int, ...], tuple[str, ...]]]:
    """Search both inverse end moves for a generation path down to a seed.

    Returns (seed, trace) such that replaying the trace on the seed gives b,
    or None when no reduction path reaches a seed.  Memoized globally; the
    cache is safe for concurrent use.
    """
    if _is_seed(b):
        return b, ()
    if len(b) >= 2:
        if b[0] == 2 and b[-1] >= 3:
            found = _find_seed(b[1:-1] + (b[-1] - 1,))
            if found is not None:
                return found[0], found[1] + (STEP_PREPEND,)
        if b[-1] == 2 and b[0] >= 3:
            found = _find_seed((b[0] - 1,) + b[1:-1])
            if found is not None:
                return found[0], found[1] + (STEP_APPEND,)
    return None


def _t_parameters(m: int, q: int) -> TData:
    """Solve d*n^2 = m, d*n*a - 1 = q over the divisors of m.

    The solution is unique for genuine class-T quotients; anything else is an
    internal error, not caller error.
    """
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
                hits.append(TData(d=d, n=n, a=a))
    if len(hits) != 1:
        raise RuntimeError(
            f"internal error: 1/{m}(1,{q}) admits {len(hits)} class-T parameter "
            f"solutions, expected exactly one"
        )
    return hits[0]


def recognize_class_t(chain: ResolutionChain) -> ChainClassification:
    """Classify a chain as A_r, class T with its (d, n, a), or neither.

    All-2 chains report as rational double points A_r even though RDPs also
    belong to class T; the two cases are bookkept separately downstream.
    """
    b = chain.b
    if all(x == 2 for x in b):
        return ChainClassification(chain=chain, kind=RATIONAL_DOUBLE_POINT, rdp_index=len(b))
    found = _find_seed(b)
    if found is None:
        return ChainClassification(chain=chain, kind=NOT_CLASS_T)
    seed, trace = found
    quotient = hj_value(chain)
    data = _t_parameters(quotient.m, quotient.q)
    if data.d != len(seed):
        raise RuntimeError(
            f"internal error: chain {b} reduces to seed {seed} but solves to d={data.d}"
        )
    return ChainClassification(
        chain=chain,
        kind=CLASS_T,
        tdata=data,
        seed=ResolutionChain(seed),
        reduction_trace=trace,
    )


def _seeds(max_length: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    if max_length >= 1:
        out.append((4,))
    for length in range(2, max_length + 1):
        out.append((3,) + (2,) * (length - 2) + (3,))
    return out


def generate_class_t(max_length: int) -> list[ResolutionChain]:
    """All non-RDP class-T chains of length <= max_length, each exactly once.

    Breadth-first expansion of each seed in turn.  No chain is reached twice,
    so nothing is deduplicated: the seed families are disjoint (the seed
    length is the invariant d), no move yields a seed (a prepend starts the
    chain with 2, an append ends it with 2), and every non-seed chain has
    exactly one inverse move (b[0] == 2 < b[-1] and b[-1] == 2 < b[0] exclude
    each other), hence exactly one parent.  So there are 2**(L+1) - 2 - L
    chains for max_length L.
    """
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    out: list[ResolutionChain] = []
    for seed in _seeds(max_length):
        queue = deque([ResolutionChain(seed)])
        while queue:
            chain = queue.popleft()
            out.append(chain)
            if len(chain) < max_length:
                queue.extend(expand_t_chain(chain))
    return out
