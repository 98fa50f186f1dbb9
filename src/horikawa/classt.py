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
strip a trailing 2 and decrement the head.  The two inverse moves exclude
each other (b_1 = 2 < b_r against b_r = 2 < b_1), so at most one applies at
each step and recognition is one walk inward from both ends, linear in the
chain length.  The walk stops at the first chain no move applies to, which
is class T exactly when it is a seed.  Along the trace, (n, a) starts at
(2, 1) on either seed; "append" maps it to (n + a, a) and "prepend" to
(2n - a, n), and d is the seed length.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from math import gcd
from typing import Iterable, Optional, Sequence

from ._record import Record

RATIONAL_DOUBLE_POINT = "rational_double_point"
CLASS_T = "class_t"
NOT_CLASS_T = "not_class_t"

STEP_PREPEND = "prepend"
STEP_APPEND = "append"


class CyclicQuotient(Record):
    """The cyclic quotient singularity 1/m(1,q)."""

    __slots__ = ("m", "q")
    m: int
    q: int

    def __init__(self, m: int, q: int) -> None:
        if m < 2:
            raise ValueError(f"order m must be at least 2, got {m}")
        if not 1 <= q < m:
            raise ValueError(f"weight q must satisfy 1 <= q < m, got q={q}, m={m}")
        if gcd(m, q) != 1:
            raise ValueError(f"m={m} and q={q} must be coprime")
        super().__init__(m, q)


class ResolutionChain(Record):
    """A linear chain of self-intersections [-b_1, ..., -b_r], stored as b_i >= 2."""

    __slots__ = ("b",)
    b: tuple[int, ...]

    def __init__(self, b: Iterable[int]) -> None:
        b = tuple(b)
        if not b:
            raise ValueError("chain must be nonempty")
        for entry in b:
            if not isinstance(entry, int) or entry < 2:
                raise ValueError(f"chain entries must be integers >= 2, got {entry!r}")
        object.__setattr__(self, "b", b)

    def __len__(self) -> int:
        return len(self.b)

    def reversed(self) -> "ResolutionChain":
        return ResolutionChain(self.b[::-1])


class TData(Record):
    """Parameters (d, n, a) of the class-T quotient 1/(d*n^2)(1, d*n*a - 1).

    d is also the number of smoothing parameters of the singular point.
    """

    __slots__ = ("d", "n", "a")
    d: int
    n: int
    a: int

    def __init__(self, d: int, n: int, a: int) -> None:
        if d < 1 or n < 2 or a < 1:
            raise ValueError(f"need d >= 1, n >= 2, a >= 1, got {(d, n, a)}")
        if gcd(a, n) != 1:
            raise ValueError(f"a={a} and n={n} must be coprime")
        super().__init__(d, n, a)


class ChainClassification(Record):
    """Verdict of `recognize_class_t` for one chain.

    For class-T chains, `seed` and `reduction_trace` witness the generation:
    replaying the trace steps on the seed reproduces the input chain, and the
    seed length equals the parameter d.
    """

    __slots__ = ("chain", "kind", "tdata", "rdp_index", "seed", "reduction_trace")
    chain: ResolutionChain
    kind: str
    tdata: Optional[TData]
    rdp_index: Optional[int]
    seed: Optional[ResolutionChain]
    reduction_trace: tuple[str, ...]

    def __init__(
        self,
        chain: ResolutionChain,
        kind: str,
        tdata: Optional[TData] = None,
        rdp_index: Optional[int] = None,
        seed: Optional[ResolutionChain] = None,
        reduction_trace: tuple[str, ...] = (),
    ) -> None:
        super().__init__(chain, kind, tdata, rdp_index, seed, reduction_trace)

    def replay(self) -> Optional[ResolutionChain]:
        """Apply the recorded trace to the seed; None unless class T."""
        if self.kind != CLASS_T:
            return None
        chain = deque(self.seed.b)
        for step in self.reduction_trace:
            if step == STEP_PREPEND:
                chain[-1] += 1
                chain.appendleft(2)
            else:
                chain[0] += 1
                chain.append(2)
        return ResolutionChain(tuple(chain))


def hj_expand(x: CyclicQuotient) -> ResolutionChain:
    """The unique continued-fraction chain of m/q with all entries >= 2."""
    m, q = x.m, x.q
    out = []
    while q:
        b = -(-m // q)
        out.append(b)
        m, q = q, b * q - m
    return ResolutionChain(tuple(out))


def _continuants(b: Sequence[int]) -> list[int]:
    """[K(), K(b_1), ..., K(b_1..b_r)] by K(b_1..b_i) = b_i*K(b_1..b_{i-1}) - K(b_1..b_{i-2})."""
    out = [1]
    prev, current = 0, 1
    for entry in b:
        prev, current = current, entry * current - prev
        out.append(current)
    return out


def hj_value(chain: ResolutionChain) -> CyclicQuotient:
    """Evaluate the chain's continued fraction back to a quotient 1/m(1,q).

    m = K(b_1..b_r) and q = K(b_2..b_r) are the last two continuants of the
    reversed chain (a continuant reads the same in either direction).
    Consecutive continuants are coprime, so m/q is already in lowest terms.
    """
    k = _continuants(chain.b[::-1])
    return CyclicQuotient(k[-1], k[-2])


def _end_moves(b: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both end moves applied to a chain's entries, in (prepend, append) order."""
    return (2,) + b[:-1] + (b[-1] + 1,), (b[0] + 1,) + b[1:] + (2,)


def expand_t_chain(chain: ResolutionChain) -> tuple[ResolutionChain, ResolutionChain]:
    """Both end moves applied to a chain, in (prepend, append) order."""
    left, right = _end_moves(chain.b)
    return ResolutionChain(left), ResolutionChain(right)


@lru_cache(maxsize=1024)
def _find_seed(b: tuple[int, ...]) -> Optional[tuple[tuple[int, ...], tuple[str, ...], int, int]]:
    """Undo end moves until none applies, then test for a seed.

    Walks two indices inward, keeping the current head and tail values, so
    it never copies the chain.  Returns (seed, trace, n, a), where replaying
    the trace on the seed gives b and (n, a) are carried along the trace, or
    None when the walk stops on a chain that is not a seed.  Memoized for
    the last 1024 chains; the cache is safe for concurrent use.
    """
    i, j = 0, len(b) - 1
    head, tail = b[i], b[j]
    undone = []
    while i < j:
        if head == 2 and tail >= 3:
            undone.append(STEP_PREPEND)
            i += 1
            tail -= 1
            head = b[i] if i < j else tail
        elif tail == 2 and head >= 3:
            undone.append(STEP_APPEND)
            j -= 1
            head -= 1
            tail = b[j] if i < j else head
        else:
            break
    if i == j:
        if head != 4:
            return None
        seed: tuple[int, ...] = (4,)
    else:
        if head != 3 or tail != 3 or any(b[k] != 2 for k in range(i + 1, j)):
            return None
        seed = (3,) + (2,) * (j - i - 1) + (3,)
    trace = tuple(reversed(undone))
    n, a = 2, 1
    for step in trace:
        n, a = (n + a, a) if step == STEP_APPEND else (2 * n - a, n)
    return seed, trace, n, a


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
    seed, trace, n, a = found
    d = len(seed)
    quotient = hj_value(chain)
    if (d * n * n, d * n * a - 1) != (quotient.m, quotient.q):
        raise RuntimeError(
            f"chain {b} reduces to seed {seed} with (d, n, a) = "
            f"{(d, n, a)}, which does not give 1/{quotient.m}(1,{quotient.q})"
        )
    return ChainClassification(
        chain=chain,
        kind=CLASS_T,
        tdata=TData(d=d, n=n, a=a),
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


def generate_class_t(max_length: int) -> list[tuple[int, ...]]:
    """All non-RDP class-T chains of length <= max_length, each exactly once.

    Each chain is the tuple of its entries b_i.  Breadth-first expansion of
    each seed in turn, one level (one chain length) at a time.  No chain is
    reached twice, so nothing is deduplicated: the seed families are
    disjoint (the seed length is the invariant d), no move yields a seed (a
    prepend starts the chain with 2, an append ends it with 2), and every
    non-seed chain has exactly one inverse move (b[0] == 2 < b[-1] and
    b[-1] == 2 < b[0] exclude each other), hence exactly one parent.  So
    there are 2**(L+1) - 2 - L chains for max_length L.  The end moves keep
    every entry an integer >= 2, so the chains are not checked again.
    """
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    out: list[tuple[int, ...]] = []
    for seed in _seeds(max_length):
        level = [seed]
        for _ in range(len(seed), max_length):
            out += level
            level = [child for b in level for child in _end_moves(b)]
        out += level
    return out
