"""Seeded inputs for the four workloads.

A workload is an endless stream of rounds.  A round is a list of `Op`s: the
argv the CLI receives, the checker that knows its answer, and the sizes the
scaling table records.  Every round holds the same fixed list of sizes, so
any run of whole rounds has the stated size mix exactly and its latency
quantiles and throughput move with the program, not with the draw.  The
seed drives the order inside each round and whatever the size does not fix
(traces, seed lengths, end entries, quotients), through `random.Random`
seeded by workload and seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from math import gcd, log2
from typing import Callable, Iterator, Optional

import oracles
from oracles import APPEND, PREPEND, ClassTChain, Failure

WORKLOADS = ("en_sweep", "classt_recognize", "classt_generate", "cli_oneshot")

# Workloads that call horikawa.cli.run in the worker; cli_oneshot spawns the CLI.
IN_PROCESS = ("en_sweep", "classt_recognize", "classt_generate")


@dataclass
class Op:
    argv: list[str]
    check: Callable[[Optional[int], str, str], Optional[Failure]]
    size: dict = field(default_factory=dict)
    # A refusal whose message contains this is a known failure of the
    # program: it counts as failed, but does not make the run incorrect.
    known_refusal: Optional[str] = None


def _chain_arg(b) -> str:
    return ",".join(map(str, b))


# --- en_sweep ---------------------------------------------------------------

# 17 of 25 from 5..30, 8 from 31..100.  The count is odd, so the median
# (n = 23) and the 90th percentile (n = 81) fall inside a group of equal
# sizes rather than on the edge between two.
EN_SIZES = (5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 23, 25, 26, 28, 30,
            31, 41, 51, 61, 71, 81, 91, 100)


def en_op(n: int) -> Op:
    return Op(
        ["en-report", "--n", str(n), "--json"],
        partial(oracles.check_en_report_json, n),
        {"n": n},
    )


def _en_sweep(rng: random.Random) -> Iterator[list[Op]]:
    while True:
        ops = [en_op(n) for n in EN_SIZES]
        rng.shuffle(ops)
        yield ops


# --- classt_recognize -------------------------------------------------------

# Chains are grown until log2(m) lands in [target, target + WINDOW), so the
# cost of the O(sqrt m) parameter solve is fixed by the target to within
# 2**(WINDOW/2), whatever the trace.
LOG2M_RANGE = (12.0, 44.0)
WINDOW = 0.25
MIN_LENGTH = 8
MAX_LENGTH = 40


def class_t_chain(rng: random.Random, target: float) -> ClassTChain:
    """A random class-T chain of length >= MIN_LENGTH with log2(m) near target."""
    while True:
        d = rng.randint(1, 4)
        b = oracles.seed(d)
        trace: list[str] = []
        while len(b) < MAX_LENGTH:
            step = rng.choice((PREPEND, APPEND))
            b = oracles.move(b, step)
            trace.append(step)
            lg = log2(oracles.cf_value(b)[0])
            if lg >= target:
                if len(b) >= MIN_LENGTH and lg < target + WINDOW:
                    return ClassTChain(d, tuple(trace))
                break


def _chain_size(b, d: Optional[int] = None) -> dict:
    size = {"r": len(b), "m_bits": oracles.cf_value(b)[0].bit_length()}
    if d is not None:
        size["d"] = d
    return size


def _targets(count: int) -> list[float]:
    """`count` log2(m) targets, one in the middle of each of `count` equal parts of LOG2M_RANGE."""
    lo, hi = LOG2M_RANGE
    return [lo + (k + 0.5) / count * (hi - lo) for k in range(count)]


# Per round: 20 class-T chains and 5 hard negatives, each run through
# recognize and then blowdown: 50 ops.  The three chains with the largest m
# share one target, so the top tenth of a round (five ops) is their three
# blowdowns and two of their three recognitions, and the 90th percentile is
# read inside that group of like calls rather than on the edge between two
# sizes.  (Blowdown costs about 1.35 times recognize; the next target down
# is 3.2 bits lower, so its calls cost about half as much.)
_EVEN = _targets(20)
POSITIVE_TARGETS = _EVEN[:17] + [_EVEN[18]] * 3
NEGATIVE_TARGETS = _targets(5)


def _recognize_pair(rng: random.Random, target: float, negative: bool) -> list[Op]:
    chain = class_t_chain(rng, target)
    b, d = chain.b, chain.d
    chi = rng.randint(1, 30)
    if negative:
        # Raising an end entry by d makes sum(b_i - 2) = r + 2, which no
        # class-T chain (sum = r - d + 2, d >= 1) can have.
        b = (b[0] + d,) + b[1:] if rng.random() < 0.5 else b[:-1] + (b[-1] + d,)
        recognize = partial(oracles.check_not_class_t, b)
        blowdown = partial(oracles.check_blowdown_refused, b)
        size = _chain_size(b)
    else:
        recognize = partial(oracles.check_recognize_json, chain)
        blowdown = partial(oracles.check_blowdown_json, chain, chi, 2)
        size = _chain_size(b, d)
    return [
        Op(["class-t", "recognize", "--chain", _chain_arg(b), "--json"], recognize, size),
        Op(["blowdown", "--chi", str(chi), "--k2", "0", "--euler", str(12 * chi),
            "--chain", _chain_arg(b), "--chain", _chain_arg(b), "--json"], blowdown, size),
    ]


def _classt_recognize(rng: random.Random) -> Iterator[list[Op]]:
    slots = [(t, False) for t in POSITIVE_TARGETS] + [(t, True) for t in NEGATIVE_TARGETS]
    while True:
        rng.shuffle(slots)
        yield [op for target, negative in slots for op in _recognize_pair(rng, target, negative)]


# --- classt_generate --------------------------------------------------------

# One round of 20.  The median falls inside the five L=9 calls and the
# 90th percentile inside the three L=12 calls, not on a jump between sizes.
GENERATE_SIZES = (6, 6, 7, 7, 8, 8, 8, 9, 9, 9, 9, 9, 10, 10, 11, 11, 12, 12, 12, 13)


def generate_op(max_length: int) -> Op:
    return Op(
        ["class-t", "generate", "--max-length", str(max_length), "--json"],
        partial(oracles.check_generate_json, max_length),
        {"L": max_length},
    )


def _classt_generate(rng: random.Random) -> Iterator[list[Op]]:
    while True:
        ops = [generate_op(L) for L in GENERATE_SIZES]
        rng.shuffle(ops)
        yield ops


# --- cli_oneshot ------------------------------------------------------------

# The README's walkthrough, plus recognition of configuration chains
# [n, 2, ..., 2] with n spread over 5..1500, which a fresh process (empty
# seed cache) must reduce in one recursive descent.  One round of 20
# processes: (kind, n), where None leaves the input to the seed.
ONESHOT_ROUND = (
    ("hj_mq", None), ("hj_mq", None), ("hj_chain", None),
    ("recognize_text", None), ("recognize_text", None), ("expand", None),
    ("en_text", 5), ("en_text", 9), ("en_json", 7), ("en_json", 12),
    ("horikawa", 19), ("horikawa", 49), ("blowdown", 14), ("blowdown", 32),
    ("w4", None), ("single", 22),
    ("configuration", 192), ("configuration", 566), ("configuration", 940), ("configuration", 1313),
)


def _small_chain(rng: random.Random) -> ClassTChain:
    d = rng.randint(1, 3)
    return ClassTChain(d, tuple(rng.choice((PREPEND, APPEND)) for _ in range(rng.randint(0, 6))))


def oneshot_op(kind: str, n: Optional[int], rng: random.Random) -> Op:
    if kind == "hj_mq":
        m = rng.randint(2, 10**6)
        q = rng.randint(1, m - 1)
        while gcd(m, q) != 1:
            q = rng.randint(1, m - 1)
        return Op(["hj", "--m", str(m), "--q", str(q)], partial(oracles.check_hj_mq_text, m, q), {"m_bits": m.bit_length()})
    if kind == "hj_chain":
        b = tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 8)))
        return Op(["hj", "--chain", _chain_arg(b), "--json"], partial(oracles.check_hj_chain_json, b), _chain_size(b))
    if kind == "recognize_text":
        c = _small_chain(rng)
        return Op(["class-t", "recognize", "--chain", _chain_arg(c.b)], partial(oracles.check_recognize_text, c), _chain_size(c.b, c.d))
    if kind == "expand":
        c = _small_chain(rng)
        return Op(["class-t", "expand", "--chain", _chain_arg(c.b), "--json"], partial(oracles.check_expand_json, c), _chain_size(c.b, c.d))
    if kind in ("en_text", "en_json"):
        if kind == "en_json":
            return en_op(n)
        return Op(["en-report", "--n", str(n)], partial(oracles.check_en_report_text, n), {"n": n})
    if kind == "horikawa":
        as_json = rng.random() < 0.5
        return Op(["horikawa", "--n", str(n)] + ["--json"] * as_json, partial(oracles.check_horikawa, n, as_json), {"n": n})
    if kind == "blowdown":
        b = (n,) + (2,) * (n - 4)
        chain = ClassTChain(1, (APPEND,) * (n - 4))
        return Op(
            ["blowdown", "--chi", str(n), "--k2", "0", "--euler", str(12 * n),
             "--chain", _chain_arg(b), "--chain", _chain_arg(b), "--json"],
            partial(oracles.check_blowdown_json, chain, n, 2),
            {"n": n},
        )
    if kind == "w4":
        count = rng.choice((1, 2))
        return Op(["w4", "--count", str(count), "--json"], partial(oracles.check_w4, count), {})
    if kind == "single":
        return Op(["single-contraction", "--n", str(n), "--json"], partial(oracles.check_single_contraction, n), {"n": n})
    b = (n,) + (2,) * (n - 4)
    return Op(
        ["class-t", "recognize", "--chain", _chain_arg(b), "--json"],
        partial(oracles.check_configuration_recognize, n),
        {"n": n, "r": n - 3},
        # A fresh process reduces the chain by recursion one level per
        # entry; for long chains the CLI reports the RecursionError as
        # invalid input.  That defect is the program's and stays visible
        # as a failure.
        known_refusal="maximum recursion depth exceeded",
    )


def _cli_oneshot(rng: random.Random) -> Iterator[list[Op]]:
    while True:
        ops = []
        for kind, n in ONESHOT_ROUND:
            op = oneshot_op(kind, n, rng)
            op.size["kind"] = kind
            ops.append(op)
        rng.shuffle(ops)
        yield ops


_STREAMS = {
    "en_sweep": _en_sweep,
    "classt_recognize": _classt_recognize,
    "classt_generate": _classt_generate,
    "cli_oneshot": _cli_oneshot,
}


def stream(workload: str, seed: int) -> Iterator[list[Op]]:
    """The workload's rounds of operations; the same seed gives the same ops."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))


# Untimed calls that load every code path a workload's timed ops take.
WARMUP = {
    "en_sweep": [en_op(5), en_op(6)],
    "classt_recognize": [
        Op(["class-t", "recognize", "--chain", "6,2,2", "--json"], partial(oracles.check_recognize_json, ClassTChain(1, (APPEND, APPEND)))),
        Op(["blowdown", "--chi", "4", "--k2", "0", "--euler", "48", "--chain", "4", "--json"], partial(oracles.check_blowdown_json, ClassTChain(1, ()), 4, 1)),
    ],
    "classt_generate": [generate_op(4), generate_op(5)],
    "cli_oneshot": [Op(["hj", "--m", "9", "--q", "2"], partial(oracles.check_hj_mq_text, 9, 2))],
}
