"""Known answers for the benchmark, computed without importing `horikawa`.

Everything here is plain integer arithmetic written from the definitions:
continuants for Hirzebruch-Jung continued fractions, the two class-T end
moves, and closed forms of the construction.  A checker takes the exit code
and output text of one CLI call and returns None when the answer is right,
or a `Failure` saying what was wrong.

Failure kinds:
  wrong    the program answered, and the answer (or its exit code) is wrong
  refused  the program exited 2 where a known answer exists
  crash    an exception escaped the CLI
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

PREPEND = "prepend"
APPEND = "append"


@dataclass(frozen=True)
class Failure:
    kind: str  # "wrong", "refused" or "crash"
    detail: str


# --- continued fractions and the class-T moves ---------------------------


def cf_value(b) -> tuple[int, int]:
    """(m, q) with m/q = b1 - 1/(b2 - ... - 1/br), by the continuant recurrence."""
    p, q = b[-1], 1
    for x in reversed(b[:-1]):
        p, q = x * p - q, p
    return p, q


def seed(d: int) -> tuple[int, ...]:
    return (4,) if d == 1 else (3,) + (2,) * (d - 2) + (3,)


def move(b: tuple[int, ...], step: str) -> tuple[int, ...]:
    if step == PREPEND:
        return (2,) + b[:-1] + (b[-1] + 1,)
    return (b[0] + 1,) + b[1:] + (2,)


def replay(start: tuple[int, ...], trace) -> tuple[int, ...]:
    b = tuple(start)
    for step in trace:
        b = move(b, step)
    return b


def mirror(trace) -> list[str]:
    """The trace that generates the reversed chain from the reversed seed."""
    return [APPEND if s == PREPEND else PREPEND for s in trace]


def all_class_t(max_length: int) -> set[tuple[int, ...]]:
    """Every non-RDP class-T chain of length <= max_length."""
    out: set[tuple[int, ...]] = set()
    for d in range(1, max_length + 1):
        level = {seed(d)}
        while level:
            out |= level
            level = {move(b, s) for b in level if len(b) < max_length for s in (PREPEND, APPEND)}
    return out


def discrepancy_error(b, disc) -> Optional[str]:
    """Check (d_i) against the chain's own equations, not by solving them."""
    r = len(b)
    if len(disc) != r:
        return f"{len(disc)} discrepancies for a chain of length {r}"
    for j in range(r):
        left = disc[j - 1] if j > 0 else 0
        right = disc[j + 1] if j < r - 1 else 0
        if -b[j] * disc[j] + left + right != 2 - b[j]:
            return f"discrepancies {disc} violate equation {j} of chain {b}"
    if not all(0 <= x < 1 for x in disc):
        return f"discrepancies {disc} outside [0, 1)"
    return None


# --- generic output handling ---------------------------------------------


def _rational(value) -> Fraction:
    return Fraction(value["num"], value["den"])


def _expect_rc(rc: Optional[int], expected: int, err: str) -> Optional[Failure]:
    if rc is None or "Traceback" in err:
        return Failure("crash", err.strip().splitlines()[-1] if err.strip() else "no exit code")
    if rc == expected:
        return None
    if rc == 2:
        return Failure("refused", f"exit 2: {err.strip()[:200]}")
    return Failure("wrong", f"exit {rc}, expected {expected}")


def _json_report(rc, out, err, command) -> tuple[Optional[Failure], Optional[dict]]:
    fail = _expect_rc(rc, 0, err)
    if fail:
        return fail, None
    try:
        payload = json.loads(out)
    except ValueError as exc:
        return Failure("wrong", f"output is not JSON: {exc}"), None
    if payload.get("command") != command:
        return Failure("wrong", f"command {payload.get('command')!r}, expected {command!r}"), None
    if payload.get("verdict") != "pass" or not all(i["pass"] for i in payload["identities"]):
        bad = [i["name"] for i in payload["identities"] if not i["pass"]]
        return Failure("wrong", f"verdict {payload.get('verdict')}, failed identities {bad}"), None
    return None, payload


def _text_report(rc, out, err, command) -> Optional[Failure]:
    fail = _expect_rc(rc, 0, err)
    if fail:
        return fail
    lines = out.splitlines()
    if not lines or lines[0] != f"command: {command}" or lines[-1] != "verdict: pass":
        return Failure("wrong", f"text report malformed: {lines[:1]} ... {lines[-1:]}")
    if "[FAIL]" in out:
        return Failure("wrong", "text report lists a failed identity")
    return None


def _need(cond: bool, detail: str) -> Optional[Failure]:
    return None if cond else Failure("wrong", detail)


def _first(*checks) -> Optional[Failure]:
    for c in checks:
        if c is not None:
            return c
    return None


def _text_list(values) -> str:
    return "[" + ", ".join(str(v) for v in values) + "]"


def _text_invariants(inv: tuple[int, int, int, int, int]) -> str:
    p_g, q, chi, k2, e = inv
    return f"{{p_g={p_g}, q={q}, chi={chi}, K2={k2}, e={e}}}"


def horikawa_invariants(n: int) -> tuple[int, int, int, int, int]:
    """(p_g, q, chi, K^2, e) of H(n): on the Noether line K^2 = 2 p_g - 4."""
    return (n - 1, 0, n, 2 * n - 6, 10 * n + 6)


def _invariant_tuple(d: dict) -> tuple:
    return (d["p_g"], d["q"], d["chi"], d["K2"], d["e"])


# --- en-report ------------------------------------------------------------


def check_en_report_json(n: int, rc, out, err) -> Optional[Failure]:
    fail, p = _json_report(rc, out, err, "en-report")
    if fail:
        return fail
    inv = p["invariants"]
    chain = [n] + [2] * (n - 4)
    cls = inv["chain_classification"]
    gram = inv["chain_gram"]
    tridiagonal = all(
        gram[i][j] == (-chain[i] if i == j else 1 if abs(i - j) == 1 else 0)
        for i in range(len(chain))
        for j in range(len(chain))
    )
    quotient = next(i for i in p["identities"] if i["name"] == "chain_quotient")["computed"]
    mismatch = any(f.get("name") == "adjoint_square_mismatch" for f in p["flags"])
    return _first(
        _need(p["inputs"] == {"n": n}, f"inputs {p['inputs']}"),
        _need(inv["chain"] == chain, f"chain {inv['chain'][:4]}..."),
        _need(
            (cls["kind"], cls["d"], cls["n"], cls["a"]) == ("class_t", 1, n - 2, 1),
            f"(d, n, a) = {(cls.get('d'), cls.get('n'), cls.get('a'))}, expected (1, {n - 2}, 1)",
        ),
        _need(
            quotient == list(cf_value(chain)) == [(n - 2) ** 2, n - 3],
            f"quotient {quotient}",
        ),
        _need(tridiagonal and len(gram) == len(chain), "chain Gram matrix is not the chain's"),
        _need(
            _invariant_tuple(inv["general_fiber"]) == horikawa_invariants(n),
            f"general fiber {inv['general_fiber']}",
        ),
        _need(mismatch == (n != 5), f"adjoint_square_mismatch flag {mismatch} at n={n}"),
    )


def check_en_report_text(n: int, rc, out, err) -> Optional[Failure]:
    fiber = "  general_fiber: " + _text_invariants(horikawa_invariants(n))
    tdata = f'["class_t", 1, {n - 2}, 1]'
    lines = out.splitlines()
    return _first(
        _text_report(rc, out, err, "en-report"),
        _need(fiber in lines, f"no line {fiber!r}"),
        _need(
            f"  [pass] chain_class_t: expected {tdata}, computed {tdata} (published)" in lines,
            "chain_class_t line missing",
        ),
        _need(
            any(line.startswith("  adjoint_square_mismatch:") for line in lines) == (n != 5),
            f"adjoint_square_mismatch flag wrong at n={n}",
        ),
    )


# --- class-T recognition and smoothing -------------------------------------


@dataclass(frozen=True)
class ClassTChain:
    """A chain built by replaying `trace` on the seed of length d."""

    d: int
    trace: tuple[str, ...]

    @property
    def seed(self) -> tuple[int, ...]:
        return seed(self.d)

    @property
    def b(self) -> tuple[int, ...]:
        return replay(self.seed, self.trace)


def _classification_error(b, c: dict, d: int, start, trace) -> Optional[str]:
    m, q = cf_value(b)
    r = len(b)
    if sum(x - 2 for x in b) != r - d + 2:
        return f"oracle fault: sum(b-2) != r-d+2 for {b}"
    if c.get("kind") != "class_t" or c.get("chain") != list(b):
        return f"kind {c.get('kind')} for chain {list(b)}"
    if c["d"] != d or c["seed"] != list(start) or c["trace"] != list(trace):
        return f"seed {c['seed']} trace {c['trace']}, expected {list(start)} {list(trace)}"
    if replay(c["seed"], c["trace"]) != tuple(b):
        return "reported trace does not replay to the chain"
    n, a = c["n"], c["a"]
    if d * n * n != m or d * n * a - 1 != q or gcd(a, n) != 1:
        return f"(d, n, a) = {(d, n, a)} does not give 1/{m}(1,{q})"
    return None


def check_recognize_json(chain: ClassTChain, rc, out, err) -> Optional[Failure]:
    fail, p = _json_report(rc, out, err, "class-t recognize")
    if fail:
        return fail
    b = chain.b
    c = p["invariants"]["classification"]
    problem = _classification_error(b, c, chain.d, chain.seed, chain.trace) or (
        _classification_error(b[::-1], c["reversed"], chain.d, chain.seed[::-1], mirror(chain.trace))
    )
    return _need(problem is None, str(problem))


def check_recognize_text(chain: ClassTChain, rc, out, err) -> Optional[Failure]:
    fail = _text_report(rc, out, err, "class-t recognize")
    if fail:
        return fail
    b = chain.b
    m, q = cf_value(b)
    head = f'  classification: {{chain={_text_list(b)}, kind="class_t", d={chain.d}, n='
    line = next((x for x in out.splitlines() if x.startswith(head)), None)
    if line is None:
        return Failure("wrong", f"no line starting {head!r}")
    n, a = map(int, re.match(r"(\d+), a=(\d+)", line[len(head):]).groups())
    return _need(
        chain.d * n * n == m and chain.d * n * a - 1 == q,
        f"(d, n, a) = {(chain.d, n, a)} does not give 1/{m}(1,{q})",
    )


def check_not_class_t(b, rc, out, err) -> Optional[Failure]:
    fail, p = _json_report(rc, out, err, "class-t recognize")
    if fail:
        return fail
    c = p["invariants"]["classification"]
    return _first(
        _need(sum(x - 2 for x in b) == len(b) + 2, f"oracle fault: {b} is not a hard negative"),
        _need(c["kind"] == "not_class_t", f"kind {c['kind']} for a chain with sum(b-2) = r+2"),
        _need(c["reversed"]["kind"] == "not_class_t", "reversed chain not reported not_class_t"),
    )


def check_blowdown_refused(b, rc, out, err) -> Optional[Failure]:
    if rc is None or "Traceback" in err:
        return Failure("crash", err.strip()[-200:])
    return _need(rc == 2 and not out, f"blowdown of non-class-T {list(b)} gave exit {rc}")


def check_blowdown_json(chain: ClassTChain, chi: int, copies: int, rc, out, err) -> Optional[Failure]:
    fail, p = _json_report(rc, out, err, "blowdown")
    if fail:
        return fail
    b, d = chain.b, chain.d
    r = len(b)
    fiber = p["invariants"]["general_fiber"]
    expected_fiber = {
        "p_g": None,
        "q": None,
        "chi": chi,
        "K2": copies * (r - d + 1),
        "e": 12 * chi - copies * (r + 1 - d),
    }
    per_chain = p["invariants"]["per_chain"]
    problems = [_need(fiber == expected_fiber, f"general fiber {fiber}, expected {expected_fiber}")]
    problems.append(_need(len(per_chain) == copies, f"{len(per_chain)} contributions"))
    for c in per_chain:
        disc = [_rational(x) for x in c["discrepancies"]]
        problem = discrepancy_error(b, disc)
        problems.append(_need(problem is None, str(problem)))
        problems.append(
            _need(
                _rational(c["k2_correction"]) == r - d + 1 == sum(x * (y - 2) for x, y in zip(disc, b)),
                f"K^2 correction {c['k2_correction']}, expected {r - d + 1}",
            )
        )
        problems.append(_need(c["euler_drop"] == r + 1 - d, f"Euler drop {c['euler_drop']}"))
    return _first(*problems)


# --- class-T generation ---------------------------------------------------


_GENERATED: dict[int, set] = {}


def check_generate_json(max_length: int, rc, out, err) -> Optional[Failure]:
    fail, p = _json_report(rc, out, err, "class-t generate")
    if fail:
        return fail
    chains = [tuple(c) for c in p["invariants"]["chains"]]
    count = 2 ** (max_length + 1) - 2 - max_length
    if max_length not in _GENERATED:
        _GENERATED[max_length] = all_class_t(max_length)
    per_length = [0] * (max_length + 1)
    for c in chains:
        per_length[min(len(c), max_length)] += 1
    return _first(
        _need(p["invariants"]["count"] == len(chains) == count, f"count {len(chains)}, expected {count}"),
        _need(len(set(chains)) == len(chains), "a chain repeats"),
        _need(
            per_length[1:] == [2**r - 1 for r in range(1, max_length + 1)],
            f"chains per length {per_length[1:]}",
        ),
        _need(set(chains) == _GENERATED[max_length], "chain set differs from the forward moves"),
    )


# --- small commands of the CLI walkthrough ------------------------------------


def check_hj_mq_text(m: int, q: int, rc, out, err) -> Optional[Failure]:
    fail = _text_report(rc, out, err, "hj")
    if fail:
        return fail
    line = next((x for x in out.splitlines() if x.startswith("  chain: [")), "")
    chain = [int(x) for x in re.findall(r"\d+", line)]
    return _need(
        bool(chain) and min(chain) >= 2 and cf_value(chain) == (m, q),
        f"chain {chain} does not expand 1/{m}(1,{q})",
    )


def check_hj_chain_json(b, rc, out, err) -> Optional[Failure]:
    fail, p = _json_report(rc, out, err, "hj")
    if fail:
        return fail
    m, q = cf_value(b)
    got = p["invariants"]["quotient"]
    return _need(got == {"m": m, "q": q}, f"quotient {got}, expected 1/{m}(1,{q})")


def check_expand_json(chain: ClassTChain, rc, out, err) -> Optional[Failure]:
    fail, p = _json_report(rc, out, err, "class-t expand")
    if fail:
        return fail
    inv = p["invariants"]
    b = chain.b
    kids = {
        "prepend": (move(b, PREPEND), inv["prepend_child"], inv["prepend_classification"]),
        "append": (move(b, APPEND), inv["append_child"], inv["append_classification"]),
    }
    problems = []
    for step, (want, got, cls) in kids.items():
        problem = _classification_error(want, cls, chain.d, chain.seed, chain.trace + (step,))
        problems.append(_need(got == list(want) and problem is None, f"{step} child: {problem}"))
    return _first(*problems)


def check_horikawa(n: int, as_json: bool, rc, out, err) -> Optional[Failure]:
    want = horikawa_invariants(n)
    if not as_json:
        line = "  invariants: " + _text_invariants(want)
        return _first(
            _text_report(rc, out, err, "horikawa"),
            _need(line in out.splitlines(), f"no line {line!r}"),
        )
    fail, p = _json_report(rc, out, err, "horikawa")
    return fail or _need(
        _invariant_tuple(p["invariants"]["invariants"]) == want,
        f"H({n}) invariants {p['invariants']['invariants']}",
    )


def check_w4(count: int, rc, out, err) -> Optional[Failure]:
    fail, p = _json_report(rc, out, err, "w4")
    if fail:
        return fail
    k2 = count  # each (-4)-section adds r - d + 1 = 1
    return _first(
        _need(
            _invariant_tuple(p["invariants"]["general_fiber"]) == (3, 0, 4, k2, 48 - count),
            f"general fiber {p['invariants']['general_fiber']}",
        ),
        _need(p["invariants"]["noether_margin"] == k2 - 2, "Noether margin"),
    )


def check_single_contraction(n: int, rc, out, err) -> Optional[Failure]:
    fail, p = _json_report(rc, out, err, "single-contraction")
    if fail:
        return fail
    want = (n - 1, 0, n, n - 3, 11 * n + 3)
    return _first(
        _need(
            _invariant_tuple(p["invariants"]["hypothetical_fiber"]) == want,
            f"fiber {p['invariants']['hypothetical_fiber']}, expected {want}",
        ),
        _need(p["invariants"]["noether_margin"] == 3 - n, "Noether margin"),
    )


def check_configuration_recognize(n: int, rc, out, err) -> Optional[Failure]:
    """[n, 2, ..., 2] is 1/(n-2)^2 (1, n-3) = (d, n, a) = (1, n-2, 1), reached by n-4 appends."""
    chain = ClassTChain(1, (APPEND,) * (n - 4))
    return check_recognize_json(chain, rc, out, err)
