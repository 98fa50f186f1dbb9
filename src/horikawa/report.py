"""The report every subcommand prints, and its two encodings.

A report is an identity ledger plus flagged findings and raw invariants.  Its
JSON shape is fixed:

    {"command", "inputs", "identities": [{"name", "expected", "computed",
     "pass", "provenance"}], "flags": [...], "invariants": {...}, "verdict"}

Each identity carries a provenance tag: "published" for values stated by the
construction being re-verified, "derived" for values this tool derives,
"trivial" for built-in algebra.  The verdict is "pass" exactly when every
published identity passes; flags never affect it.  Exact rationals are written
as {"num": ..., "den": ...} in JSON and as num/den in text; no floats anywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import IO, Optional

from ._record import Record
from .blowdown import SmoothedFiberInvariants
from .classt import CLASS_T, ChainClassification
from .covers import SurfaceInvariants

PUBLISHED = "published"
DERIVED = "derived"
TRIVIAL = "trivial"


class Identity(Record):
    __slots__ = ("name", "expected", "computed", "passed", "provenance")
    name: str
    expected: object
    computed: object
    passed: bool
    provenance: str


def check(name: str, expected: object, computed: object, provenance: str) -> Identity:
    return Identity(name, expected, computed, expected == computed, provenance)


class EnReport(Record):
    """One pipeline run: inputs, identity ledger, flagged findings, raw data.

    Omitted `invariants` start as a fresh empty dict per report.
    """

    __slots__ = ("inputs", "identities", "flags", "invariants")
    inputs: dict
    identities: tuple[Identity, ...]
    flags: tuple[dict, ...]
    invariants: dict

    def __init__(
        self,
        inputs: dict,
        identities: tuple[Identity, ...],
        flags: tuple[dict, ...] = (),
        invariants: Optional[dict] = None,
    ) -> None:
        super().__init__(inputs, identities, flags, {} if invariants is None else invariants)

    @property
    def verdict(self) -> str:
        published_ok = all(
            i.passed for i in self.identities if i.provenance == PUBLISHED
        )
        return "pass" if published_ok else "fail"

    @property
    def all_passed(self) -> bool:
        return all(i.passed for i in self.identities)

    def failures(self) -> tuple[Identity, ...]:
        """The identities that did not pass, in ledger order."""
        return tuple(i for i in self.identities if not i.passed)

    def identity(self, name: str) -> Identity:
        for i in self.identities:
            if i.name == name:
                return i
        raise KeyError(name)


def invariants_dict(inv: SurfaceInvariants) -> dict:
    return {"p_g": inv.p_g, "q": inv.q, "chi": inv.chi, "K2": inv.K2, "e": inv.e}


def classification_dict(cls: ChainClassification) -> dict:
    out: dict = {"chain": list(cls.chain.b), "kind": cls.kind}
    if cls.kind == CLASS_T:
        out.update({"d": cls.tdata.d, "n": cls.tdata.n, "a": cls.tdata.a})
        out["seed"] = list(cls.seed.b)
        out["trace"] = list(cls.reduction_trace)
    if cls.rdp_index is not None:
        out["rdp_index"] = cls.rdp_index
    return out


def contribution_dicts(smoothed: SmoothedFiberInvariants) -> list[dict]:
    return [
        {
            "chain": list(c.classification.chain.b),
            "discrepancies": list(c.discrepancies),
            "k2_correction": c.k2_correction,
            "euler_drop": c.euler_drop,
        }
        for c in smoothed.contributions
    ]


def payload(command: str, report: EnReport) -> dict:
    """The report in its fixed shape; values keep their Python types."""
    return {
        "command": command,
        "inputs": report.inputs,
        "identities": [
            {
                "name": i.name,
                "expected": i.expected,
                "computed": i.computed,
                "pass": i.passed,
                "provenance": i.provenance,
            }
            for i in report.identities
        ],
        "flags": report.flags,
        "invariants": report.invariants,
        "verdict": report.verdict,
    }


def _rational(value: object) -> dict:
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    raise TypeError(f"cannot serialize {value!r}")


def write_json(body: dict, out: IO[str]) -> None:
    out.write(json.dumps(body, indent=2, default=_rational) + "\n")


def _fmt(value: object) -> str:
    """Compact text rendering of one report value."""
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}={_fmt(v)}" for k, v in value.items()) + "}"
    if type(value) is Fraction:
        return f"{value.numerator}/{value.denominator}"
    return json.dumps(value)


def write_text(body: dict, out: IO[str]) -> None:
    """Render the whole text first, so a rendering failure writes nothing."""
    lines: list[str] = []
    write = lines.append
    write(f"command: {body['command']}\n")
    inputs = " ".join(f"{k}={_fmt(v)}" for k, v in body["inputs"].items())
    write(f"inputs: {inputs}\n")
    if body["identities"]:
        write("identities:\n")
        for row in body["identities"]:
            status = "pass" if row["pass"] else "FAIL"
            write(
                f"  [{status}] {row['name']}: expected {_fmt(row['expected'])}, "
                f"computed {_fmt(row['computed'])} ({row['provenance']})\n"
            )
    if body["flags"]:
        write("flags:\n")
        for flag in body["flags"]:
            rest = " ".join(f"{k}={_fmt(v)}" for k, v in flag.items() if k != "name")
            write(f"  {flag.get('name', 'flag')}: {rest}\n")
    if body["invariants"]:
        write("invariants:\n")
        for key, value in body["invariants"].items():
            write(f"  {key}: {_fmt(value)}\n")
    write(f"verdict: {body['verdict']}\n")
    out.write("".join(lines))
