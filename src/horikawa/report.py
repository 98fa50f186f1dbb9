"""The report every subcommand prints, and its two encodings.

A report is an identity ledger plus flagged findings and raw invariants.  Its
JSON shape is fixed:

    {"command", "inputs", "identities": [{"name", "expected", "computed",
     "pass", "provenance"}], "flags": [...], "invariants": {...}, "verdict"}

Each identity carries a provenance tag: "published" for values stated by the
construction being re-verified, "derived" for values this tool derives,
"trivial" for built-in algebra.  The verdict is "pass" exactly when every
published identity passes; flags never affect it.  Exact rationals are written
as {"num": ..., "den": ...} in JSON and as num/den in text.  JSON comes from a
writer for exactly the report's types, byte-identical to `json.dumps(indent=2)`;
both refuse a float or other foreign scalar, and a non-str key, by TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import IO, TYPE_CHECKING, Optional

from ._record import Record
from .classt import CLASS_T

if TYPE_CHECKING:
    from .blowdown import SmoothedFiberInvariants
    from .classt import ChainClassification
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


_CHUNK = 10**500
_INT_ONLY = {int}


def _decimal(value: int) -> str:
    """An int in decimal, as `int.__repr__` writes it, at any length.

    CPython refuses to convert an int of more than
    `sys.get_int_max_str_digits()` digits, a guard on parsing untrusted
    text.  An exact answer may be that long, so past the limit it is written
    in chunks of 500 digits, below any limit the interpreter accepts;
    nothing global is changed.
    """
    try:
        return int.__repr__(value)
    except ValueError:
        pass
    rest = abs(value)
    chunks = []
    while rest:
        rest, chunk = divmod(rest, _CHUNK)
        chunks.append(int.__repr__(chunk).zfill(500))
    return ("-" if value < 0 else "") + "".join(reversed(chunks)).lstrip("0")


def _json(value: object, pad: str) -> str:
    """One value as `json.dumps(indent=2)` writes it at indentation `pad`."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return _decimal(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        if set(map(type, value)) == _INT_ONLY:
            try:
                items = list(map(int.__repr__, value))
            except ValueError:
                items = list(map(_decimal, value))
        else:
            items = [_json(x, inner) for x in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        items = []
        for key, item in value.items():
            items.append(_quote(_str_key(key)) + ": " + _json(item, inner))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is Fraction:
        inner = pad + "  "
        num, den = _decimal(value.numerator), _decimal(value.denominator)
        return f'{{\n{inner}"num": {num},\n{inner}"den": {den}\n{pad}}}'
    raise TypeError(f"cannot serialize {value!r}")


def _str_key(key: object) -> str:
    """A dict key as both writers accept it: only a `str` is a key."""
    if type(key) is not str:
        raise TypeError(f"cannot serialize key {key!r}")
    return key


def write_json(body: dict, out: IO[str]) -> None:
    """Build the whole text first, so an encoding failure writes nothing."""
    out.write(_json(body, "") + "\n")


def _fmt(value: object) -> str:
    """Compact text rendering of one report value."""
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_str_key(k)}={_fmt(v)}" for k, v in value.items()) + "}"
    if type(value) is Fraction:
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
    return _json(value, "")


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
