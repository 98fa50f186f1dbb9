"""Byte-level golden check of every subcommand.

Core claims:
    - `en-report --n N` writes the same bytes and exit code as recorded in
      tests/golden/en_report.sha256, for n = 5..40 in text and --json and for
      n = 81 and 100 in --json
    - every other subcommand writes the same bytes and exit code as recorded
      in tests/golden/cli.sha256: the README examples in text and --json,
      `hj`, `class-t recognize` and `expand` on class-T, non-class-T and
      rational double point chains, `class-t generate --max-length 1..8`,
      `horikawa` and `single-contraction` for n = 4..40, `w4`, `blowdown`,
      `--help`, and every exit-2 message

Each line of en_report.sha256 is one call: n, format, exit code, then the
SHA-256 of stdout and of stderr.  Each line of cli.sha256 is the argv joined
by spaces, then the same three fields.  Usage and help text come from
argparse, which wraps at $COLUMNS, so the check pins COLUMNS=80.  To
regenerate both files after a deliberate output change, run from the
repository root:

    PYTHONPATH=src python tests/test_golden.py

To replay both files through `cli.run` without pytest, for instance under
each Python version the package supports, run:

    PYTHONPATH=src python tests/test_golden.py --check

It prints every mismatching line and the mismatch count, and exits 1 on any.
"""

import hashlib
import io
import os
import sys
from pathlib import Path

from horikawa.cli import run

GOLDEN = Path(__file__).parent / "golden"

EN_REPORT_CALLS = [(n, fmt) for n in range(5, 41) for fmt in ("text", "json")] + [
    (81, "json"),
    (100, "json"),
]

README_CALLS = [
    ["hj", "--m", "9", "--q", "2"],
    ["hj", "--chain", "6,2,2"],
    ["class-t", "recognize", "--chain", "3,2,3"],
    ["class-t", "generate", "--max-length", "4"],
    ["class-t", "expand", "--chain", "4"],
    ["en-report", "--n", "8"],
    ["horikawa", "--n", "8"],
    ["blowdown", "--chi", "8", "--k2", "0", "--euler", "96",
     "--chain", "8,2,2,2,2", "--chain", "8,2,2,2,2"],
    ["w4", "--count", "2"],
    ["single-contraction", "--n", "8"],
]


def _class_t(seed: tuple[int, ...], moves: str) -> str:
    """Replay prepend ("p") and append ("a") moves on a seed, as a --chain value."""
    b = seed
    for move in moves:
        b = (2,) + b[:-1] + (b[-1] + 1,) if move == "p" else (b[0] + 1,) + b[1:] + (2,)
    return ",".join(map(str, b))


CLASS_T_CHAINS = [
    _class_t(seed, moves)
    for seed in ((4,), (3, 3), (3, 2, 2, 2, 2, 3))
    for moves in ("", "p", "a", "pa", "ppap", "aaaaa", "papapap", "apapapapap",
                  "p" * 12 + "a" * 12, "a" * 12 + "p" * 12, "a" * 24)
]
OTHER_CHAINS = ["2", "2,2,2", "2,3", "5,5", "2,3,4", "3,2,2,4", "6,2,2", "7,2,2,2,3"]

CHAIN_CALLS = [
    argv
    for chain in CLASS_T_CHAINS + OTHER_CHAINS
    for argv in (
        ["class-t", "recognize", "--chain", chain],
        ["class-t", "recognize", "--chain", chain, "--json"],
        ["class-t", "expand", "--chain", chain, "--json"],
    )
]

HJ_CALLS = [
    ["hj", "--m", m, "--q", q, "--json"]
    for m, q in (("2", "1"), ("7", "3"), ("16", "3"), ("36", "5"), ("97", "40"), ("1000", "999"))
] + [["hj", "--chain", "2,2,2,2"], ["hj", "--chain", "3,5,2,4", "--json"]]

BLOWDOWN_CALLS = [
    ["blowdown", "--chi", "4", "--k2", "0", "--euler", "48", "--p-g", "3", "--chain", "4"] + fmt
    for fmt in ([], ["--json"])
] + [
    ["blowdown", "--chi", "8", "--k2", "0", "--euler", "96", "--chain", "2,2,2"] + fmt
    for fmt in ([], ["--json"])
] + [
    ["blowdown", "--chi", "8", "--k2", "0", "--euler", "96",
     "--chain", "8,2,2,2,2", "--chain", "2,2", "--chain", "3,2,3", "--p-g", "7"] + fmt
    for fmt in ([], ["--json"])
]

ERROR_CALLS = [
    [],
    ["frobnicate"],
    ["hj"],
    ["hj", "--m", "9", "--q", "3"],
    ["hj", "--m", "nine", "--q", "2"],
    ["class-t"],
    ["class-t", "recognize"],
    ["class-t", "recognize", "--chain", "3,1"],
    ["class-t", "recognize", "--chain", "a,b"],
    ["class-t", "generate", "--max-length", "0"],
    ["en-report", "--n", "4"],
    ["en-report", "--n", "8", "--bogus"],
    ["horikawa", "--n", "3"],
    ["single-contraction", "--n", "3"],
    ["w4", "--count", "3"],
    ["blowdown", "--chi", "8", "--k2", "0", "--euler", "96", "--chain", "2,3,4"],
    ["blowdown", "--chi", "8", "--k2", "0", "--euler", "95", "--chain", "4"],
    ["blowdown", "--chi", "8", "--k2", "0", "--euler", "96", "--p-g", "3", "--chain", "4"],
    ["blowdown", "--chi", "1", "--k2", "8", "--euler", "4"],
]

HELP_CALLS = [["--help"], ["class-t", "recognize", "--help"], ["blowdown", "-h"]]

CLI_CALLS = (
    [argv + fmt for argv in README_CALLS for fmt in ([], ["--json"])]
    + CHAIN_CALLS
    + HJ_CALLS
    + [["class-t", "generate", "--max-length", str(L)] + fmt
       for L in range(1, 9) for fmt in ([], ["--json"])]
    + [[cmd, "--n", str(n), "--json"] for cmd in ("horikawa", "single-contraction")
       for n in range(4, 41)]
    + [["w4", "--count", c] + fmt for c in ("1", "2") for fmt in ([], ["--json"])]
    + BLOWDOWN_CALLS
    + ERROR_CALLS
    + HELP_CALLS
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _result(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return f"{code} {_sha256(out.getvalue())} {_sha256(err.getvalue())}"


def _en_report_line(n: int, fmt: str) -> str:
    argv = ["en-report", "--n", str(n)] + (["--json"] if fmt == "json" else [])
    return f"{n} {fmt} {_result(argv)}"


def _cli_line(argv: list[str]) -> str:
    return f"{' '.join(argv)} {_result(argv)}"


def test_en_report_matches_golden_hashes():
    expected = (GOLDEN / "en_report.sha256").read_text(encoding="utf-8").splitlines()
    assert [line.split()[:2] for line in expected] == [
        [str(n), fmt] for n, fmt in EN_REPORT_CALLS
    ]
    assert [_en_report_line(n, fmt) for n, fmt in EN_REPORT_CALLS] == expected


def test_cli_matches_golden_hashes(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = (GOLDEN / "cli.sha256").read_text(encoding="utf-8").splitlines()
    assert [line.rsplit(" ", 3)[0] for line in expected] == [" ".join(a) for a in CLI_CALLS]
    assert [_cli_line(argv) for argv in CLI_CALLS] == expected


def _replay() -> int:
    """Rerun every call recorded in the golden files; print and count the lines that differ."""
    mismatches = 0
    for name in ("en_report.sha256", "cli.sha256"):
        for line in (GOLDEN / name).read_text(encoding="utf-8").splitlines():
            call = line.rsplit(" ", 3)[0]
            if name == "en_report.sha256":
                n, fmt = call.split()
                got = _en_report_line(int(n), fmt)
            else:
                got = _cli_line(call.split())
            if got != line:
                mismatches += 1
                print(f"{name}: expected {line}\n{name}: got      {got}")
    print(f"{mismatches} mismatches")
    return mismatches


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    if sys.argv[1:] == ["--check"]:
        sys.exit(1 if _replay() else 0)
    (GOLDEN / "en_report.sha256").write_text(
        "".join(_en_report_line(n, fmt) + "\n" for n, fmt in EN_REPORT_CALLS), encoding="utf-8"
    )
    (GOLDEN / "cli.sha256").write_text(
        "".join(_cli_line(argv) + "\n" for argv in CLI_CALLS), encoding="utf-8"
    )
