"""Byte-level golden check of `en-report`.

Core claim:
    - `en-report --n N` writes the same bytes and exit code as recorded in
      tests/golden/en_report.sha256, for n = 5..40 in text and --json and for
      n = 81 and 100 in --json

Each line of the golden file is one call: n, format, exit code, then the
SHA-256 of stdout and of stderr.  To regenerate it after a deliberate output
change, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py > tests/golden/en_report.sha256
"""

import hashlib
import io
from pathlib import Path

from horikawa.cli import run

GOLDEN = Path(__file__).parent / "golden" / "en_report.sha256"

CALLS = [(n, fmt) for n in range(5, 41) for fmt in ("text", "json")] + [
    (81, "json"),
    (100, "json"),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _line(n: int, fmt: str) -> str:
    argv = ["en-report", "--n", str(n)] + (["--json"] if fmt == "json" else [])
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return f"{n} {fmt} {code} {_sha256(out.getvalue())} {_sha256(err.getvalue())}"


def test_en_report_matches_golden_hashes():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert [line.split()[:2] for line in expected] == [
        [str(n), fmt] for n, fmt in CALLS
    ]
    assert [_line(n, fmt) for n, fmt in CALLS] == expected


if __name__ == "__main__":
    for n, fmt in CALLS:
        print(_line(n, fmt))
