"""Command-line interface checks.

Core claims:
    - exit codes: 0 on clean reports, 2 on invalid input, usage text on stderr
    - an exception other than ValueError, from a handler or an encoder, exits
      3 with an `internal error:` line and its traceback on stderr and
      nothing on stdout
    - an invalid choice is worded the same on every supported Python
    - `blowdown` refuses a --p-g below --chi - 1 by naming both flags
    - `class-t recognize` answers the configuration chain [n, 2, ..., 2] for
      n = 1313 and 5000 in a fresh process at the default recursion limit
    - --help writes its text to run's `out` and exits 0
    - the JSON report carries the fixed schema, round-trips byte-identically,
      and contains no floats; rationals appear as num/den pairs
    - text and JSON modes report the same values
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import horikawa
from horikawa import cli
from horikawa.classt import ResolutionChain, recognize_class_t
from horikawa.cli import run


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


# -- queries ---------------------------------------------------------------------

def test_hj_expansion():
    code, out, _ = invoke("hj", "--m", "9", "--q", "2")
    assert code == 0
    assert "chain: [5, 2]" in out


def test_hj_value_direction():
    code, out, _ = invoke("hj", "--chain", "5,2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"]["quotient"] == {"m": 9, "q": 2}


def test_hj_rejects_non_coprime():
    code, _, err = invoke("hj", "--m", "9", "--q", "3")
    assert code == 2 and "coprime" in err


def test_hj_needs_arguments():
    code, _, err = invoke("hj")
    assert code == 2


def test_class_t_recognize():
    code, out, _ = invoke("class-t", "recognize", "--chain", "3,2,3", "--json")
    assert code == 0
    cls = json.loads(out)["invariants"]["classification"]
    assert (cls["kind"], cls["d"], cls["n"], cls["a"]) == ("class_t", 3, 2, 1)
    assert cls["reversed"]["kind"] == "class_t"


def test_class_t_generate():
    code, out, _ = invoke("class-t", "generate", "--max-length", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"]["chains"] == [[4], [2, 5], [5, 2], [3, 3]]
    assert payload["invariants"]["count"] == 4


def test_class_t_expand():
    code, out, _ = invoke("class-t", "expand", "--chain", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"]["prepend_child"] == [2, 5]
    assert payload["invariants"]["append_child"] == [5, 2]


@pytest.mark.parametrize(
    "argv", [["--help"], ["class-t", "recognize", "--help"], ["en-report", "-h"]]
)
def test_help_goes_to_out(argv, capsys):
    code, out, err = invoke(*argv)
    assert code == 0
    assert out.startswith("usage: horikawa") and "--help" in out
    assert err == ""
    assert capsys.readouterr() == ("", "")


def test_chain_argument_validation():
    code, _, err = invoke("class-t", "recognize", "--chain", "3,1")
    assert code == 2
    code, _, err = invoke("class-t", "recognize", "--chain", "a,b")
    assert code == 2


# -- reports ---------------------------------------------------------------------

@pytest.mark.parametrize("n", range(5, 21))
def test_en_report_exit_zero(n):
    code, out, _ = invoke("en-report", "--n", str(n), "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_en_report_rejects_small_n():
    code, _, err = invoke("en-report", "--n", "3")
    assert code == 2 and "n >= 5" in err


def test_en_report_schema():
    code, out, _ = invoke("en-report", "--n", "6", "--json")
    payload = json.loads(out)
    assert list(payload) == ["command", "inputs", "identities", "flags", "invariants", "verdict"]
    for row in payload["identities"]:
        assert list(row) == ["name", "expected", "computed", "pass", "provenance"]
        assert row["provenance"] in ("published", "derived", "trivial")
    assert [f["name"] for f in payload["flags"]] == ["adjoint_square_mismatch"]


def test_horikawa_command():
    code, out, _ = invoke("horikawa", "--n", "5", "--json")
    assert code == 0
    inv = json.loads(out)["invariants"]["invariants"]
    assert (inv["p_g"], inv["q"], inv["chi"], inv["K2"]) == (4, 0, 5, 4)


def test_horikawa_rejects_small_n():
    code, _, _ = invoke("horikawa", "--n", "3")
    assert code == 2


def test_blowdown_command():
    code, out, _ = invoke(
        "blowdown", "--chi", "4", "--k2", "0", "--euler", "48",
        "--chain", "4", "--chain", "4", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    fiber = payload["invariants"]["general_fiber"]
    assert (fiber["chi"], fiber["K2"], fiber["e"]) == (4, 2, 46)
    assert payload["invariants"]["per_chain"][0]["discrepancies"] == [{"num": 1, "den": 2}]


def test_blowdown_warns_on_rdp_chain():
    code, out, _ = invoke(
        "blowdown", "--chi", "4", "--k2", "0", "--euler", "48", "--chain", "2,2", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert any(flag["name"] == "warning" for flag in payload["flags"])


def test_blowdown_rejects_non_class_t_chain():
    code, _, err = invoke(
        "blowdown", "--chi", "4", "--k2", "0", "--euler", "48", "--chain", "7,2",
    )
    assert code == 2 and "class T" in err


def test_blowdown_rejects_p_g_below_chi_minus_one():
    code, out, err = invoke(
        "blowdown", "--chi", "8", "--k2", "0", "--euler", "96", "--p-g", "3", "--chain", "4",
    )
    assert code == 2 and out == ""
    assert err == (
        "error: --p-g 3 is too small for --chi 8: "
        "q = 1 - chi + p_g >= 0 needs p_g >= chi - 1 = 7\n"
    )


@pytest.mark.parametrize("n", [1313, 5000])
def test_long_configuration_chain_in_fresh_process(n):
    # a cold process, so no memo from other tests shortens the reduction
    b = (n,) + (2,) * (n - 4)
    script = (
        "import sys; from horikawa.cli import run; "
        "assert sys.getrecursionlimit() == 1000; sys.exit(run(sys.argv[1:]))"
    )
    src = str(Path(horikawa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script, "class-t", "recognize", "--json",
         "--chain", ",".join(map(str, b))],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    payload = json.loads(proc.stdout)
    cls = payload["invariants"]["classification"]
    assert (cls["kind"], cls["d"], cls["n"], cls["a"]) == ("class_t", 1, n - 2, 1)
    assert [(i["name"], i["pass"]) for i in payload["identities"]] == [
        ("trace_replays_to_chain", True)
    ]
    assert recognize_class_t(ResolutionChain(b)).replay().b == b


def test_w4_command():
    code, out, _ = invoke("w4", "--count", "2", "--json")
    assert code == 0
    fiber = json.loads(out)["invariants"]["general_fiber"]
    assert (fiber["chi"], fiber["K2"], fiber["e"]) == (4, 2, 46)


def test_w4_rejects_count_three():
    code, _, _ = invoke("w4", "--count", "3")
    assert code == 2


def test_single_contraction_command():
    code, out, _ = invoke("single-contraction", "--n", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"]["noether_margin"] == -3


def test_unknown_subcommand():
    code, _, err = invoke("frobnicate")
    assert code == 2 and "usage" in err
    assert err.endswith(
        "error: argument command: invalid choice: 'frobnicate' (choose from 'hj', "
        "'class-t', 'en-report', 'horikawa', 'blowdown', 'w4', 'single-contraction')\n"
    )


def test_invalid_int_choice_is_not_quoted():
    code, _, err = invoke("w4", "--count", "3")
    assert code == 2
    assert err.endswith("error: argument --count: invalid choice: 3 (choose from 1, 2)\n")


# -- internal faults --------------------------------------------------------------

def _raise(exc):
    def stage(*args, **kwargs):
        raise exc

    return stage


@pytest.mark.parametrize(
    "stage, exc, argv",
    [
        ("recognize_class_t", RuntimeError("seed check failed"),
         ["class-t", "recognize", "--chain", "3,2,3"]),
        ("recognize_class_t", RecursionError("maximum recursion depth exceeded"),
         ["class-t", "recognize", "--chain", "3,2,3", "--json"]),
        ("hj_value", ZeroDivisionError("division by zero"), ["hj", "--chain", "5,2"]),
        ("write_json", TypeError("cannot serialize"), ["horikawa", "--n", "5", "--json"]),
        ("write_text", KeyError("verdict"), ["horikawa", "--n", "5"]),
        ("payload", ValueError("encoder fault"), ["horikawa", "--n", "5"]),
    ],
)
def test_internal_fault_exits_three(monkeypatch, stage, exc, argv):
    monkeypatch.setattr(cli, stage, _raise(exc))
    code, out, err = invoke(*argv)
    assert (code, out) == (3, "")
    first, *trace = err.splitlines()
    assert first == f"internal error: {type(exc).__name__}: {exc}"
    assert trace[0] == "Traceback (most recent call last):"


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_encoder_fault_writes_no_partial_report(monkeypatch, fmt):
    monkeypatch.setattr(cli, "invariants_dict", lambda inv: {"p_g": object()})
    code, out, err = invoke("horikawa", "--n", "5", *fmt)
    assert (code, out) == (3, "")
    assert err.startswith("internal error: TypeError: ")


def test_handler_value_error_stays_invalid_input(monkeypatch):
    monkeypatch.setattr(cli, "recognize_class_t", _raise(ValueError("bad chain")))
    assert invoke("class-t", "recognize", "--chain", "3,2,3") == (2, "", "error: bad chain\n")


# -- serialization guarantees -----------------------------------------------------

def _assert_no_floats(value):
    assert not isinstance(value, float), f"float {value!r} in JSON output"
    if isinstance(value, dict):
        for v in value.values():
            _assert_no_floats(v)
    if isinstance(value, list):
        for v in value:
            _assert_no_floats(v)


@pytest.mark.parametrize(
    "argv",
    [
        ("en-report", "--n", "7"),
        ("w4", "--count", "1"),
        ("single-contraction", "--n", "5"),
        ("blowdown", "--chi", "5", "--k2", "0", "--euler", "60", "--chain", "5,2", "--chain", "5,2"),
        ("class-t", "recognize", "--chain", "6,2,2"),
        ("hj", "--m", "25", "--q", "9"),
    ],
)
def test_json_round_trip_and_purity(argv):
    code, out, _ = invoke(*argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    _assert_no_floats(payload)


def test_text_and_json_agree():
    _, text, _ = invoke("en-report", "--n", "6")
    _, raw, _ = invoke("en-report", "--n", "6", "--json")
    payload = json.loads(raw)
    for row in payload["identities"]:
        status = "pass" if row["pass"] else "FAIL"
        assert f"[{status}] {row['name']}:" in text
    assert f"verdict: {payload['verdict']}" in text
    assert (
        f"adjoint_square_lattice: {payload['invariants']['adjoint_square_lattice']}" in text
    )
