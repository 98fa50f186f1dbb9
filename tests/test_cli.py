"""Command-line interface checks.

Core claims:
    - exit codes: 0 on clean reports, 2 on invalid input, usage text on stderr
    - an exception other than ValueError, from a handler or an encoder, exits
      3 with an `internal error:` line and its traceback on stderr and
      nothing on stdout; a float or a non-str key in a text or JSON report is
      such a fault, and its TypeError names the value; so is a K^2
      accounting check that fails while smoothing a class-T chain
    - an invalid choice is worded the same on every supported Python
    - `blowdown` refuses a --p-g below --chi - 1 by naming both flags
    - `hj` refuses --chain together with --m or --q instead of dropping them
    - an answer longer than CPython's int-to-str digit limit is written in
      full, in text and JSON, without changing the limit for the caller
    - `class-t recognize` answers the configuration chain [n, 2, ..., 2] for
      n = 1313 and 5000 in a fresh process at the default recursion limit
    - --help writes its text to run's `out` and exits 0
    - the JSON report carries the fixed schema, round-trips byte-identically,
      and contains no floats; rationals appear as num/den pairs
    - text and JSON modes report the same values
    - `en-report` builds its chain's Gram matrix once and recognizes the chain
      and its reversal once each; `class-t recognize` does the same; neither
      runs the generic `negativity_check` on the chain
"""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import horikawa
from horikawa import blowdown, cli
from horikawa.classt import ResolutionChain, hj_value, recognize_class_t
from horikawa.cli import run
from horikawa.lattice import BlownHirzebruch


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


@pytest.mark.parametrize("extra", [["--m", "9", "--q", "2"], ["--m", "9"], ["--q", "2"]])
def test_hj_refuses_chain_with_quotient(extra):
    code, out, err = invoke("hj", *extra, "--chain", "6,2,2")
    assert (code, out) == (2, "")
    assert err == "error: hj takes either --m and --q, or --chain, not both\n"


LONG_CHAIN = ",".join(["1000000000"] * 480)


def _parsed_without_digit_limit(text):
    """json.loads on text holding ints past `sys.get_int_max_str_digits()`."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return json.loads(text)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_hj_answer_past_the_digit_limit_is_written_in_full(mode):
    # m has about 4,320 decimal digits, past CPython's default limit of 4,300
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = invoke("hj", "--chain", LONG_CHAIN, *mode)
    assert (code, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    quotient = hj_value(ResolutionChain((10**9,) * 480))
    assert quotient.m.bit_length() > 14_000
    if mode:
        assert _parsed_without_digit_limit(out)["invariants"]["quotient"] == {
            "m": quotient.m,
            "q": quotient.q,
        }
    else:
        line = next(x for x in out.splitlines() if x.startswith("  quotient: "))
        m_text, q_text = line[len("  quotient: {m="):-1].split(", q=")
        assert _parsed_without_digit_limit(f"[{m_text}, {q_text}]") == [quotient.m, quotient.q]


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


@pytest.mark.parametrize(
    "argv",
    [["blowdown", "--chi", "8", "--k2", "0", "--euler", "96", "--chain", "8,2,2,2,2"],
     ["en-report", "--n", "8"]],
    ids=["blowdown", "en-report"],
)
@pytest.mark.parametrize(
    "correction, message",
    [(Fraction(1, 3), "K^2 correction sums to non-integer"), (Fraction(0), "accounting error")],
    ids=["non-integer", "off-noether"],
)
def test_smoothing_accounting_fault_exits_three(monkeypatch, argv, correction, message):
    monkeypatch.setattr(blowdown, "_k2_from_discrepancies", lambda chain, disc: correction)
    code, out, err = invoke(*argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"internal error: RuntimeError: {message}")


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_encoder_fault_writes_no_partial_report(monkeypatch, fmt):
    monkeypatch.setattr(cli, "invariants_dict", lambda inv: {"p_g": object()})
    code, out, err = invoke("horikawa", "--n", "5", *fmt)
    assert (code, out) == (3, "")
    assert err.startswith("internal error: TypeError: ")


@pytest.mark.parametrize(
    "invariants, named, fmt",
    [
        ({"p_g": 0.5}, "0.5", ["--json"]),
        ({"p_g": 0.5}, "0.5", []),
        ({4: 1}, "key 4", ["--json"]),
        ({4: 1}, "key 4", []),
    ],
    ids=["float", "float-text", "int-key", "int-key-text"],
)
def test_json_writer_refuses_float_and_non_str_key(monkeypatch, invariants, named, fmt):
    monkeypatch.setattr(cli, "invariants_dict", lambda inv: invariants)
    code, out, err = invoke("horikawa", "--n", "5", *fmt)
    assert (code, out) == (3, "")
    assert err.splitlines()[0] == f"internal error: TypeError: cannot serialize {named}"


def _count_calls(monkeypatch, owners, name, counts):
    original = getattr(owners[0], name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for owner in owners:
        if getattr(owner, name, None) is original:
            monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize(
    "argv, grams, recognitions",
    [(["en-report", "--n", "12", "--json"], 1, 2),
     (["class-t", "recognize", "--chain", "9,2,2,2,2,2"], 0, 2)],
    ids=["en-report", "class-t-recognize"],
)
def test_each_chain_fact_is_derived_once(monkeypatch, argv, grams, recognitions):
    counts = {"gram": 0, "negativity_check": 0, "recognize_class_t": 0}
    _count_calls(monkeypatch, [BlownHirzebruch], "gram", counts)
    _count_calls(monkeypatch, [BlownHirzebruch], "negativity_check", counts)
    holders = [m for n, m in sorted(sys.modules.items()) if n.startswith("horikawa.")]
    _count_calls(monkeypatch, [horikawa.classt] + holders, "recognize_class_t", counts)
    assert invoke(*argv)[0] == 0
    assert counts == {"gram": grams, "negativity_check": 0, "recognize_class_t": recognitions}


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
