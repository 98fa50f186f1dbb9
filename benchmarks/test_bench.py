"""Self-tests of the benchmark: oracles, seeding, and a smoke run of each workload.

    python3 -m pytest benchmarks/test_bench.py -q

Not part of the tier-1 suite (`testpaths` is `tests/`); the tests take
about two minutes because each benchmark run keeps at least 100 operations.
"""

from __future__ import annotations

import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(argv):
    """Run the program in-process, as the in-process workloads do."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from horikawa import cli
    finally:
        sys.path.pop(0)
    out, err = io.StringIO(), io.StringIO()
    rc = cli.run(argv, out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


# --- oracles on the README's examples ----------------------------------------


def test_readme_configuration_chain_is_1_6_1_with_fiber_8_10_86():
    b = (8, 2, 2, 2, 2)
    m, q = oracles.cf_value(b)
    assert (m, q) == (36, 5)
    d, n, a = 1, 6, 1
    assert d * n * n == m and d * n * a - 1 == q
    assert sum(x - 2 for x in b) == len(b) - d + 2
    assert oracles.horikawa_invariants(8)[2:] == (8, 10, 86)
    chain = oracles.ClassTChain(1, (oracles.APPEND,) * 4)
    assert chain.b == b
    argv = ["blowdown", "--chi", "8", "--k2", "0", "--euler", "96",
            "--chain", "8,2,2,2,2", "--chain", "8,2,2,2,2", "--json"]
    assert oracles.check_blowdown_json(chain, 8, 2, *_cli(argv)) is None
    assert oracles.check_configuration_recognize(8, *_cli(
        ["class-t", "recognize", "--chain", "8,2,2,2,2", "--json"])) is None


def test_readme_quotient_9_2_is_chain_5_2_and_back():
    assert oracles.cf_value((5, 2)) == (9, 2)
    assert oracles.check_hj_mq_text(9, 2, *_cli(["hj", "--m", "9", "--q", "2"])) is None
    assert oracles.check_hj_chain_json((5, 2), *_cli(["hj", "--chain", "5,2", "--json"])) is None


def test_readme_chain_6_2_2_is_quotient_16_3():
    assert oracles.cf_value((6, 2, 2)) == (16, 3)
    assert oracles.check_hj_chain_json((6, 2, 2), *_cli(["hj", "--chain", "6,2,2", "--json"])) is None


def test_checkers_reject_a_wrong_answer_and_a_wrong_refusal():
    rc, out, err = _cli(["blowdown", "--chi", "8", "--k2", "0", "--euler", "96",
                         "--chain", "8,2,2,2,2", "--chain", "8,2,2,2,2", "--json"])
    chain = oracles.ClassTChain(1, (oracles.APPEND,) * 4)
    bad = out.replace('"K2": 10', '"K2": 11', 1)
    assert oracles.check_blowdown_json(chain, 8, 2, rc, bad, err).kind == "wrong"
    refused = oracles.check_configuration_recognize(8, 2, "", "error: maximum recursion depth exceeded")
    assert refused.kind == "refused"


def test_only_the_known_recursion_refusal_keeps_a_run_correct():
    refusal = {"rc": 2, "latency_s": 0.1, "ref_s": 0.004, "err": "error: maximum recursion depth exceeded in comparison\n"}
    configuration = workloads.oneshot_op("configuration", 940, None)
    tally = run.Tally()
    tally.record(configuration, refusal, "")
    assert tally.correct and tally.failed == 1 and tally.failures["known"] == 1
    tally.record(workloads.en_op(8), refusal, "")
    assert not tally.correct and tally.failures["refused"] == 1
    crash = run.Tally()
    crash.record(configuration, {"rc": None, "latency_s": 0.1, "ref_s": 0.004, "err": "Traceback ...\nKeyError: 1"}, "")
    assert not crash.correct and crash.failures["crash"] == 1


def test_latency_is_scaled_by_the_reference_times_around_it():
    tally = run.Tally()
    for ref_s in (0.004, 0.012):
        tally.record(workloads.en_op(8), {"rc": None, "latency_s": 1.0, "ref_s": ref_s, "err": ""}, "")
    assert tally.scaled() == pytest.approx([0.5, 1 / 3])


def test_generate_count_and_forward_moves_agree():
    for L in range(1, 9):
        chains = oracles.all_class_t(L)
        assert len(chains) == 2 ** (L + 1) - 2 - L
    assert oracles.check_generate_json(6, *_cli(["class-t", "generate", "--max-length", "6", "--json"])) is None


def test_discrepancies_of_4_are_one_half():
    from fractions import Fraction
    assert oracles.discrepancy_error((4,), [Fraction(1, 2)]) is None
    assert oracles.discrepancy_error((4,), [Fraction(1, 3)]) is not None


# --- seeding ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs_and_another_seed_changes_them(workload):
    def argvs(seed):
        return [op.argv for ops in itertools.islice(workloads.stream(workload, seed), 2) for op in ops]

    assert argvs(1) == argvs(1)
    assert argvs(1) != argvs(2)


def test_hard_negatives_are_one_fifth_of_recognize_chains():
    ops = next(workloads.stream("classt_recognize", 3))
    negatives = [op for op in ops[::2] if "d" not in op.size]
    assert len(ops) == 50 and len(negatives) == 5


# --- end to end ---------------------------------------------------------------------


def _run(cwd, workload, seed, trace, seconds="1"):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = _result(_run(ROOT, workload, 1, 0))
    assert result["correct"] is True
    assert result["attempted"] >= 100
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    if workload != "cli_oneshot":
        assert result["failed"] == 0


def test_traced_run_prints_every_per_layer_metric_for_any_seed():
    names = []
    for seed in (1, 2):
        result = _result(_run(ROOT, "classt_generate", seed, 1))
        assert result["correct"] is True and result["failed"] == 0
        names.append(set(result["metrics"]))
        assert result["metrics"]["classt.generate_class_t.chains"]["value"] > 0
    assert names[0] == names[1] == {m["name"] for m in SPEC["per_layer"]}
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC["per_layer"])
    assert (BENCH / "out" / "classt_generate-seed2.scaling.csv").is_file()


# Appended to a copy of cli.py: en-report fails for n > 6, after the warm-up (n = 5, 6).
_BROKEN_CLI = {
    "crash": "raise KeyError(argv[2])",
    "refusal": "err.write('error: bad n\\n'); return 2",
}


@pytest.mark.parametrize("breakage", sorted(_BROKEN_CLI))
def test_a_crashing_or_refusing_program_is_not_correct(tmp_path, breakage):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "horikawa" / "cli.py", "a") as fh:
        fh.write(
            "\n_real_run = run\n\n\n"
            "def run(argv=None, out=None, err=None):\n"
            "    if argv[0] == 'en-report' and int(argv[2]) > 6:\n"
            f"        {_BROKEN_CLI[breakage]}\n"
            "    return _real_run(argv, out=out, err=err)\n"
        )
    result = _result(_run(tmp_path, "en_sweep", 1, 0))
    assert result["correct"] is False
    assert result["failed"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "en_sweep", 1, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
