"""Benchmark of the horikawa CLI: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload en_sweep --seed 1 --seconds 20 --trace 0

Run from a checkout that holds `src/horikawa`.  `--trace 0` prints the
end-to-end metrics; `--trace 1` prints the per-layer metrics and writes the
spans and the scaling table under `benchmarks/out/`.  Every output is checked
against answers from `oracles.py`; see README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import oracles
import workloads
from reference import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SPAWNS = 9  # set-up is timed this many times per run; the median is reported
MIN_OPS = 100  # the 90th percentile keeps at least ten samples beyond it
WALL_LIMIT_S = 160  # the run stops sending operations after this much wall time


class BenchError(Exception):
    pass


class Worker:
    """One worker.py process, spoken to one line at a time."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, encoding="utf-8",
        )
        try:
            if self._readline() != "ready\n":
                raise BenchError("worker did not start; is src/horikawa importable?")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = perf_counter() - start

    def _readline(self) -> str:
        remaining = self.deadline - monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
        if not ready:
            raise BenchError("an operation ran past the run's wall-clock limit")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return line

    def send(self, msg: dict) -> None:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()

    def call(self, argv: list[str]) -> tuple[dict, str]:
        self.send({"argv": argv})
        header = json.loads(self._readline())
        return header, self.proc.stdout.read(header["out_len"])

    def peak_rss_kib(self) -> int:
        self.send({"rss": True})
        return json.loads(self._readline())["peak_rss_kib"]

    def finish(self) -> dict:
        self.send({"end": True})
        final = json.loads(self._readline())
        self.close()
        return final

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Tally:
    """Per-op results of one pass: latencies, failures, sizes."""

    def __init__(self):
        self.latencies: list[float] = []
        self.refs: list[float] = []
        self.rows: list[dict] = []
        self.failures: dict[str, int] = {"wrong": 0, "refused": 0, "crash": 0, "known": 0}
        self.examples: list[str] = []
        self.out_bytes = 0

    def record(self, op: workloads.Op, header: dict, out: str) -> None:
        try:
            failure = op.check(header["rc"], out, header["err"])
        except (KeyError, IndexError, TypeError, ValueError, AttributeError, StopIteration) as exc:
            failure = oracles.Failure("wrong", f"malformed output ({type(exc).__name__}: {exc})")
        if failure and failure.kind == "refused" and op.known_refusal and op.known_refusal in header["err"]:
            failure = oracles.Failure("known", failure.detail)
        if failure:
            self.failures[failure.kind] += 1
            if len(self.examples) < 3:
                self.examples.append(f"{failure.kind}: {' '.join(op.argv)[:120]}: {failure.detail}")
        self.latencies.append(header["latency_s"])
        self.refs.append(header["ref_s"])
        self.out_bytes += len(out)
        self.rows.append(dict(op.size, latency_s=header["latency_s"], out_bytes=len(out),
                              rc=header["rc"], failed=failure.kind if failure else ""))

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def scaled(self) -> list[float]:
        """Latencies scaled to the nominal host speed by the reference times around each (see reference.py)."""
        refs = self.refs
        return [lat * 2 * REFERENCE_S / (refs[i] + refs[min(i + 1, len(refs) - 1)])
                for i, lat in enumerate(self.latencies)]

    @property
    def correct(self) -> bool:
        """No wrong answer, no crash, and no refusal other than a known failure of the program."""
        return self.failed == self.failures["known"]


def fixed_rounds(workload: str) -> int:
    """Whole rounds that hold at least MIN_OPS operations; every round of a workload has one length."""
    return math.ceil(MIN_OPS / len(next(workloads.stream(workload, 0))))


def run_pass(workload: str, seed: int, job: dict, deadline: float, *, rounds: int, seconds=None):
    """Start a worker, warm it up, and run `rounds` whole rounds, and more until `seconds` of op time.

    Peak RSS is read when the first `rounds` rounds are done, so it covers
    the same work however fast the program is.
    """
    worker = Worker(deadline)
    try:
        worker.send({"job": job})
        warm = Tally()
        for op in workloads.WARMUP[workload]:
            warm.record(op, *worker.call(op.argv))
        if warm.failed:
            raise BenchError(f"warm-up failed: {warm.examples}")
        worker.send({"reset": True})
        tally = Tally()
        busy = 0.0
        for done, round_ops in enumerate(workloads.stream(workload, seed)):
            if done >= rounds and (seconds is None or busy >= seconds):
                break
            if monotonic() > deadline - 10:
                if done < rounds:
                    raise BenchError(f"only {done} of {rounds} rounds fit in the wall-clock limit")
                break
            for op in round_ops:
                header, out = worker.call(op.argv)
                tally.record(op, header, out)
                busy += header["latency_s"]
            if done + 1 == rounds:
                peak_rss_kib = worker.peak_rss_kib()
        final = worker.finish()
    finally:
        worker.close()
    return worker, tally, dict(final, peak_rss_kib=peak_rss_kib)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def setup_probes(count: int, deadline: float) -> list[float]:
    """Set-up times of `count` workers that are started and stopped at once."""
    times = []
    for _ in range(count):
        probe = Worker(deadline)
        times.append(probe.setup_s)
        probe.close()
    return times


def end_to_end(workload: str, seed: int, seconds: int, deadline: float):
    # Half the set-up samples are taken before the workload and half after it,
    # so their median spans the run.
    setups = setup_probes(SETUP_SPAWNS // 2, deadline)
    worker, tally, final = run_pass(
        workload, seed, {"spawn": workload not in workloads.IN_PROCESS, "trace": False},
        deadline, rounds=fixed_rounds(workload), seconds=seconds)
    setups += [worker.setup_s] + setup_probes(SETUP_SPAWNS // 2, deadline)
    lat = tally.scaled()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1000 * percentile(lat, 0.9), "ms"),
        "peak_rss_mib": (final["peak_rss_kib"] / 1024, "MiB"),
    }
    raw = tally.latencies
    beyond = len(lat) - math.ceil(0.9 * len(lat))
    summary = (f"{workload} seed={seed}: {len(lat)} ops, {beyond} beyond p90, failed "
               f"{tally.failed}/{len(lat)} {tally.failures}\n"
               f"unscaled: ops_per_s {len(raw) / sum(raw):.3f}, latency_p50_ms {1000 * statistics.median(raw):.3f}, "
               f"latency_p90_ms {1000 * percentile(raw, 0.9):.3f}; reference median "
               f"{1000 * statistics.median(tally.refs):.3f} ms (nominal {1000 * REFERENCE_S:.3f} ms)")
    return tally, metrics, summary


def _fit(rows, x_key, transform, select_row) -> tuple[float, int]:
    """Least-squares slope of log2(scaled latency) against transform(size) over the selected rows."""
    pts = [(transform(r[x_key]), math.log2(r["scaled_latency_s"])) for r in rows
           if x_key in r and not r["failed"] and select_row(r)]
    if len(pts) < 3:
        return float("nan"), len(pts)
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return (sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else float("nan")), len(pts)


# cli_oneshot has no fit: process start dominates every call, and of its
# configuration chains only the shortest is answered.
SCALING_FITS = {
    # (size column, transform, row filter, what the slope means)
    "en_sweep": ("n", math.log2, lambda r: r["n"] >= 31, "exponent k of latency ~ n^k, n >= 31"),
    "classt_recognize": ("m_bits", float, lambda r: "d" in r and r["m_bits"] >= 30,
                         "log2 latency per bit of m, class-T chains with m >= 2^29"),
    "classt_generate": ("L", float, lambda r: True, "log2 latency per unit of L"),
}


def per_layer(workload: str, seed: int, seconds: int, deadline: float):
    """An untraced and then a traced pass over the same fixed rounds, each in a fresh worker.

    The work is fixed, not timed, so run totals such as cache lookups do not
    grow with the program's speed.
    """
    OUT.mkdir(exist_ok=True)
    spawn = workload not in workloads.IN_PROCESS
    base = OUT / f"{workload}-seed{seed}"
    rounds = fixed_rounds(workload)
    _, plain, _ = run_pass(workload, seed, {"spawn": spawn, "trace": False}, deadline, rounds=rounds)
    _, traced, final = run_pass(
        workload, seed,
        {"spawn": spawn, "trace": True, "out_dir": str(OUT), "spans_path": f"{base}.spans.jsonl"},
        deadline, rounds=rounds)
    ops = len(traced.latencies)
    layers, counts = final["layers"], final["counts"]

    def span(name, field="s"):
        return layers.get(name, {}).get(field, 0.0) / ops

    def calls(name):
        return layers.get(name, {}).get("calls", counts.get(name, 0))

    cache = final.get("seed_cache")
    hits, misses, entries = cache if cache is not None else (None, None, None)
    lookups = None if cache is None else hits + misses
    smoothed = counts.get("blowdown.smoothed_chains", 0)
    metrics = {
        "lattice.negativity_check.self_s": (span("lattice.negativity_check", "self_s"), "s/op"),
        "lattice.gram.s": (span("lattice.gram"), "s/op"),
        "lattice.pairing.calls": (calls("lattice.pairing") / ops, "calls/op"),
        "blowdown.ContractionSet.s": (span("blowdown.ContractionSet"), "s/op"),
        "pipeline.build_en_configuration.s": (span("pipeline.build_en_configuration"), "s/op"),
        "pipeline.verify_en_identities.self_s": (span("pipeline.verify_en_identities", "self_s"), "s/op"),
        "pipeline.identities": (counts.get("pipeline.identities", 0) / ops, "count/op"),
        "classt.recognize_class_t.s": (span("classt.recognize_class_t"), "s/op"),
        "classt.recognize_class_t.calls": (calls("classt.recognize_class_t") / ops, "calls/op"),
        "classt.hj_value.s": (span("classt.hj_value"), "s/op"),
        "classt.seed_cache.hit_ratio": (hits / lookups if lookups else (None if cache is None else 0.0), "ratio"),
        "classt.seed_cache.hits": (hits, "count"),
        "classt.seed_cache.lookups": (lookups, "count"),
        "classt.seed_cache.entries": (entries, "count"),
        "blowdown.discrepancies.s": (span("blowdown.discrepancies"), "s/op"),
        "blowdown.discrepancies.per_chain": (
            calls("blowdown.discrepancies") / smoothed if smoothed else 0.0, "ratio"),
        "blowdown.smoothed_chains": (smoothed, "count"),
        "classt.generate_class_t.s": (span("classt.generate_class_t"), "s/op"),
        "classt.generate_class_t.chains": (counts.get("classt.generated_chains", 0) / ops, "chains/op"),
        "cli.run.self_s": (span("cli.run", "self_s"), "s/op"),
        "cli.output_bytes": (traced.out_bytes / ops, "bytes/op"),
        "cli.import_s": (statistics.median(final["import_s"]), "s"),
        "covers.double_cover_invariants.s": (span("covers.double_cover_invariants"), "s/op"),
        "covers.h0_hirzebruch.calls": (calls("covers.h0_hirzebruch") / ops, "calls/op"),
        "trace.overhead": (sum(traced.scaled()) / sum(plain.scaled()), "ratio"),
        "failed_ratio": (traced.failed / ops, "ratio"),
        "ops.attempted": (ops, "count"),
        "ops.failed": (traced.failed, "count"),
    }
    fit = write_scaling(base, workload, plain, traced)
    with open(f"{base}.summary.json", "w") as fh:
        json.dump({"environment": environment(workload, seed, seconds), "scaling_fit": fit,
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, fh, indent=1)
    summary = (f"{workload} seed={seed} traced: {ops} ops, failed {traced.failed}/{ops} "
               f"{traced.failures}, spans in {base}.spans.jsonl, scaling in {base}.scaling.csv")
    return traced, metrics, summary


def environment(workload: str, seed: int, seconds: float) -> dict:
    """What a reader needs to compare two runs: interpreter, CPUs, commit, inputs."""
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit,
            "workload": workload, "seed": seed, "seconds": seconds}


def write_scaling(base: Path, workload: str, plain: Tally, traced: Tally) -> dict:
    """One row per op: sizes, untraced (raw and scaled) and traced latency.  Returns the fitted slope, if any."""
    cols = ["op", "kind", "n", "r", "d", "m_bits", "L", "out_bytes", "rc", "failed",
            "latency_s", "reference_s", "scaled_latency_s", "traced_latency_s"]
    rows = [dict(row, op=i, reference_s=ref, scaled_latency_s=scaled, traced_latency_s=trow["latency_s"])
            for i, (row, ref, scaled, trow) in enumerate(zip(plain.rows, plain.refs, plain.scaled(), traced.rows))]
    with open(f"{base}.scaling.csv", "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row.get(c, "")) for c in cols) + "\n")
    if workload not in SCALING_FITS:
        return None
    x_key, transform, keep, meaning = SCALING_FITS[workload]
    slope, points = _fit(rows, x_key, transform, keep)
    print(f"scaling: {meaning}: slope {slope:.3f} over {points} ops", file=sys.stderr)
    return {"slope": slope, "points": points, "meaning": meaning}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "horikawa" / "cli.py").is_file():
        print(f"error: {SRC / 'horikawa'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = monotonic() + WALL_LIMIT_S
    # One CPU for this process, the worker and the CLI processes it spawns:
    # the loop is closed, so only one of them runs at a time, and the
    # reference work is timed on the CPU that runs the operations.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        measure = per_layer if args.trace else end_to_end
        tally, metrics, summary = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary, file=sys.stderr)
    print(f"environment: {environment(args.workload, args.seed, args.seconds)}", file=sys.stderr)
    for example in tally.examples:
        print(f"  {example}", file=sys.stderr)
    result = {
        "correct": tally.correct,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
