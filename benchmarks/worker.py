"""The process that runs one workload: `python3 worker.py <src dir>`.

It imports `horikawa.cli` first and prints `ready`, so the parent times
interpreter start plus that import and nothing else.  Then it serves the
parent one line at a time (a closed loop with a single caller):

  {"job": {...}}      how to run ops (in-process or by spawning the CLI; traced or not)
  {"argv": [...]}     time reference.py's work, then run one CLI call; reply
                      with a header line (both times) and the output text
  {"reset": true}     drop trace data gathered so far (after warm-up)
  {"rss": true}       reply with the peak RSS so far (of the largest child when spawning)
  {"end": true}       reply with trace data, then exit

Output checking happens in the parent, so this process's peak RSS is the
program's, not the checker's.
"""

import sys
from time import perf_counter

_t0 = perf_counter()
SRC = sys.argv[1]
sys.path.insert(0, SRC)
import horikawa.cli  # noqa: E402

IMPORT_S = perf_counter() - _t0
sys.stdout.write("ready\n")
sys.stdout.flush()

import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import reference  # noqa: E402
import tracer as tracing  # noqa: E402

BOOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace_boot.py")
CHUNK = 1 << 16


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        rc = horikawa.cli.run(argv, out=out, err=err)
    except Exception:  # an escaped exception is an operation failure, reported to the parent
        rc = None
        err.write(traceback.format_exc())
    return rc, perf_counter() - start, out.getvalue(), err.getvalue()


class Spawner:
    """Runs each op as a fresh CLI process, traced through trace_boot.py when asked."""

    def __init__(self, tracer, tmp_dir):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        self.tracer = tracer
        self.tmp_dir = tmp_dir
        self.import_s = []
        self.cache = [0, 0, 0]

    def __call__(self, argv):
        spans_file = None
        if self.tracer:
            fd, spans_file = tempfile.mkstemp(suffix=".json", dir=self.tmp_dir)
            os.close(fd)
            cmd = [sys.executable, BOOT, spans_file] + argv
        else:
            cmd = [sys.executable, "-m", "horikawa.cli"] + argv
        start = perf_counter()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=120)
        elapsed = perf_counter() - start
        if spans_file:
            self._merge(spans_file)
        rc = proc.returncode if proc.returncode >= 0 else None
        return rc, elapsed, proc.stdout, proc.stderr

    def _merge(self, path):
        try:
            with open(path) as fh:
                text = fh.read()
        finally:
            os.unlink(path)
        if not text:
            return
        child = json.loads(text)
        offset = self.tracer.next_id
        for op, sid, parent, name, start, end in child["spans"]:
            self.tracer.spans.append(
                (self.tracer.op, sid + offset, None if parent is None else parent + offset, name, start, end)
            )
        self.tracer.next_id = offset + child["next_id"]
        self.tracer.counts.update(child["counts"])
        self.import_s.append(child["import_s"])
        if child["seed_cache"] is None:
            self.cache = None
        elif self.cache is not None:
            hits, misses, entries = child["seed_cache"]
            self.cache = [self.cache[0] + hits, self.cache[1] + misses, max(self.cache[2], entries)]


def main():
    job = json.loads(sys.stdin.readline() or "null")
    if job is None:
        return
    job = job["job"]
    tracer = tracing.Tracer() if job["trace"] else None
    if job["spawn"]:
        runner = Spawner(tracer, job.get("out_dir"))
    else:
        runner = _in_process
        if tracer:
            tracer.install()
    cache0 = tracing.seed_cache_info()
    w = sys.stdout
    for line in sys.stdin:
        msg = json.loads(line)
        if "argv" in msg:
            ref_s = reference.reference()
            rc, elapsed, out, err = runner(msg["argv"])
            w.write(json.dumps({"rc": rc, "latency_s": elapsed, "ref_s": ref_s,
                                "err": err[-2000:], "out_len": len(out)}) + "\n")
            for i in range(0, len(out), CHUNK):
                w.write(out[i:i + CHUNK])
            w.flush()
            if tracer:
                tracer.op += 1
        elif "rss" in msg:
            who = resource.RUSAGE_CHILDREN if job["spawn"] else resource.RUSAGE_SELF
            w.write(json.dumps({"peak_rss_kib": resource.getrusage(who).ru_maxrss}) + "\n")
            w.flush()
        elif "reset" in msg:
            if tracer:
                tracer.reset()
                if job["spawn"]:
                    runner.import_s.clear()
                    runner.cache = [0, 0, 0]
            cache0 = tracing.seed_cache_info()
        elif "end" in msg:
            break
    final = {"import_s": [IMPORT_S]}
    if tracer:
        if job["spawn"]:
            final["import_s"] = runner.import_s
            final["seed_cache"] = runner.cache
        else:
            now = tracing.seed_cache_info()
            final["seed_cache"] = None if now is None else [
                now[0] - cache0[0], now[1] - cache0[1], now[2]]
        final["layers"] = tracing.aggregate(tracer.spans)
        final["counts"] = dict(tracer.counts)
        if job.get("spans_path"):
            tracer.dump(job["spans_path"])
    w.write(json.dumps(final) + "\n")
    w.flush()


if __name__ == "__main__":
    main()
