"""Traced stand-in for `python -m horikawa.cli`: `trace_boot.py <spans file> <argv...>`.

Times `import horikawa.cli`, installs the tracer, runs the CLI on argv with
the real stdout and stderr, writes spans, counts and the seed-cache state to
the spans file, and exits with the CLI's exit code.
"""

import sys
from time import perf_counter

_t0 = perf_counter()
import horikawa.cli  # noqa: E402

IMPORT_S = perf_counter() - _t0

import json  # noqa: E402

import tracer as tracing  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return horikawa.cli.run(argv)
    finally:
        with open(spans_file, "w") as fh:
            json.dump({
                "spans": tracer.spans,
                "next_id": tracer.next_id,
                "counts": dict(tracer.counts),
                "import_s": IMPORT_S,
                "seed_cache": tracing.seed_cache_info(),
            }, fh)


if __name__ == "__main__":
    sys.exit(main())
