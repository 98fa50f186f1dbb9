"""Command-line front end: every pipeline and query as a subcommand.

Each subcommand prints one report in text or JSON; `report.py` defines its
shape and both encodings.  Exit codes: 0 all identities pass, 1 some identity
failed (report still emitted), 2 invalid input, 3 internal error.  Invalid
input is a usage error or a `ValueError`; any other exception, such as the
`RuntimeError` of a failed internal consistency check, is an internal error,
reported on stderr with its traceback and no report.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, Optional, Sequence

from . import pipeline
from .blowdown import smoothing_invariants
from .classt import (
    ChainClassification,
    CyclicQuotient,
    ResolutionChain,
    expand_t_chain,
    generate_class_t,
    hj_expand,
    hj_value,
    recognize_class_t,
)
from .covers import SurfaceInvariants
from .report import (
    DERIVED,
    TRIVIAL,
    EnReport,
    check,
    classification_dict,
    contribution_dicts,
    invariants_dict,
    payload,
    write_json,
    write_text,
)


class UsageError(Exception):
    pass


class HelpRequested(Exception):
    """Carries the help text, so `run` writes it to its own `out`."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise UsageError(f"{self.format_usage()}error: {message}")

    def print_help(self, file: Optional[IO[str]] = None) -> None:
        raise HelpRequested(self.format_help())

    def _check_value(self, action: argparse.Action, value: object) -> None:
        # Newer argparse releases print the choices with str() rather than
        # repr(); this keeps one wording on every supported Python.
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r} (choose from {choices})"
            )


def _parse_chain(text: str) -> tuple[int, ...]:
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"chain {text!r} is not comma-separated integers")
    if not entries or any(b < 2 for b in entries):
        raise argparse.ArgumentTypeError(f"chain {text!r} needs entries >= 2")
    return entries


def _classification_invariants(cls: ChainClassification) -> dict:
    out = classification_dict(cls)
    out["reversed"] = classification_dict(recognize_class_t(cls.chain.reversed()))
    return out


def _cmd_hj(args: argparse.Namespace) -> tuple[str, EnReport]:
    if args.chain is None and (args.m is None or args.q is None):
        raise ValueError("hj needs either --m and --q, or --chain")
    if args.chain is not None and (args.m is not None or args.q is not None):
        raise ValueError("hj takes either --m and --q, or --chain, not both")
    if args.chain is not None:
        chain = ResolutionChain(args.chain)
        quotient = hj_value(chain)
        round_trip = hj_expand(quotient)
        report = EnReport(
            inputs={"chain": list(chain.b)},
            identities=(
                check("round_trip", list(chain.b), list(round_trip.b), TRIVIAL),
            ),
            invariants={"quotient": {"m": quotient.m, "q": quotient.q}},
        )
    else:
        quotient = CyclicQuotient(args.m, args.q)
        chain = hj_expand(quotient)
        value = hj_value(chain)
        report = EnReport(
            inputs={"m": args.m, "q": args.q},
            identities=(
                check("round_trip", [args.m, args.q], [value.m, value.q], TRIVIAL),
            ),
            invariants={"chain": list(chain.b)},
        )
    return "hj", report


def _cmd_class_t_recognize(args: argparse.Namespace) -> tuple[str, EnReport]:
    chain = ResolutionChain(args.chain)
    cls = recognize_class_t(chain)
    identities = []
    if cls.seed is not None:
        identities.append(
            check("trace_replays_to_chain", list(chain.b), list(cls.replay().b), DERIVED)
        )
    report = EnReport(
        inputs={"chain": list(chain.b)},
        identities=tuple(identities),
        invariants={"classification": _classification_invariants(cls)},
    )
    return "class-t recognize", report


def _cmd_class_t_generate(args: argparse.Namespace) -> tuple[str, EnReport]:
    chains = generate_class_t(args.max_length)
    report = EnReport(
        inputs={"max_length": args.max_length},
        identities=(),
        invariants={
            "count": len(chains),
            "chains": chains,
        },
    )
    return "class-t generate", report


def _cmd_class_t_expand(args: argparse.Namespace) -> tuple[str, EnReport]:
    chain = ResolutionChain(args.chain)
    left, right = expand_t_chain(chain)
    report = EnReport(
        inputs={"chain": list(chain.b)},
        identities=(),
        invariants={
            "prepend_child": list(left.b),
            "append_child": list(right.b),
            "prepend_classification": _classification_invariants(recognize_class_t(left)),
            "append_classification": _classification_invariants(recognize_class_t(right)),
        },
    )
    return "class-t expand", report


def _cmd_en_report(args: argparse.Namespace) -> tuple[str, EnReport]:
    return "en-report", pipeline.verify_en_identities(pipeline.build_en_configuration(args.n))


def _cmd_horikawa(args: argparse.Namespace) -> tuple[str, EnReport]:
    inv = pipeline.horikawa_direct(args.n)
    report = EnReport(
        inputs={"n": args.n},
        identities=(
            check("noether_formula", 12 * inv.chi, inv.K2 + inv.e, TRIVIAL),
        ),
        invariants={"invariants": invariants_dict(inv)},
    )
    return "horikawa", report


def _cmd_blowdown(args: argparse.Namespace) -> tuple[str, EnReport]:
    if args.p_g is not None and args.p_g < args.chi - 1:
        raise ValueError(
            f"--p-g {args.p_g} is too small for --chi {args.chi}: "
            f"q = 1 - chi + p_g >= 0 needs p_g >= chi - 1 = {args.chi - 1}"
        )
    start = SurfaceInvariants(p_g=args.p_g, q=None, chi=args.chi, K2=args.k2, e=args.euler)
    classifications = [recognize_class_t(ResolutionChain(c)) for c in args.chain]
    smoothed = smoothing_invariants(start, classifications)
    fiber = smoothed.fiber
    report = EnReport(
        inputs={
            "chi": args.chi,
            "K2": args.k2,
            "e": args.euler,
            "p_g": args.p_g,
            "chains": [list(c) for c in args.chain],
        },
        identities=(
            check("noether_formula", 12 * fiber.chi, fiber.K2 + fiber.e, TRIVIAL),
        ),
        flags=smoothed.flags,
        invariants={
            "general_fiber": invariants_dict(fiber),
            "per_chain": contribution_dicts(smoothed),
        },
    )
    return "blowdown", report


def _cmd_w4(args: argparse.Namespace) -> tuple[str, EnReport]:
    return "w4", pipeline.w4_example(args.count)


def _cmd_single_contraction(args: argparse.Namespace) -> tuple[str, EnReport]:
    return "single-contraction", pipeline.single_contraction_report(args.n)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="horikawa",
        description="Exact re-verification of the elliptic-to-Horikawa blow-down pipeline.",
    )
    common = _ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hj", parents=[common], help="continued-fraction chain of 1/m(1,q)")
    p.add_argument("--m", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--chain", type=_parse_chain, help="evaluate a chain back to 1/m(1,q)")
    p.set_defaults(handler=_cmd_hj)

    p = sub.add_parser("class-t", help="class-T chain calculus")
    tsub = p.add_subparsers(dest="subcommand", required=True)
    pr = tsub.add_parser("recognize", parents=[common])
    pr.add_argument("--chain", type=_parse_chain, required=True)
    pr.set_defaults(handler=_cmd_class_t_recognize)
    pg = tsub.add_parser("generate", parents=[common])
    pg.add_argument("--max-length", type=int, required=True)
    pg.set_defaults(handler=_cmd_class_t_generate)
    pe = tsub.add_parser("expand", parents=[common])
    pe.add_argument("--chain", type=_parse_chain, required=True)
    pe.set_defaults(handler=_cmd_class_t_expand)

    p = sub.add_parser("en-report", parents=[common], help="full configuration report for n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_en_report)

    p = sub.add_parser("horikawa", parents=[common], help="direct double-cover invariants H(n)")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_horikawa)

    p = sub.add_parser("blowdown", parents=[common], help="smooth contracted chains")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--euler", type=int, required=True)
    p.add_argument("--p-g", type=int, default=None)
    p.add_argument(
        "--chain",
        type=_parse_chain,
        action="append",
        required=True,
        help="comma-separated entries, repeatable",
    )
    p.set_defaults(handler=_cmd_blowdown)

    p = sub.add_parser("w4", parents=[common], help="the F_4 example")
    p.add_argument("--count", type=int, required=True, choices=(1, 2))
    p.set_defaults(handler=_cmd_w4)

    p = sub.add_parser("single-contraction", parents=[common], help="obstruction witness")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_single_contraction)

    # Spelled out, because argparse wraps a generated usage line differently
    # across Python versions.  Set last: add_subparsers derives the
    # subcommands' prog from the usage line.
    parser.usage = f"%(prog)s [-h] {{{','.join(sub.choices)}}} ..."
    return parser


def run(
    argv: Optional[Sequence[str]] = None,
    out: Optional[IO[str]] = None,
    err: Optional[IO[str]] = None,
) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        err.write(f"{exc}\n")
        return 2
    except HelpRequested as exc:
        out.write(str(exc))
        return 0
    try:
        try:
            command, report = args.handler(args)
        except ValueError as exc:
            err.write(f"error: {exc}\n")
            return 2
        body = payload(command, report)
        if args.json:
            write_json(body, out)
        else:
            write_text(body, out)
    except Exception as exc:
        import traceback

        err.write(f"internal error: {type(exc).__name__}: {exc}\n{traceback.format_exc()}")
        return 3
    return 0 if report.all_passed else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
