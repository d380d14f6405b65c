"""Command-line interface.

Subcommands: check, invariants, decompose, gen, corpus.  Verdict data goes
to stdout as JSON (one object per input line when reading "-"); usage and
runtime errors go to stderr with exit 1.  check exits 2 on exclusion and
corpus exits 3 on any violation.  A "-" graph6 stream answers a failed line
K with {"line": K, "error": ...} and goes on, then exits 1.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .constructions import (cycle, extremal_omega5, extremal_witnesses,
                            ramsey_13, wheel6)
from .corpus import (VALID_CHECKS, exhaustive_population, run_verification,
                     sample_population, validate_checks)
from .graphs import is_connected, parse_dimacs, parse_graph6, serialize_graph6
from .invariants import compute_invariants
from .patterns import check_membership
from .structure import check_lemma1, choose_partitioning_pair, decompose

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EXCLUDED = 2
EXIT_VIOLATION = 3
_SEVERITY = (EXIT_OK, EXIT_EXCLUDED, EXIT_ERROR)  # a stream exits with the worst


class CliError(Exception):
    pass


_FAILURES = (CliError, ValueError, RuntimeError, OSError)  # input and file errors


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def answer_check(g, args) -> tuple[dict, int]:
    witness = check_membership(g)
    out = {"graph6": serialize_graph6(g), "member": witness is None,
           "connected": is_connected(g)}
    if witness is None:
        return out, EXIT_OK
    return {**out, "witness": witness.to_json_dict()}, EXIT_EXCLUDED


def answer_invariants(g, args) -> tuple[dict, int]:
    return compute_invariants(g, engine=args.engine), EXIT_OK


def answer_decompose(g, args) -> tuple[dict, int]:
    pair = args.pair or choose_partitioning_pair(g)
    if pair is None:
        raise CliError("no partitioning pair: every maximum-degree "
                       "vertex is adjacent to all others")
    dec = decompose(g, *pair)
    return {**dec.to_json_dict(), **check_lemma1(g, dec)}, EXIT_OK


def _inputs(args):
    """(line number, text) per input graph; None where an error ends the run."""
    if args.graph != "-":
        return [(None, args.graph)]
    if args.format == "dimacs":
        return [(None, sys.stdin.read())]
    return ((k, line) for k, line in enumerate(sys.stdin, start=1) if line.strip())


def cmd_per_graph(args) -> int:
    """Print args.answer's JSON record for each input graph."""
    parse = parse_dimacs if args.format == "dimacs" else parse_graph6
    status = EXIT_OK
    for lineno, text in _inputs(args):
        try:
            record, code = args.answer(parse(text), args)
        except _FAILURES as exc:
            if lineno is None:
                raise
            print(f"chibound: error: line {lineno}: {exc}", file=sys.stderr)
            record, code = {"line": lineno, "error": str(exc)}, EXIT_ERROR
        print(json.dumps(record))
        status = max(status, code, key=_SEVERITY.index)
    return status


_GENERATORS = {"c5": lambda: [cycle(5)], "w6": lambda: [wheel6()],
               "omega5": lambda: [extremal_omega5()],
               "extremal": extremal_witnesses,
               "boundary": lambda: [ramsey_13()]}  # the one family outside the class


def cmd_gen(args) -> int:
    for g in _GENERATORS[args.family]():
        line = serialize_graph6(g)
        if args.verify:
            print(json.dumps({"graph6": line, "report": compute_invariants(g)}))
        else:
            print(line)
    return EXIT_OK


def cmd_corpus(args) -> int:
    if args.mode == "exhaustive":
        if len(args.params) != 1:
            raise CliError("corpus exhaustive takes exactly one parameter: n")
        population = exhaustive_population(args.params[0])
    else:
        if len(args.params) != 3:
            raise CliError("corpus sample takes: n count seed")
        population = sample_population(*args.params)
    checks = validate_checks(c.strip() for c in args.checks.split(",") if c.strip())
    # Opened after every argument is checked, so that a rejected command
    # leaves no file behind, and before the campaign, so that an unwritable
    # path fails before it runs.
    with open(args.dump_violations or os.devnull, "w") as dump:
        report = run_verification(population, checks, jobs=args.jobs)
        print(report.to_json())
        # Each violating graph once, in the order of its first violation.
        dump.writelines(line + "\n" for line in
                        dict.fromkeys(cert["graph6"] for cert in report.violations))
    return EXIT_VIOLATION if report.violations else EXIT_OK


def _job_count(text: str) -> int:
    """--jobs: at least 1; more workers than the CPUs this process may run
    on are not started."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    if hasattr(os, "sched_getaffinity"):
        return min(jobs, len(os.sched_getaffinity(0)))
    return min(jobs, os.cpu_count() or 1)


def build_parser() -> _Parser:
    parser = _Parser(prog="chibound",
                     description="Toolkit for a hereditary graph class: "
                                 "membership, invariants, decomposition, "
                                 "extremal witnesses, verification corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_per_graph(name, answer, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("graph", help="graph6 string, or '-' for stdin lines")
        p.add_argument("--format", choices=("graph6", "dimacs"),
                       default="graph6")
        p.set_defaults(func=cmd_per_graph, answer=answer)
        return p

    add_per_graph("check", answer_check, "class membership verdict")

    p = add_per_graph("invariants", answer_invariants, "omega, chi, degree, bound report")
    engines = p.add_mutually_exclusive_group()
    engines.add_argument("--exact", dest="engine", action="store_const",
                         const="exact", default="auto",
                         help="force the branch-and-bound chi engine")
    engines.add_argument("--matching", dest="engine", action="store_const",
                         const="matching", help="force the matching-identity chi engine")

    p = add_per_graph("decompose", answer_decompose, "partitioning-pair "
                      "decomposition and structural property report")
    p.add_argument("--pair", nargs=2, type=int, metavar=("V", "W"))

    p = sub.add_parser("gen", help="emit a generator's graph6 lines")
    p.add_argument("family", choices=sorted(_GENERATORS))
    p.add_argument("--verify", action="store_true",
                   help="attach a full invariant report")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("corpus", help="run a verification campaign")
    p.add_argument("mode", choices=("exhaustive", "sample"))
    p.add_argument("params", nargs="+", type=int,
                   help="exhaustive: n; sample: n count seed")
    p.add_argument("--checks", default="bound",
                   help=f"comma list from {','.join(VALID_CHECKS)}")
    p.add_argument("--jobs", type=_job_count, default=1,
                   help="worker processes, at most the CPUs this process may run on")
    p.add_argument("--dump-violations", metavar="PATH",
                   help="write violating graph6 lines to a file")
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:  # an OSError, so it must come before _FAILURES
        # The reader closed stdout.  Point it at devnull so that the flush
        # at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except _FAILURES as exc:
        print(f"chibound: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
