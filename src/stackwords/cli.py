"""
Command-line front end. Subcommands: sort, word, count, bound, asymptote,
verify. Output is text for humans or JSON/CSV for machines; JSON is
byte-stable across runs for identical inputs.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
130 (128 + SIGINT) when interrupted (Ctrl-C), 141 (128 + SIGPIPE) when
the reader closes stdout before the output ends.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Iterable

from .counting import (
    brute_force_count,
    catalan,
    three_stack_bound,
    trivial_bound,
    two_stack_count,
)
from .growth import bound_nth_root, critical_point, maximize_growth_rate
from .machine import (
    is_genuine_word,
    iterate_stack_sort,
    min_sorting_passes,
    run_series_machine,
)
from .perms import DEFAULT_ENUMERATION_LIMIT, format_permutation, is_identity, parse_permutation
from .words import count_factor, decode, default_alphabet, forbidden_factor_violations, image_word, validate_word

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141

HARD_ENUMERATION_CAP = 12
# Python's default int-to-str limit: no printed integer may be longer
MAX_PRINTED_DIGITS = 4300
CONVERGENCE_SAMPLES = (10, 50, 200, 1000, 2000)
# Longest permutation that sort and word encode take; word decode takes
# words of as many entries, (t+1) letters each. The worst case is
# word encode --trace with 24 stacks: (t+1)n steps with up to n entries
# each. On a decreasing permutation at n = 200, with stdout to /dev/null,
# the whole process takes about 0.2 s in text and JSON and 0.3 s in CSV,
# and peaks at 15.9-16.2 MiB in each format without a bytecode cache and
# 15.3-15.6 MiB with one, since every format prints each step row as it
# is replayed, on 2 CPUs with Python 3.11.7.
MAX_PERMUTATION_LENGTH = 200
# the keys of each word encode --trace step row, and the CSV header
STEP_COLUMNS = ("step", "letter", "value", "stacks", "output")
# each step row as a text line; str() of its list cells
STEP_LINE = "step {step}: {letter} moves {value}  stacks={stacks} out={output}"


def _emit(
    args: argparse.Namespace,
    payload: dict,
    text_lines: Iterable[str],
    table: str | None = None,
    columns: tuple[str, ...] | None = None,
) -> None:
    """
    Print the text lines, or the payload as JSON, or as CSV: the rows of
    ``payload[table]`` (list cells joined with "; ") under a header of
    ``columns``, or of the first row's keys, else one key/value row per
    entry. The text lines and the table's rows may be iterators, read
    once: each line or row is printed as it is made, so no format holds
    the whole table. JSON prints the payload with the table emptied, its
    rows dumped one by one between the table's brackets, which gives the
    bytes of one ``json.dumps`` of the whole payload.
    """
    if args.output_format == "json" and table:
        # split at the table's key, not at "[]", which another empty list
        # such as word encode's "violations" may print too
        head, key, tail = json.dumps({**payload, table: []}, sort_keys=True).partition(f'"{table}": [')
        print(head + key, end="")
        for i, row in enumerate(payload[table]):
            print(", " * (i > 0) + json.dumps(row, sort_keys=True), end="")
        print(tail)
    elif args.output_format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.output_format == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        if table:
            rows = payload[table]
            writer.writerow(columns or rows[0].keys())
            for row in rows:
                writer.writerow("; ".join(v) if isinstance(v, list) else v for v in row.values())
        else:
            writer.writerow(["key", "value"])
            for key in sorted(payload):
                writer.writerow([key, payload[key]])
    else:
        for line in text_lines:
            print(line)


def _check_digit_cap(n: int, t: int) -> None:
    # Every printed bound and count is at most (t+1)^(2n), which has
    # floor(2n log10(t+1)) + 1 digits: refuse before any arithmetic.
    if t >= 1 and 2 * n * math.log10(t + 1) >= MAX_PRINTED_DIGITS:
        raise ValueError(
            f"n={n}, t={t}: (t+1)^(2n) has more than {MAX_PRINTED_DIGITS} digits, "
            f"the cap on printed integers"
        )


def _capped_permutation(text: str) -> tuple[int, ...]:
    p = parse_permutation(text)
    if len(p) > MAX_PERMUTATION_LENGTH:
        raise ValueError(f"permutation of length {len(p)} is longer than the cap of {MAX_PERMUTATION_LENGTH}")
    return p


def _cmd_sort(args: argparse.Namespace) -> int:
    p = _capped_permutation(args.permutation)
    result = iterate_stack_sort(p, args.passes)
    payload = {
        "input": format_permutation(p),
        "passes": args.passes,
        "result": format_permutation(result),
        "sortable": is_identity(result),
        "min_passes": min_sorting_passes(p),
    }
    text = [
        f"result after {args.passes} pass(es): {payload['result']}",
        f"sortable with {args.passes} pass(es): {'yes' if payload['sortable'] else 'no'}",
        f"minimal passes to sort: {payload['min_passes']}",
    ]
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_word_encode(args: argparse.Namespace) -> int:
    p = _capped_permutation(args.value)
    run = run_series_machine(p, args.stacks, record_steps=args.trace)
    word = run.word
    payload: dict = {
        "input": format_permutation(p),
        "stacks": args.stacks,
        "word": word.letters,
        "aa_factors": count_factor(word, "AA"),
        "output": format_permutation(run.output),
    }
    text = [f"word: {word.letters}", f"AA factors: {payload['aa_factors']}"]
    if args.stacks == 3:
        v = image_word(word)
        hits = forbidden_factor_violations(word)
        payload["projection"] = v.letters
        payload["bb_factors_in_projection"] = count_factor(v, "BB")
        payload["violations"] = [{"rule": rule, "index": index} for rule, index in hits]
        text.append(f"projection over BCD: {v.letters}")
        text.append(f"BB factors in projection: {payload['bb_factors_in_projection']}")
        text.append(f"violations: {payload['violations']}")
    # one row per step under STEP_COLUMNS, read once as the steps are
    # replayed, by whichever format prints: its stacks and output are
    # lists, which text prints through STEP_LINE, or for CSV cells in the
    # input's one-line notation (compact digits for n <= 9), one stack per
    # "; "-separated part
    lines: Iterable[str] = text
    if args.trace:
        join = "".join if len(p) <= 9 else ",".join
        cell = (lambda x: join(map(str, x))) if args.output_format == "csv" else list
        rows = payload["steps"] = (
            dict(zip(STEP_COLUMNS, (s.step, s.letter, s.value, [cell(x) for x in s.stacks], cell(s.output))))
            for s in run.steps
        )
        lines = itertools.chain(text, map(STEP_LINE.format_map, rows))
    _emit(args, payload, lines, "steps" if args.trace else None, STEP_COLUMNS)
    return EXIT_OK


def _cmd_word_decode(args: argparse.Namespace) -> int:
    if args.trace:
        raise ValueError("--trace applies to word encode only")
    cap = len(default_alphabet(args.stacks)) * MAX_PERMUTATION_LENGTH  # checks the stack count first
    if len(args.value) > cap:
        raise ValueError(
            f"word of length {len(args.value)} is longer than the cap of {cap} letters for {args.stacks} stacks"
        )
    word = validate_word(args.value, args.stacks)
    recovered = decode(word)
    payload = {
        "word": word.letters,
        "stacks": args.stacks,
        "permutation": format_permutation(recovered),
        "roundtrip": is_genuine_word(word),
    }
    text = [
        f"permutation: {payload['permutation']}",
        f"re-encoding reproduces the word: {'yes' if payload['roundtrip'] else 'no'}",
    ]
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    n, t, mode = args.length, args.stacks, args.mode
    payload: dict = {"n": n, "t": t, "mode": mode}
    text: list[str] = []

    if mode != "formula" and n > args.enumeration_limit:
        raise ValueError(f"n={n} exceeds enumeration limit {args.enumeration_limit}")

    if mode != "brute":
        _check_digit_cap(n, t)
        if t == 1 or t == 2:
            formula = payload["formula"] = catalan(n) if t == 1 else two_stack_count(n)
            text.append(f"formula count: {formula}")
        else:
            bound = payload["upper_bound"] = three_stack_bound(n) if t == 3 else trivial_bound(n, t)
            payload["warning"] = f"no closed formula for t = {t}; reporting an upper bound, not a count"
            text.append(f"upper bound: {bound}   (no closed formula for t = {t})")

    if mode != "formula":
        brute = payload["brute"] = brute_force_count(n, t, args.enumeration_limit)
        text.append(f"brute-force count: {brute}")
        if mode == "both":
            if "formula" in payload:
                verdict = "AGREE" if payload["formula"] == brute else "DISAGREE"
            else:
                verdict = "CONSISTENT" if brute <= payload["upper_bound"] else "INCONSISTENT"
            payload["verdict"] = verdict
            text.append(f"verdict: {verdict}")

    _emit(args, payload, text)
    return EXIT_VERIFICATION_FAILED if payload.get("verdict") in ("DISAGREE", "INCONSISTENT") else EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    n, t = args.length, args.stacks
    _check_digit_cap(n, t)
    payload: dict = {"n": n, "t": t, "trivial_bound": trivial_bound(n, t)}
    text = [f"trivial upper bound (t+1)^(2n): {payload['trivial_bound']}"]
    if t == 3:
        payload["insertion_bound"] = three_stack_bound(n)
        text.append(f"insertion upper bound: {payload['insertion_bound']}")
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_asymptote(args: argparse.Namespace) -> int:
    golden = maximize_growth_rate(args.tolerance, "golden_section")
    bisection = maximize_growth_rate(args.tolerance, "derivative_bisection")
    closed = critical_point()
    convergence = [{"n": n, "bound_nth_root": bound_nth_root(n)} for n in CONVERGENCE_SAMPLES]
    payload = {
        "x_star": golden.x_star,
        "g_star": golden.g_star,
        "method": golden.method,
        "iterations": golden.iterations,
        "tolerance": golden.tolerance,
        "x_star_bisection": bisection.x_star,
        "x_star_closed_form": closed,
        "convergence": convergence,
    }
    text = [
        f"x_star (golden section):      {golden.x_star:.7g}",
        f"x_star (derivative bisection): {bisection.x_star:.7g}",
        f"x_star (closed form):          {closed:.7g}",
        f"maximum growth rate: {golden.g_star:.7g}",
        "n-th root of the exact bound:",
    ]
    text.extend(f"  n={row['n']:>5}: {row['bound_nth_root']:.6f}" for row in convergence)
    _emit(args, payload, text, table="convergence")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verification  # the one command that loads verify

    results = run_verification(args.level)  # raises ValueError on an unknown level
    passed = all(r.passed for r in results)
    payload = {"level": args.level, "passed": passed, "checks": [asdict(r) for r in results]}
    text = []
    for r in results:
        text.append(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        text.extend(f"       witness: {w}" for w in r.witnesses)
    text.append(f"{sum(r.passed for r in results)}/{len(results)} property families passed")
    _emit(args, payload, text, table="checks")
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


def _positive_float(value: str) -> float:
    x = float(value)
    if not math.isfinite(x) or x <= 0:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return x


def _enumeration_limit(value: str) -> int:
    n = int(value)
    if not 1 <= n <= HARD_ENUMERATION_CAP:
        raise argparse.ArgumentTypeError(f"limit must be in 1..{HARD_ENUMERATION_CAP}, got {value}")
    return n


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        # argparse drops a failed write of its help; write and flush here
        # instead, so that a closed stdout reaches main's BrokenPipeError
        # path (subparsers are built from this class too)
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stackwords",
        description="Stack sorting, stack words, and exact enumeration of t-stack sortable permutations.",
    )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text", dest="output_format")
    parser.add_argument("--limit", type=_enumeration_limit, default=DEFAULT_ENUMERATION_LIMIT, dest="enumeration_limit",
                        help="max length for brute-force enumeration (<= %d)" % HARD_ENUMERATION_CAP)
    parser.add_argument("--tolerance", type=_positive_float, default=1e-10, help="x tolerance for maximization")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sort = sub.add_parser("sort", help="apply the stack-sorting operator repeatedly")
    p_sort.add_argument("permutation")
    p_sort.add_argument("-t", "--passes", type=int, default=1)
    p_sort.set_defaults(handler=_cmd_sort)

    p_word = sub.add_parser("word", help="encode a permutation as a stack word, or decode one")
    p_word.add_argument("direction", choices=("encode", "decode"))
    p_word.add_argument("value", help="permutation (encode) or word (decode)")
    p_word.add_argument("-t", "--stacks", type=int, default=3)
    p_word.add_argument("--trace", action="store_true", help="emit per-step machine records (encode only)")
    p_word.set_defaults(handler=lambda a: _cmd_word_encode(a) if a.direction == "encode" else _cmd_word_decode(a))

    p_count = sub.add_parser("count", help="count t-stack sortable permutations")
    p_count.add_argument("-n", "--length", type=int, required=True)
    p_count.add_argument("-t", "--stacks", type=int, default=1)
    p_count.add_argument("--mode", choices=("formula", "brute", "both"), default="both")
    p_count.set_defaults(handler=_cmd_count)

    p_bound = sub.add_parser("bound", help="upper bounds for the t-stack sortable count")
    p_bound.add_argument("-n", "--length", type=int, required=True)
    p_bound.add_argument("-t", "--stacks", type=int, default=3)
    p_bound.set_defaults(handler=_cmd_bound)

    p_asym = sub.add_parser("asymptote", help="maximize the growth rate and tabulate convergence")
    p_asym.set_defaults(handler=_cmd_asymptote)

    p_verify = sub.add_parser("verify", help="run the self-verification property suites")
    p_verify.add_argument("--level", default="quick", help="quick or full (default: %(default)s)")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main's one parser per process, built on its first call: parse_args
    # keeps each call's values in the Namespace it returns, so later calls
    # neither rebuild the parser nor leave its reference cycles behind
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)  # --help prints here, then raises SystemExit(0)
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # that the flush at shutdown cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
