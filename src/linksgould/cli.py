"""Command-line front end.

Subcommands: ``eval`` (one braid word), ``batch`` (file of named words,
run by the ``batch`` module), ``selftest`` (model identities, corpus
regression, Markov property suite, all run and printed by the ``checks``
module), ``dump-rmatrix`` (the crossing tensor as a 16x16 grid).

Machine-format output on stdout is byte-identical across runs; human
metadata and timing go to stderr for the machine formats.

``main`` parses the arguments, runs the subcommand and returns its exit
code, so in-process callers get it back as from any function.  ``launch``,
the entry point of ``python -m linksgould`` and of the ``lgpoly`` script,
runs ``main``, flushes stdout and stderr and ends the process with
``os._exit``: interpreter teardown, the final collection and ``atexit``
handlers are skipped.  The program registers no exit handler and holds no
buffered output past those flushes, so nothing is lost; an exception,
argparse's ``SystemExit`` among them, takes the normal exit path.
``logging`` is imported only under ``-v``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time

from .alexander import AlexanderMismatchError
from .braid import BraidSyntaxError, BraidWord, closure_info, parse, render, writhe
from .engine import (
    DEFAULT_SIZE_CAP,
    ExponentRangeError,
    NonScalarTangleError,
    SizeCapExceeded,
    evaluate_raw,
    lg_sigma,
)
from .invariant import (
    MachineFormatError,
    StructureError,
    is_palindromic_q,
    parity_violations,
    render_compact_text,
    render_laurent,
    render_machine,
    to_compact,
    to_invariant,
)
from .ring import LaurentQP

# batch (the batch subcommand), json (--format json) and checks (selftest,
# which loads the corpus) are imported only where they are used: each eval
# is a fresh process, and on a small word start-up is most of its cost.

FORMATS = ("compact-text", "compact-machine", "laurent", "json")
EVAL_ERRORS = (
    BraidSyntaxError,
    SizeCapExceeded,
    ExponentRangeError,
    NonScalarTangleError,
    AlexanderMismatchError,
    StructureError,
    MachineFormatError,
)
# a braid word led by an inverse letter and going on past its digits
_DASH_LED_WORD = re.compile(r"-\d+[,^][-\d,^]*")


def _evaluate(
    word: str, strings: int | None, max_size: int
) -> tuple[BraidWord, LaurentQP, float]:
    """The parsed word, its (q, P) polynomial, and the seconds spent on
    evaluating it (parsing aside)."""
    braid = parse(word, strings)
    start = time.perf_counter()
    poly = to_invariant(evaluate_raw(braid, max_size=max_size))
    return braid, poly, time.perf_counter() - start


def _render(braid: BraidWord, poly: LaurentQP, fmt: str, name: str | None = None) -> str:
    """The stdout record of one evaluated word in the given format."""
    compact = to_compact(poly)
    if fmt == "compact-text":
        return render_compact_text(compact)
    if fmt == "compact-machine":
        return render_machine(compact, name)
    if fmt == "laurent":
        return render_laurent(poly)
    import json

    return json.dumps(
        {
            "name": name,
            "word": render(braid),
            "strings": braid.n_strings,
            "letters": braid.expanded_length(),
            "writhe": writhe(braid),
            "components": closure_info(braid).components,
            "palindromic_q": is_palindromic_q(poly),
            "compact": [sorted(block.items()) for block in compact],
        },
        sort_keys=True,
    )


def _metadata(braid: BraidWord, poly: LaurentQP, elapsed: float) -> list[str]:
    """The human metadata lines that eval prints after its record."""
    meta = [
        f"strings:      {braid.n_strings}",
        f"letters:      {braid.expanded_length()}",
        f"writhe:       {writhe(braid)}",
        f"components:   {closure_info(braid).components}",
        f"palindromic:  {'yes' if is_palindromic_q(poly) else 'no'}",
        f"elapsed:      {elapsed:.3f}s",
    ]
    violations = parity_violations(poly)
    if violations:
        meta.append(f"parity violations: {violations}")
    if not poly:
        meta.append("note: value is 0 (the closure has a split component)")
    return meta


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        braid, poly, elapsed = _evaluate(args.word, args.strings, args.max_size)
        record = _render(braid, poly, args.format)
    except EVAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, BraidSyntaxError) else 1
    print(record)
    stream = sys.stdout if args.format == "compact-text" else sys.stderr
    for line in _metadata(braid, poly, elapsed):
        print(line, file=stream)
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    from .batch import cmd_batch

    return cmd_batch(args)


def cmd_selftest(args: argparse.Namespace) -> int:
    from .checks import cmd_selftest

    return cmd_selftest(args)


def cmd_dump_rmatrix(_: argparse.Namespace) -> int:
    sig = lg_sigma()
    pairs = [divmod(i, 4) for i in range(16)]  # the index pair of row or column 4a + b
    cells = [[str(sig.entry(row, col) or ".") for col in pairs] for row in pairs]
    widths = [max(len(row[c]) for row in cells) for c in range(16)]
    print("crossing tensor gauged by D = diag(1, 1, 1/Y, 1); row = (a b) out, col = (c d) in")
    for (a, b), row in zip(pairs, cells):
        body = "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        print(f"[{a + 1} {b + 1}] {body}")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgpoly",
        description="Exact evaluation of the two-variable Links-Gould "
        "invariant of the closure of a braid word.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one braid word")
    p_eval.add_argument("word", help="braid word, e.g. '1 1 1' or '1^3'")
    p_eval.add_argument("--strings", type=int, default=None)
    p_eval.add_argument("--format", choices=FORMATS, default="compact-text")
    p_eval.add_argument("--max-size", type=_positive_int, default=DEFAULT_SIZE_CAP)
    p_eval.add_argument("-v", "--verbose", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_batch = sub.add_parser("batch", help="evaluate a file of named words")
    p_batch.add_argument("file", help="one 'name word...' per line")
    p_batch.add_argument("--jobs", type=_positive_int, default=1)
    p_batch.add_argument("--max-size", type=_positive_int, default=DEFAULT_SIZE_CAP)
    p_batch.add_argument("-v", "--verbose", action="store_true")
    p_batch.set_defaults(func=cmd_batch)

    p_self = sub.add_parser("selftest", help="model identities, corpus, Markov suite")
    p_self.add_argument("--quick", action="store_true", help="skip the Markov suite")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--braids", type=_positive_int, default=100)
    p_self.add_argument("-v", "--verbose", action="store_true")
    p_self.set_defaults(func=cmd_selftest)

    p_dump = sub.add_parser("dump-rmatrix", help="print the crossing tensor grid")
    p_dump.add_argument("-v", "--verbose", action="store_true")
    p_dump.set_defaults(func=cmd_dump_rmatrix)
    return parser


def main(argv: list[str] | None = None) -> int:
    # argparse takes a word such as "-1^48" for an option (none of ours starts
    # "-<digit>"); a leading space, which the braid grammar ignores, prevents it
    argv = sys.argv[1:] if argv is None else argv
    argv = [" " + a if _DASH_LED_WORD.fullmatch(a) else a for a in argv]
    args = build_parser().parse_args(argv)
    if getattr(args, "verbose", False):
        # nothing in the package logs above DEBUG, so without -v there is
        # nothing to configure; the stderr handler flushes every record it
        # writes, so the exit in launch loses none
        import logging

        logging.basicConfig(level=logging.DEBUG, format="%(name)s: %(message)s", stream=sys.stderr)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe is found here, not at exit
    except BrokenPipeError:
        # the reader went away: the rest of the output goes to devnull, so
        # the flush at exit raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def launch() -> None:
    """Run main and end the process with its code, skipping interpreter
    teardown (see the module docstring)."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    launch()
