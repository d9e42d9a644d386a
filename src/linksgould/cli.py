"""Command-line front end.

Subcommands: ``eval`` (one braid word), ``batch`` (file of named words,
run by the ``batch`` module), ``selftest`` (model identities, corpus
regression, Markov property suite, all run and printed by the ``checks``
module), ``dump-rmatrix`` (the crossing tensor as a 16x16 grid).

``evaluate`` is the one parse -> evaluate -> convert pipeline of the API
(bound lazily at the package root), eval, batch and selftest.  It calls its
stages through the names this module binds, which lgbench/tracer.py wraps.

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
``logging`` is imported only under ``eval -v`` and ``batch -v``; ``selftest
-v`` adds the regression table and no debug line.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time

from .alexander import AlexanderMismatchError
from .braid import BraidSyntaxError, BraidWord, components, parse, render, with_strings, writhe
from .engine import (
    DEFAULT_SIZE_CAP,
    ExponentRangeError,
    NonScalarTangleError,
    SizeCapExceeded,
    evaluate_raw,
    generator_power,
)
from .invariant import (
    InvariantPoly,
    MachineFormatError,
    StructureError,
    is_palindromic_q,
    render_compact_text,
    render_laurent,
    render_machine,
    to_compact,
    to_invariant,
)

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


def evaluate(
    word: str | BraidWord,
    strings: int | None = None,
    max_size: int = DEFAULT_SIZE_CAP,
) -> InvariantPoly:
    """The (q, P) polynomial of the closure of a braid word, given as a
    :class:`BraidWord` or as text in the generator grammar (e.g. ``"1 1 1"``
    for the trefoil), on ``strings`` strings if given: the added ones are
    free.  A refused word raises one of ``EVAL_ERRORS``."""
    braid = parse(word, strings) if isinstance(word, str) else with_strings(word, strings)
    return to_invariant(evaluate_raw(braid, max_size=max_size))


def _facts(braid: BraidWord, poly: InvariantPoly) -> dict:
    """The facts of an evaluated word that eval prints: in its json record
    and in its metadata lines."""
    return {
        "word": render(braid),
        "strings": braid.n_strings,
        "letters": braid.expanded_length(),
        "writhe": writhe(braid),
        "components": components(braid),
        "palindromic_q": is_palindromic_q(poly),
    }


def _render(
    poly: InvariantPoly, fmt: str, name: str | None = None, facts: dict | None = None
) -> str:
    """The stdout record of one evaluated word in the given format; only
    json reads the word's facts."""
    compact = to_compact(poly)
    if fmt == "compact-text":
        return render_compact_text(compact)
    if fmt == "compact-machine":
        return render_machine(compact, name)
    if fmt == "laurent":
        return render_laurent(poly)
    import json

    record = {"name": name, **facts, "compact": [sorted(block.items()) for block in compact]}
    return json.dumps(record, sort_keys=True)


def _metadata(facts: dict, poly: InvariantPoly, elapsed: float) -> list[str]:
    """The human metadata lines that eval prints after its record."""
    meta = [
        f"strings:      {facts['strings']}",
        f"letters:      {facts['letters']}",
        f"writhe:       {facts['writhe']}",
        f"components:   {facts['components']}",
        f"palindromic:  {'yes' if facts['palindromic_q'] else 'no'}",
        f"elapsed:      {elapsed:.3f}s",
    ]
    if not poly:
        meta.append("note: value is 0 (the closure has a split component)")
    return meta


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        braid = parse(args.word, args.strings)
        start = time.perf_counter()
        poly = evaluate(braid, max_size=args.max_size)
        elapsed = time.perf_counter() - start
        facts = _facts(braid, poly)
        record = _render(poly, args.format, facts=facts)
    except EVAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, BraidSyntaxError) else 1
    print(record)
    stream = sys.stdout if args.format == "compact-text" else sys.stderr
    for line in _metadata(facts, poly, elapsed):
        print(line, file=stream)
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    from .batch import cmd_batch

    return cmd_batch(args)


def cmd_selftest(args: argparse.Namespace) -> int:
    from .checks import cmd_selftest

    return cmd_selftest(args)


def cmd_dump_rmatrix(_: argparse.Namespace) -> int:
    sig = generator_power(1).entries
    pairs = [divmod(i, 4) for i in range(16)]  # the index pair of row or column 4a + b
    cells = [[str(sig.get((row, col), ".")) for col in pairs] for row in pairs]
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
    # its own dest: main turns on the engine's debug lines for "verbose" only
    p_self.add_argument("-v", "--verbose", action="store_true", dest="table")
    p_self.set_defaults(func=cmd_selftest)

    p_dump = sub.add_parser("dump-rmatrix", help="print the crossing tensor grid")
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
