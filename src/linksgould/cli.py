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

``COMMANDS`` is the one table of the subcommands and their arguments, and
``parse_args`` reads a command line against it, with no ``argparse`` (its
imports cost each fresh process milliseconds): whole option names only,
as ``--opt value`` or ``--opt=value``, the last repeat winning; ``--``
ends the options, and a token of ``-`` and a digit is a word (``-1^48``).

``main`` parses the arguments, runs the subcommand and returns its exit
code, so in-process callers get it back as from any function.  ``launch``,
the entry point of ``python -m linksgould`` and of the ``lgpoly`` script,
runs ``main``, flushes stdout and stderr and ends the process with
``os._exit``: interpreter teardown, the final collection and ``atexit``
handlers are skipped.  The program registers no exit handler and holds no
buffered output past those flushes, so nothing is lost; an exception, a
usage error's ``SystemExit`` among them, takes the normal exit path.
``logging`` is imported only under ``eval -v`` and ``batch -v``; ``selftest
-v`` adds the regression table and no debug line.
"""

from __future__ import annotations

import os
import sys
import time
from types import SimpleNamespace

from .braid import (
    BraidSyntaxError, BraidWord, Refusal, components, parse, render, with_strings, writhe
)
from .engine import DEFAULT_SIZE_CAP, evaluate_raw, generator_power
from .invariant import (
    InvariantPoly,
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


def evaluate(
    word: str | BraidWord,
    strings: int | None = None,
    max_size: int = DEFAULT_SIZE_CAP,
) -> InvariantPoly:
    """The (q, P) polynomial of the closure of a braid word, given as a
    :class:`BraidWord` or as text in the generator grammar (e.g. ``"1 1 1"``
    for the trefoil), on ``strings`` strings if given: the added ones are
    free.  A refused word raises a :class:`Refusal`."""
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


def cmd_eval(args: SimpleNamespace) -> int:
    try:
        braid = parse(args.word, args.strings)
        start = time.perf_counter()
        poly = evaluate(braid, max_size=args.max_size)
        elapsed = time.perf_counter() - start
        facts = _facts(braid, poly)
        record = _render(poly, args.format, facts=facts)
    except Refusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, BraidSyntaxError) else 1
    print(record)
    stream = sys.stdout if args.format == "compact-text" else sys.stderr
    for line in _metadata(facts, poly, elapsed):
        print(line, file=stream)
    return 0


def cmd_batch(args: SimpleNamespace) -> int:
    from .batch import cmd_batch

    return cmd_batch(args)


def cmd_selftest(args: SimpleNamespace) -> int:
    from .checks import cmd_selftest

    return cmd_selftest(args)


def cmd_dump_rmatrix(_: SimpleNamespace) -> int:
    sig = generator_power(1).entries
    pairs = [divmod(i, 4) for i in range(16)]  # the index pair of row or column 4a + b
    cells = [[str(sig.get((row, col), ".")) for col in pairs] for row in pairs]
    widths = [max(len(row[c]) for row in cells) for c in range(16)]
    print("crossing tensor gauged by D = diag(1, 1, 1/Y, 1); row = (a b) out, col = (c d) in")
    for (a, b), row in zip(pairs, cells):
        body = "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        print(f"[{a + 1} {b + 1}] {body}")
    return 0


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


def _format(text: str) -> str:
    if text not in FORMATS:
        raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(FORMATS)})")
    return text


_MAX_SIZE = ("--max-size", "max_size", _positive_int, DEFAULT_SIZE_CAP, "the cap on 4^(2n) entries")
# command -> (help, function, positional names, options as (flags, attribute,
# converter, default, help)); a flag has no converter and is True if given
COMMANDS = {
    "eval": ("evaluate one braid word, e.g. '1 1 1' or '1^3'", cmd_eval, ("word",), (
        ("--strings", "strings", _int, None, "the string count, if above the word's own"),
        ("--format", "format", _format, "compact-text", "one of " + ", ".join(FORMATS)),
        _MAX_SIZE,
        ("-v --verbose", "verbose", None, False, "log the plan and each step to stderr"),
    )),
    "batch": ("evaluate a file of 'name word...' lines", cmd_batch, ("file",), (
        ("--jobs", "jobs", _positive_int, 1, "the processes to evaluate in, at most"),
        _MAX_SIZE,
        ("-v --verbose", "verbose", None, False, "log the plan, each step and each process"),
    )),
    "selftest": ("model identities, corpus, Markov suite", cmd_selftest, (), (
        ("--quick", "quick", None, False, "skip the Markov suite"),
        ("--seed", "seed", _int, 0, "the seed of the Markov suite's random braids"),
        ("--braids", "braids", _positive_int, 100, "the Markov suite's braid count"),
        # its own attribute: main turns on the engine's debug lines for "verbose" only
        ("-v --verbose", "table", None, False, "print the regression table"),
    )),
    "dump-rmatrix": ("print the crossing tensor grid", cmd_dump_rmatrix, (), ()),
}


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: lgpoly [-h] {" + ",".join(COMMANDS) + "} ..."
    _, _, positionals, options = COMMANDS[command]
    flags = "[-h] [options]" if options else "[-h]"
    return " ".join(["usage: lgpoly", command, flags, *positionals])


def _help(command: str | None) -> SystemExit:
    """Print the help of the command, or of lgpoly; returns the exit to raise."""
    about = "Exact evaluation of the Links-Gould invariant of the closure of a braid word."
    rows = [(name, spec[0]) for name, spec in COMMANDS.items()]
    if command is not None:
        about, _, _, options = COMMANDS[command]
        rows = [(", ".join(flags.split()) + f" {attribute.upper()}" * bool(convert), text)
                for flags, attribute, convert, _, text in options]
    rows.append(("-h, --help", "print this help and exit"))
    width = max(len(name) for name, _ in rows) + 2
    print(_usage(command), "", about, "", *(f"  {n:<{width}}{t}" for n, t in rows), sep="\n")
    return SystemExit(0)


def _usage_error(command: str | None, message: str) -> SystemExit:
    """Print the usage line and the error to stderr; returns the exit to raise."""
    prog = "lgpoly" if command is None else f"lgpoly {command}"
    print(_usage(command), f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    return SystemExit(2)


def _is_option(token: str) -> bool:
    # "-" alone and a word led by an inverse letter, such as "-1^48", are not
    return token[:1] == "-" and len(token) > 1 and not token[1].isdigit()


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command line read against COMMANDS: the command, its function as
    ``func`` and one attribute per argument (see the module docstring)."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        raise _help(None)
    if command not in COMMANDS:
        raise _usage_error(None, "the following arguments are required: command" if command is None
                           else f"invalid command {command!r} (choose from {', '.join(COMMANDS)})")
    _, func, positionals, options = COMMANDS[command]
    by_flag = {flag: option for option in options for flag in option[0].split()}
    args = SimpleNamespace(command=command, func=func, **{o[1]: o[3] for o in options})
    words = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            words += tokens  # the rest, which ends the loop
        elif not _is_option(token):
            words.append(token)
        elif token in ("-h", "--help"):
            raise _help(command)
        else:
            flag, given, value = token.partition("=")
            if flag not in by_flag:
                raise _usage_error(command, f"unrecognized arguments: {token}")
            flags, attribute, convert, _, _ = by_flag[flag]
            name = "/".join(flags.split())
            if convert is None and given:
                raise _usage_error(command, f"argument {name}: ignored explicit argument {value!r}")
            if convert is not None and not given:
                value = next(tokens, None)
                if value is None or _is_option(value):
                    raise _usage_error(command, f"argument {name}: expected one argument")
            try:
                value = True if convert is None else convert(value)
            except ValueError as exc:
                raise _usage_error(command, f"argument {name}: {exc}") from None
            setattr(args, attribute, value)
    if len(words) < len(positionals):
        missing = ", ".join(positionals[len(words):])
        raise _usage_error(command, f"the following arguments are required: {missing}")
    if len(words) > len(positionals):
        raise _usage_error(command, "unrecognized arguments: " + " ".join(words[len(positionals):]))
    vars(args).update(zip(positionals, words))
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
