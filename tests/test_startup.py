"""Fresh-process tests of the command line.

In-process tests cannot see what ``lgpoly`` imports, nor an import that
fails only in a clean interpreter or a forked pool worker: pytest has
already imported the whole package.  These run ``python`` afresh.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# modules that evaluating one word does not use, and so must not import
UNUSED_BY_EVAL = (
    "concurrent.futures",
    "multiprocessing",
    "dataclasses",
    "json",
    "linksgould.checks",
    "linksgould.knotdata",
)


def python(*argv: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_eval_imports_only_what_it_uses():
    # modules the interpreter loaded before the package are not its doing
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from linksgould.cli import main\n"
        "code = main(['eval', '1 1 1'])\n"
        f"print(code, sorted(m for m in {UNUSED_BY_EVAL!r} "
        "if m in sys.modules and m not in before))\n"
    )
    result = python("-c", script)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "1 + 2 q^{2}, - q^{1} - q^{3}, q^{2}"
    assert lines[-1] == "0 []"


def test_json_format_in_a_fresh_process():
    result = python("-m", "linksgould", "eval", "--format", "json", "1 1 1")
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout)
    assert record["word"] == "1^3" and record["components"] == 1
    assert record["compact"] == [[[0, 1], [2, 2]], [[1, -1], [3, -1]], [[2, 1]]]


@pytest.mark.parametrize(
    "argv, line",
    [
        (["eval", "--", "-1^48"], "letters:      48"),
        (["batch", "--jobs", "2", "words.txt"], "hopf; 0: [0:-1, 2:-1]; 1: [1:1]"),
        (["selftest", "--quick"], "result: all passed"),
        (["dump-rmatrix"], "crossing tensor gauged by D = diag(1, 1, 1/Y, 1); "
         "row = (a b) out, col = (c d) in"),
    ],
)
def test_every_subcommand_runs_in_a_fresh_process(tmp_path, argv, line):
    (tmp_path / "words.txt").write_text("trefoil 1 1 1\nfig8 1 -2 1 -2\nhopf 1^2\n")
    result = python("-m", "linksgould", *argv, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert line in result.stdout.splitlines()


@pytest.mark.parametrize("argv", [["eval", "--", "-1^64"], ["batch", "words.txt"]])
def test_a_closed_stdout_pipe_ends_without_a_traceback(tmp_path, argv):
    (tmp_path / "words.txt").write_text("trefoil 1 1 1\nhopf 1^2\n")
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "linksgould", *argv],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            cwd=tmp_path,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
