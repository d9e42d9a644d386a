"""Fresh-process tests of the command line.

In-process tests cannot see what ``lgpoly`` imports, nor an import that
fails only in a clean interpreter or a forked worker: pytest has already
imported the whole package.  Nor can they see what a process that ends
through ``os._exit`` has written by then.  These run ``python`` afresh.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from linksgould import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# modules that evaluating one word does not use, and so must not import;
# the tests that check it run python -S, as site may import some of them
UNUSED_BY_EVAL = (
    "argparse",
    "gettext",
    "locale",
    "shutil",
    "bz2",
    "lzma",
    "concurrent.futures",
    "multiprocessing",
    "dataclasses",
    "json",
    "logging",
    "random",
    "select",
    "tempfile",
    "linksgould.batch",
    "linksgould.checks",
    "linksgould.knotdata",
)


def python(*argv: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    # without PYTHONUNBUFFERED the child's stdout, a pipe, is block-buffered
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, *argv],
        env=env,
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
    result = python("-S", "-c", script)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "1 + 2 q^{2}, - q^{1} - q^{3}, q^{2}"
    assert lines[-1] == "0 []"


def test_the_api_imports_only_what_eval_uses():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import linksgould\n"
        "print(linksgould.to_compact(linksgould.evaluate('1 1 1')))\n"
        f"print(sorted(m for m in {UNUSED_BY_EVAL!r} "
        "if m in sys.modules and m not in before))\n"
    )
    result = python("-S", "-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[{0: 1, 2: 2}, {1: -1, 3: -1}, {2: 1}]", "[]"]


def test_the_package_root_catches_a_refusal_without_the_command_line():
    script = (
        "import sys\n"
        "import linksgould\n"
        "try:\n"
        "    linksgould.parse_braid('1 x')\n"
        "except linksgould.Refusal as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "print(sorted(m for m in ('argparse', 'linksgould.cli') if m in sys.modules))\n"
    )
    result = python("-S", "-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["BraidSyntaxError bad token 'x' at position 2", "[]"]


def test_batch_jobs_imports_no_process_pool(tmp_path):
    (tmp_path / "words.txt").write_text("trefoil 1 1 1\nhopf 1^2\n")
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from linksgould.cli import main\n"
        "code = main(['batch', '--jobs', '2', 'words.txt'])\n"
        "print(code, sorted(m for m in ('concurrent.futures', 'multiprocessing', 'logging', "
        "'select', 'argparse') if m in sys.modules and m not in before))\n"
    )
    result = python("-S", "-c", script, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "trefoil; 0: [0:1, 2:2]; 1: [1:-1, 3:-1]; 2: [2:1]",
        "hopf; 0: [0:-1, 2:-1]; 1: [1:1]",
        "0 []",
    ]


def test_the_corpus_and_selftest_import_neither_dataclasses_nor_inspect():
    # the bench's setup probe loads the corpus; dataclasses imports inspect
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from linksgould.cli import main\n"
        "from linksgould.knotdata import load_corpus\n"
        "entries = len(load_corpus())\n"
        "code = main(['selftest', '--quick'])\n"
        "print(entries, code, sorted(m for m in ('dataclasses', 'inspect', 'argparse') "
        "if m in sys.modules and m not in before))\n"
    )
    result = python("-S", "-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "267 0 []"


@pytest.mark.parametrize("module", ["linksgould", "linksgould.cli"])
def test_python_m_runs_without_a_warning(module):
    # the package root does not import cli, so runpy finds it unloaded
    result = python("-W", "error", "-m", module, "eval", "1 1 1")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "1 + 2 q^{2}, - q^{1} - q^{3}, q^{2}"


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


@pytest.mark.parametrize(
    "argv, line",
    [
        (["eval", "-v", "1 2 1"], "reduced word '1^2': 2 letters, 2 strings"),
        (["batch", "-v", "words.txt"], "reduced word '1^3': 3 letters, 2 strings"),
        (["batch", "-v", "--jobs", "2", "words.txt"],
         "reduced word '1 -2 1 -2': 4 letters, 3 strings"),
    ],
)
def test_verbose_prints_the_engine_debug_lines(tmp_path, argv, line):
    (tmp_path / "words.txt").write_text("trefoil 1 1 1\nfig8 1 -2 1 -2\n")
    result = python("-m", "linksgould", *argv, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stderr.splitlines()
    assert "linksgould.engine: " + line in lines
    plans = [x for x in lines if x.startswith("linksgould.engine: plan rotation=")]
    assert plans and all(" columns=0 " in x for x in plans)
    oracle = [x for x in lines if x.startswith("linksgould.engine: alexander oracle: ")]
    assert len(oracle) == len(plans)


def test_verbose_selftest_prints_the_table_and_no_debug_line():
    result = python("-X", "dev", "-W", "error", "-m", "linksgould", "selftest", "--quick", "-v")
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert sum("braid=" in line for line in result.stdout.splitlines()) == 14


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_verbose_batch_logs_one_line_per_process(tmp_path, jobs):
    (tmp_path / "words.txt").write_text("".join(f"w{k} 1 -2 1 -2\n" for k in range(6)))
    result = python("-m", "linksgould", "batch", "-v", "--jobs", str(jobs), "words.txt",
                    cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    pattern = re.compile(
        r"linksgould\.batch: process (\d+), spread to CPU (\d+|-): "
        r"claimed (\d+) records, busy (\d+\.\d{3})s"
    )
    lines = [m.groups() for m in map(pattern.fullmatch, result.stderr.splitlines()) if m]
    assert sorted(int(k) for k, *_ in lines) == list(range(jobs))
    assert sum(int(claimed) for _, _, claimed, _ in lines) == 6


def test_a_piped_record_is_whole_at_exit(capsys):
    argv = ["eval", "--format", "compact-machine", "--", "-1^64"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    assert len(expected) > 8192  # more than one stdout buffer holds
    result = python("-m", "linksgould", *argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["eval", "1 x 1"], 2, "error: bad token 'x' at position 2"),
        (["eval", "--max-size", "1", "1 1 1"], 1,
         "error: tangle on 2 strings needs M^(2n) = 4^4 entries, over the size cap 1"),
    ],
)
def test_a_refused_word_exits_with_its_code_and_error(argv, code, error):
    result = python("-m", "linksgould", *argv)
    assert (result.returncode, result.stdout) == (code, "")
    assert result.stderr.splitlines() == [error]


def test_the_script_and_python_m_go_through_one_launcher():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["lgpoly"]
    module, _, name = target.partition(":")
    assert (module, getattr(cli, name)) == ("linksgould.cli", cli.launch)
    # __main__.py imports launch from .cli and calls it (importing it here
    # would end the test process)
    tree = ast.parse((SRC / "linksgould" / "__main__.py").read_text())
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom)]
    calls = [n.value for n in tree.body if isinstance(getattr(n, "value", None), ast.Call)]
    assert [(i.module, i.level, [a.name for a in i.names]) for i in imports] == [
        ("cli", 1, [name])
    ]
    assert [ast.unparse(c) for c in calls] == [f"{name}()"]
