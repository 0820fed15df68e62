"""The README's CLI lines and Python examples run as written."""

import pathlib
import re
import shlex

import pytest

from progvar.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


CLI_LINES = [line for block in fenced_blocks("sh") for line in block.splitlines()
             if line.startswith("progvar ")]


def test_readme_has_its_examples():
    assert len(CLI_LINES) >= 9
    assert len(fenced_blocks("python")) == 2


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_exits_0(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)  # linnik --resume writes its state file here
    assert main(shlex.split(line)[1:] + ["--sieve-limit", "100000"]) == 0, capsys.readouterr().err


def test_readme_python_blocks_run(capsys):
    namespace = {}
    for block in fenced_blocks("python"):
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out
