"""The README's examples run as written, so the docs cannot drift."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from qsc.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


COMMANDS = [
    shlex.split(line)[1:]
    for block in _blocks("sh")
    for line in block.splitlines()
    if line.startswith("qsc ")
]


def test_python_quick_start():
    (block,) = _blocks("python")
    test = doctest.DocTestParser().get_doctest(block, {}, "README", "README.md", 0)
    results = doctest.DocTestRunner().run(test)
    assert results.attempted > 0
    assert results.failed == 0


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_line_examples(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out
