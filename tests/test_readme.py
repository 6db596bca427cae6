"""The README's examples run as shown: its Python blocks execute and its shown CLI output is exact."""

import re
import shlex
from pathlib import Path

from ordercone.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# (info string, body) of every fenced block.
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def test_every_python_block_runs():
    python = [body for info, body in BLOCKS if info == "python"]
    assert len(python) == 3
    for body in python:
        exec(compile(body, "README.md", "exec"), {})


def test_shown_cli_output_is_exact(capsys):
    shown = []
    for _, body in BLOCKS:
        # A `$ ordercone ...` line followed by the output it prints.
        shown += re.findall(r"^\$ ordercone (.*)\n((?:(?!\$ ).*\n)*)", body, flags=re.MULTILINE)
    assert [command for command, _ in shown] == ["classify --example four-ray --json"]
    for command, output in shown:
        assert main(shlex.split(command)) == 0
        assert capsys.readouterr().out == output
