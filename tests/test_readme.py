"""The examples in README.md run as written.

The ```python blocks run in order in one namespace, since later blocks
use names the first one defines.  Each `mesonosc ...` line of the ```sh
blocks (backslash continuations joined) runs through `cli.main` in a
temporary directory, its `--out` file included.
"""

import re
import shlex
from pathlib import Path

import pytest

import mesonosc
from mesonosc import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def _commands() -> list[list[str]]:
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["mesonosc"]:
                commands.append(argv[1:])
    return commands


def test_readme_has_examples():
    assert len(_blocks("python")) >= 3
    assert len(_commands()) >= 7


def test_python_examples_run():
    namespace = {}
    for block in _blocks("python"):
        exec(compile(block, "README.md", "exec"), namespace)


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_cli_examples_run(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0


def test_every_exported_name_is_shown_in_readme_or_used_by_the_cli():
    cli_source = Path(cli.__file__).read_text()
    unshown = [name for name in mesonosc.__all__
               if not re.search(rf"\b{re.escape(name)}\b", README + cli_source)]
    assert unshown == []
