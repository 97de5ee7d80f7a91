"""The README's examples run as written: each `gmerf` line of its shell
blocks exits 0, and each Python block executes."""

import json
import re
import shlex
from pathlib import Path

import pytest

from gmerf import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# The Quick start's physical data, as the config file `gmerf solve --config` reads.
PARAMS = {"rho": 1.2, "c": 2.5, "l": 2.0, "k0": 1.7, "h0": 1.0, "tf": 1.0, "tinf": -1.0, "beta": 0.25}


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _gmerf_commands() -> list[list[str]]:
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["gmerf"]:
                commands.append(words[1:])
    return commands


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    # The files the examples name: the README's sweep spec and a config file.
    (spec,) = _blocks("json")
    (tmp_path / "sweep.json").write_text(spec, encoding="utf-8")
    (tmp_path / "params.json").write_text(json.dumps(PARAMS), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_readme_has_every_command():
    assert {argv[0] for argv in _gmerf_commands()} == {"beta1", "gme", "hscan", "solve", "dirichlet", "sweep"}


@pytest.mark.parametrize("argv", _gmerf_commands(), ids=" ".join)
def test_shell_example_exits_0(workdir, capsys, argv):
    assert cli.main(argv) == 0, capsys.readouterr().err


@pytest.mark.parametrize("block", _blocks("python"), ids=["quick_start", "profile"])
def test_python_example_runs(workdir, block):
    exec(compile(block, "README.md", "exec"), {})
