"""The README's Python code blocks and its command-line walk-through run as
written."""

import re
import shlex
from pathlib import Path

import pytest

from tmnet import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.S | re.M)
WALK = next(block for block in re.findall(r"^```sh\n(.*?)^```", TEXT, flags=re.S | re.M)
            if "tmnet derive" in block)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})


def test_readme_command_line_walk_through_runs(tmp_path, monkeypatch):
    # one command per line once the backslash continuations are joined:
    # `python3 -c` lines run their code here, `tmnet` lines go to cli.main
    monkeypatch.chdir(tmp_path)
    lines = WALK.replace("\\\n", "").splitlines()
    commands = [shlex.split(line) for line in lines
                if line.strip() and not line.lstrip().startswith("#")]
    assert [argv[0] for argv in commands].count("tmnet") == 6
    for argv in commands:
        if argv[:2] == ["python3", "-c"]:
            exec(compile(argv[2], "README.md python3 -c line", "exec"), {})
        else:
            assert argv[0] == "tmnet", argv
            assert cli.main(argv[1:]) == 0, argv
    for name in ("ideal.json", "ideal_traj.csv", "measured.csv", "tuned.json",
                 "tuned.loss.csv", "ring.json", "turns.csv", "tunes.json", "report.json"):
        assert (tmp_path / name).is_file(), name
