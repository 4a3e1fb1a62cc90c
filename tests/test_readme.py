import pathlib
import re
import shlex

from richowner.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, lang: str) -> str:
    text = README.read_text()
    section = text[text.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    block = _block("## Quick start (library)", "python")
    exec(compile(block, "README.md", "exec"), {})


def test_cli_quick_start_runs(tmp_path, monkeypatch):
    """Every command of the CLI quick start, in order and in one directory,
    exits 0."""
    lines = _block("## Quick start (CLI)", "sh").replace("\\\n", " ").splitlines()
    commands = [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "richowner"
        assert main(argv[1:]) == 0, shlex.join(argv)
