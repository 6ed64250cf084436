"""Every line of the README's "Command line" block exits 0.

The lines and the solve config are read from README.md itself, so the
examples there cannot drift from what the program accepts.  The README's
sweep.json is not shown; the test builds a two-instance sweep on the
README's solve config.
"""

import json
import pathlib
import re
import shlex

from hjholder import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first fenced block of language lang after the heading line."""
    rest = README[README.index(heading + "\n"):]
    return re.search(rf"```{lang}\n(.*?)```", rest, re.S).group(1)


def _command_lines() -> list:
    lines = []
    for line in _block("## Command line", "sh").splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "hjholder"
        lines.append(argv[1:])
    return lines


def test_readme_command_lines_exit_0(tmp_path, monkeypatch, capsys):
    lines = _command_lines()
    assert [argv[0] for argv in lines] == [
        "legendre", "constants", "barrier", "barrier", "solve", "oscillate", "modulus",
        "scale", "demo", "sweep"]
    solve = json.loads(_block("### Solve config (JSON)", "json"))
    sweep = {"base": solve, "instances": [{"p": 3.0}, {"p": 2.5, "k": 5.0}]}
    (tmp_path / "solve.json").write_text(json.dumps(solve))
    (tmp_path / "sweep.json").write_text(json.dumps(sweep))
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        code = cli.run(argv)
        assert code == 0, (argv, capsys.readouterr())
    for name in ("u.hjg", "osc.csv", "mod.csv", "sweep.csv", "demo_out/sees_points.svg"):
        assert (tmp_path / name).stat().st_size > 0
