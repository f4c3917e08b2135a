"""The CLI's text output is a view of its JSON document, and the README's
command-line examples print what the README shows."""

from __future__ import annotations

import io
import json
import random
import re
import shlex
from pathlib import Path

import pytest

import raagcs.cli as cli
from conftest import random_graph
from raagcs.graphs import to_graph6

README = Path(__file__).resolve().parent.parent / "README.md"
COMMANDS = ("classify", "compare", "enumerate", "realize", "ktheory", "euler", "decompose")


def run_cli(capsys, argv: list[str]) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().out


# ------------------------------------------------------------ README


def readme_examples() -> list[tuple[str, str]]:
    """(command, expected stdout) for each ``$ raagcs ...`` block under
    "Command line"; a command runs on until its quotes close."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line") : text.index("## Library")]
    examples = []
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        if not block.startswith("$ "):
            continue
        lines = block.splitlines(keepends=True)
        command = lines.pop(0)[2:]
        while True:
            try:
                shlex.split(command)
                break
            except ValueError:
                command += lines.pop(0)
        examples.append((command.strip(), "".join(lines)))
    return examples


def run_readme_command(capsys, monkeypatch, command: str) -> str:
    """Run a README shell line through cli.main: a leading ``printf`` feeds
    stdin, a trailing ``tail -N`` keeps the last N lines."""
    stages = [shlex.split(stage) for stage in command.split(" | ")]
    tail = None
    if stages[0][0] == "printf":
        monkeypatch.setattr("sys.stdin", io.StringIO(stages.pop(0)[1].replace("\\n", "\n")))
    if stages[-1][0] == "tail":
        tail = int(stages.pop()[1].lstrip("-"))
    (argv,) = stages
    assert argv[0] == "raagcs"
    code, out = run_cli(capsys, argv[1:])
    assert code == 0
    if tail is not None:
        out = "".join(out.splitlines(keepends=True)[-tail:])
    return out


EXAMPLES = readme_examples()


def readme_library_blocks() -> list[str]:
    """Each ``python`` block under "Library", up to the next section."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library") :].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_readme_has_an_example_per_command():
    commands = [re.search(r"raagcs (\w+)", command)[1] for command, _ in EXAMPLES]
    assert sorted(commands) == sorted(COMMANDS)


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c[:40] for c, _ in EXAMPLES])
def test_readme_example(capsys, monkeypatch, command, expected):
    assert run_readme_command(capsys, monkeypatch, command) == expected


def test_readme_library_blocks_run():
    blocks = readme_library_blocks()
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


# ------------------------------------------------------- text is a view


def _view_cases() -> list[list[str]]:
    rng = random.Random(8)
    graphs = [to_graph6(random_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.5, 0.8)))) for _ in range(12)]
    edge_lists = ["0 1\n0 1\n1 2\n2 1", "a b\nb c\nc a\na b", "vertices: 4\n0 1\n1 0"]
    profiles = ["t=0", "t=1", "o=inf", "N[1]=1", "N[-3]=1", "t=inf;N[0]=inf", "t=2;o=1;N[-1]=3;N[4]=1"]
    dgraphs = [
        "dvertices: 2\n0 0 4\n0 1 4\n",  # usable sink
        "dvertices: 2\n0 1 1\n",  # unusable sink
        "dvertices: 1\n0 0 3\n",  # no sink
        "dvertices: 3\n0 1 2\n1 2 1\n2 0 1\n1 *\n",
    ]
    cases = []
    for token in graphs + edge_lists:
        cases += [[sub, token] for sub in ("classify", "euler", "decompose")]
    for token in profiles + graphs[:4]:
        cases += [["classify", token], ["realize", token]]
    pool = graphs[:6] + edge_lists + profiles
    cases += [["compare", rng.choice(pool), rng.choice(pool)] for _ in range(12)]
    cases += [["ktheory", d] for d in dgraphs]
    cases += [["enumerate", str(n)] for n in range(6)]
    cases.append(["enumerate", "5", "--golden"])
    duplicate = "a b\na b\nb c\nc d"  # E_1^0, with one duplicate edge
    cases += [["compare", duplicate, "N[-1]=1"], ["compare", "t=1", edge_lists[0]], ["realize", duplicate]]
    return cases


@pytest.mark.parametrize("argv", _view_cases(), ids=lambda argv: " ".join(argv)[:40])
def test_text_is_rendered_from_the_json_document(capsys, argv):
    code, text = run_cli(capsys, argv)
    json_code, out = run_cli(capsys, argv + ["--json"])
    assert code == json_code
    if code not in (0, 6):
        assert text == out == ""
        return
    cli._PARSER.parse_args(argv).text(json.loads(out))
    assert capsys.readouterr().out == text


@pytest.mark.parametrize("argv", _view_cases(), ids=lambda argv: " ".join(argv)[:40])
def test_text_prints_every_warning_of_the_document(capsys, argv):
    code, out = run_cli(capsys, argv + ["--json"])
    if code not in (0, 6):
        return
    doc = json.loads(out)
    expected = [f"warning: {w}" for w in doc.get("warnings", ())]
    for tag in ("left", "right") if doc["document"] == "comparison" else ():
        expected += [f"warning: {tag}: {w}" for w in doc[tag]["warnings"]]
    _, text = run_cli(capsys, argv)
    assert [line for line in text.splitlines() if line.startswith("warning: ")] == expected


def test_every_command_was_viewed():
    assert {argv[0] for argv in _view_cases()} == set(COMMANDS)


# -------------------------------------------------- one parser per process


def test_usage_error_leaves_the_parser_usable(capsys):
    expected = run_cli(capsys, ["classify", "Dhc"])
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "Dhc", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, ["classify", "Dhc"]) == expected


def test_main_does_not_build_a_parser(capsys, monkeypatch):
    def refuse():
        raise AssertionError("build_parser called per command")

    monkeypatch.setattr(cli, "build_parser", refuse)
    code, out = run_cli(capsys, ["classify", "t=1", "--json"])
    assert code == 0
    assert json.loads(out)["algebra_name"] == "T"
