"""Command-line surface: detection, documents, schema, exit codes."""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import re
import shutil
import subprocess
import sys
from importlib import metadata, resources
from math import comb
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import raagcs.artin as artin
import raagcs.cli as cli
import raagcs.euler as euler
import raagcs.graphs as graphs
import raagcs.kgraph as kgraph
from raagcs.artin import PROFILE_DIGITS_MAX
from raagcs.cli import detect_format, load_golden, main
from raagcs.graphs import (
    EDGE_LIST_MAX,
    complement,
    complete_graph,
    cycle_graph,
    path_graph,
    to_graph6,
)
from raagcs.kgraph import DGRAPH_MAX
from conftest import reference_census, reference_detect_format

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SCRIPT_TARGET = "raagcs.cli:run"
SCRIPT_MODULE, SCRIPT_ATTR = SCRIPT_TARGET.split(":")
# What pip's generated console-script wrapper runs.
WRAPPER = [
    sys.executable,
    "-c",
    f"import sys; from {SCRIPT_MODULE} import {SCRIPT_ATTR}; sys.exit({SCRIPT_ATTR}())",
]


@pytest.fixture(scope="module")
def validator() -> Draft202012Validator:
    text = (
        resources.files("raagcs")
        .joinpath("data", "verdict.schema.json")
        .read_text(encoding="utf-8")
    )
    schema = json.loads(text)
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, validator, *argv: str) -> tuple[int, dict]:
    code, out, _ = run_cli(capsys, *argv)
    doc = json.loads(out)
    validator.validate(doc)
    return code, doc


class TestDetectFormat:
    def test_cases(self):
        assert detect_format("t=2") == "profile"
        assert detect_format("N[-1]=inf") == "profile"
        assert detect_format("dvertices: 3\n0 1 2\n") == "dgraph"
        assert detect_format("# note\ndvertices: 1\n") == "dgraph"
        assert detect_format("D??") == "graph6"
        assert detect_format(">>graph6<<D??") == "graph6"
        assert detect_format("a b") == "edges"
        assert detect_format("0 1\n1 2\n") == "edges"
        assert detect_format("vertices: 3\na b\n") == "edges"

    @pytest.mark.parametrize(
        "text, fmt",
        [
            ("A?", "graph6"),
            ("A? \n", "graph6"),
            ("A?  B?", "edges"),
            ("", "edges"),
            (" \t\n\u3000", "edges"),
            ("A?\x85", "graph6"),
            ("A? # c", "edges"),
        ],
    )
    def test_graph6_is_one_token(self, text, fmt):
        # One graph6 token and blanks; a comment is a second token.
        assert detect_format(text) == fmt

    def test_equals_sign_in_a_comment_is_not_a_profile(self, capsys, validator):
        path = "# path, n=3\n0 1\n1 2\n"
        assert detect_format(path) == "edges"
        assert detect_format("t=1") == "profile"
        code, doc = run_json(capsys, validator, "classify", path, "--json")
        assert code == 0
        _, want = run_json(capsys, validator, "classify", "t=1;N[-1]=1", "--json")
        assert doc["profile"] == want["profile"] == {"t": 1, "o": 0, "N": [[-1, 1]]}


_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


class TestDetectFormatAgainstReference:
    """``detect_format`` reads one join of the significant lines; the
    reference reads line by line with its own comment rule."""

    PIECES = (
        "", " \t", "# comment only", "# n=3", "# dvertices: 2", "#", " # x=y",
        "dvertices: 3", " dvertices:2", "0 1 2", "2 *", "vertices: 4", "a b",
        "a=b c", "t=1", "N[-1]=inf;o=2", "t = 1 # c", "D??", ">>graph6<<A?", "A?",
        "a#=b", "=", "dvertices: 1 # t=1", "\u3000", "\xa0 ", "\x1f",
        "\u3000dvertices: 2", "\xa0t=1",
    )

    def test_seeded_texts(self):
        rng = random.Random(28)
        seen = set()
        for _ in range(4000):
            lines = [rng.choice(self.PIECES) for _ in range(rng.randint(0, 6))]
            text = "".join(line + rng.choice(_BREAKS) for line in lines)
            if rng.random() < 0.5:
                text = text[: -1 if text and not text.endswith("\r\n") else None]
            want = reference_detect_format(text)
            assert detect_format(text) == want, repr(text)
            seen.add(want)
        assert seen == {"dgraph", "profile", "graph6", "edges"}

    def test_edge_list_is_not_split_into_lines(self, monkeypatch):
        # The parser splits the lines; detection reads the text as it is.
        def refuse(text):
            raise AssertionError("detect_format split the lines")

        monkeypatch.setattr(cli, "significant_lines", refuse, raising=False)
        text = "".join(f"{i} {i + 1}\n" for i in range(100_000))
        assert detect_format(text) == "edges"


class TestClassify:
    def test_graph6_json(self, capsys, validator):
        code, doc = run_json(capsys, validator, "classify", "D??", "--json")
        assert code == 0
        assert doc["input"]["graph6"] == "D??"
        assert doc["profile"] == {"t": 0, "o": 0, "N": [[-4, 1]]}
        assert doc["algebra_name"] == "E_5^-1"
        assert doc["graph_algebra"] == {"value": True, "clause": 2}
        assert doc["semiprojectivity"]["verdict"] == "Semiprojective"
        assert len(doc["ktheory"]) == 1
        assert doc["ktheory"][0]["k0_quotient"]["name"] == "Z/4"

    def test_profile_json(self, capsys, validator):
        code, doc = run_json(
            capsys, validator, "classify", "t=1;o=1;N[0]=1;N[-2]=inf", "--json"
        )
        assert code == 0
        assert doc["input"] == {"kind": "profile", "spec": "t=1;o=1;N[-2]=inf;N[0]=1"}
        assert doc["normal_form"]["omin"] == "irrelevant"
        assert [row["component"] for row in doc["ktheory"]] == [
            "T",
            "E_3^-1",
            "E_1^0",
            "O_inf",
        ]

    def test_edge_list_file(self, capsys, validator, tmp_path):
        path = tmp_path / "square.txt"
        path.write_text("a b\nb c\nc d\nd a\n", encoding="utf-8")
        code, doc = run_json(capsys, validator, "classify", str(path), "--json")
        assert code == 0
        assert doc["profile"] == {"t": 0, "o": 0, "N": [[-1, 2]]}
        assert doc["algebra_name"] == "E_2^+1 ⊗ E_2^+1"

    def test_duplicate_edge_warning_lands_in_document(self, capsys, validator):
        code, doc = run_json(capsys, validator, "classify", "a b\nb a", "--json")
        assert code == 0
        assert any("duplicate edge" in w for w in doc["warnings"])

    def test_empty_profile_warns(self, capsys, validator):
        code, doc = run_json(capsys, validator, "classify", "", "--format", "profile", "--json")
        assert code == 0
        assert doc["algebra_name"] == "C"
        assert any("empty profile" in w for w in doc["warnings"])

    def test_human_output(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "D??")
        assert code == 0
        assert "profile: N_-4 = 1" in out
        assert "algebra: E_5^-1" in out
        assert "semiprojectivity: Semiprojective (clause 3)" in out

    def test_tensor_symbol_is_ascii_escaped_in_json(self, capsys):
        _, out, _ = run_cli(capsys, "classify", "t=2", "--json")
        assert "\\u2297" in out and "⊗" not in out

    def test_format_override_beats_detection(self, capsys):
        code, _, err = run_cli(capsys, "classify", "D??", "--format", "edges")
        assert code == 2
        assert "error:" in err

    def test_dgraph_input_is_rejected(self, capsys):
        code, _, err = run_cli(capsys, "classify", "dvertices: 1")
        assert code == 2
        assert "not usable here" in err

    def test_bad_profile_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "q=1")
        assert code == 2

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("t=\u00b2", "bad count '\u00b2'"),
            ("N[\u0663]=1", "unknown profile key"),
            ("t=" + "1" * 5000, "count too long: 5000 digits"),
            ("N[" + "9" * 5000 + "]=1", "key N[k] too long: 5000 digits"),
        ],
        ids=["superscript-count", "arabic-indic-key", "long-count", "long-key"],
    )
    def test_profile_digits_are_ascii_and_int_sized(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "classify", spec)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("text", ["# header\nt=1;o=1", "t=1\no=1", "t=1;\n# o=9\no=1  # one\n"])
    def test_profile_comments_and_line_breaks(self, capsys, text):
        # A profile is read by significant lines, each split on ';'.
        got = run_cli(capsys, "classify", text)
        assert got == run_cli(capsys, "classify", "t=1;o=1")
        assert got[0] == 0


TOP = "9" * PROFILE_DIGITS_MAX


class TestProfileDigitCap:
    """Counts and keys at the digit cap name and sum without an int-string
    error; one digit more is a parse error."""

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(
        "spec, realize_code",
        [(f"N[{TOP}]=1", 0), (f"N[1]={TOP};N[-1]={TOP}", 5), (f"t={TOP};N[-1]={TOP}", 4)],
        ids=["key", "folded-sum", "total"],
    )
    @pytest.mark.parametrize("command", ["classify", "compare", "realize"])
    def test_at_the_cap(self, capsys, command, spec, realize_code, mode):
        sides = [spec, spec] if command == "compare" else [spec]
        code, out, err = run_cli(capsys, command, *sides, *mode)
        assert code == (realize_code if command == "realize" else 0)
        assert (out == "") == (code != 0)
        assert (err == "") == (code == 0)

    @pytest.mark.parametrize("spec", [f"N[{TOP}9]=1", f"N[1]={TOP}9;N[-1]={TOP}"])
    @pytest.mark.parametrize("command", ["classify", "compare", "realize"])
    def test_one_digit_over_the_cap(self, capsys, command, spec):
        sides = [spec, spec] if command == "compare" else [spec]
        code, out, err = run_cli(capsys, command, *sides)
        assert code == 2
        assert out == ""
        assert f"too long: {PROFILE_DIGITS_MAX + 1} digits" in err

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("command", ["classify", "compare", "realize"])
    def test_lowered_int_string_limit(self, capsys, int_limit_640, command, mode):
        # The cap is 300 digits below the limit: what parses still prints,
        # and a longer count is a parse error, not a traceback.
        top = "9" * 340
        for spec, realize_code in [(f"N[{top}]=1", 0), (f"N[1]={top};N[-1]={top}", 5)]:
            sides = [spec, spec] if command == "compare" else [spec]
            code, out, err = run_cli(capsys, command, *sides, *mode)
            assert code == (realize_code if command == "realize" else 0)
            assert (out == "") == (code != 0)
        sides = ["t=" + "1" * 1000] * (2 if command == "compare" else 1)
        code, out, err = run_cli(capsys, command, *sides, *mode)
        assert (code, out) == (2, "")
        assert err == "error: count too long: 1000 digits, over 340\n"

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_lowered_int_string_limit_dgraph(self, capsys, int_limit_640, mode):
        code, out, err = run_cli(capsys, "ktheory", f"dvertices: 1\n0 0 {'1' * 1000}\n", *mode)
        assert (code, out) == (2, "")
        assert err == "error: line 2: multiplicity too long: 1000 digits, over 340\n"


class TestCompare:
    def test_stdin_is_read_by_one_side_only(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("t=1\n"))
        code, out, err = run_cli(capsys, "compare", "-", "-")
        assert (code, out) == (2, "")
        assert err == "error: stdin can be read once: only one side may be '-'\n"
        code, out, _ = run_cli(capsys, "compare", "-", "t=1")
        assert code == 0
        assert "isomorphic: yes" in out

    def test_sign_pair_json(self, capsys, validator):
        code, doc = run_json(capsys, validator, "compare", "N[-1]=1", "N[1]=1", "--json")
        assert code == 0
        assert doc["isomorphic"] is False
        assert doc["stably_isomorphic"] is True
        assert doc["failed_conditions"] == ["iv"]

    def test_graph_against_profile(self, capsys, validator):
        code, doc = run_json(capsys, validator, "compare", "D??", "N[-4]=1", "--json")
        assert code == 0
        assert doc["isomorphic"] is True
        assert doc["left"]["input"]["kind"] == "graph"
        assert doc["right"]["input"]["kind"] == "profile"

    def test_human_output(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "t=1", "t=2")
        assert code == 0
        assert "isomorphic: no" in out
        assert "failed conditions: i" in out

    def test_isomorphic_sides_carry_one_name(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "o=1;N[1]=inf", "N[1]=inf")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "left: o = 1, N_1 = inf  ->  E_2^+1^{⊗inf}"
        assert lines[1] == "right: N_1 = inf  ->  E_2^+1^{⊗inf}"
        assert lines[2] == "isomorphic: yes"


class TestNormalFormPasses:
    """Each input's normal form is computed once per verdict: a counter, not
    a clock, gates the passes."""

    @pytest.fixture
    def passes(self, monkeypatch) -> list[object]:
        calls: list[object] = []
        real = artin.normal_form

        def counted(prof):
            calls.append(prof)
            return real(prof)

        for module in (artin, cli, kgraph):
            monkeypatch.setattr(module, "normal_form", counted)
        return calls

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["compare", "N[-1]=1", "N[1]=1"], 4),
            (["compare", "D??", "o=1;N[1]=inf", "--json"], 4),
            (["classify", "t=1;N[-2]=3"], 1),
            (["realize", "N[3]=1"], 1),
        ],
    )
    def test_passes_per_command(self, capsys, passes, argv, count):
        assert main(argv) == 0
        capsys.readouterr()
        assert len(passes) == count

    def test_one_pass_per_census_row(self, capsys, passes):
        # Rows with equal profiles share one verdict: 34 rows, 17 profiles.
        assert main(["enumerate", "5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["graph_count"] == 34
        profiles = {json.dumps(row["profile"], sort_keys=True) for row in doc["classes"]}
        assert len(passes) == len(profiles) == 17


class TestInputEcho:
    @pytest.mark.parametrize("command", ["classify", "compare", "euler", "decompose"])
    def test_a_graph_is_echoed_as_its_counts_and_graph6(self, capsys, validator, command):
        token = to_graph6(complete_graph(40))
        argv = [command, token] + [token] * (command == "compare") + ["--json"]
        code, doc = run_json(capsys, validator, *argv)
        assert code == 0
        echoes = [doc["left"], doc["right"]] if command == "compare" else [doc]
        for part in echoes:
            assert part["input"] == {"kind": "graph", "n": 40, "edges": 780, "graph6": token}
            part["input"]["edges"] = [[0, 1]]
        assert not validator.is_valid(doc)  # the edge count is no pair list


class TestEnumerate:
    def test_four_vertex_census(self, capsys, validator):
        code, doc = run_json(capsys, validator, "enumerate", "4", "--json")
        assert code == 0
        assert doc["graph_count"] == 11
        assert doc["graph_count"] == len(doc["classes"])
        assert doc["distinct_normal_forms"] == 9

    @pytest.mark.parametrize(
        "n, digest",
        [(6, "a52efe06dbc28da6"), (7, "eebabdc9ad95357b"), (8, "d31cc1ca930231c1")],
    )
    def test_census_bytes(self, capsys, n, digest):
        code, out, _ = run_cli(capsys, "enumerate", str(n), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest().startswith(digest)

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["6"], "8fcd4efd57f53913"),
            (["8"], "99f597e1c5ca502e"),
            (["5", "--golden"], "bc19d7cbe5cf3a5f"),
            (["5", "--golden", "--json"], "5783fddf0a4014f3"),
            (["0", "--json"], "566f6e6389872627"),
        ],
        ids=" ".join,
    )
    def test_text_and_golden_bytes(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "enumerate", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest().startswith(digest)

    @pytest.mark.parametrize(
        "n, golden", [(n, False) for n in range(8)] + [(4, True), (5, True)]
    )
    def test_stream_matches_the_whole_document(self, capsys, n, golden):
        # The JSON rows are written one by one from per-profile templates;
        # the whole document built row dict by row dict renders the same
        # bytes, as JSON and through the text view, with the same exit code.
        argv = ["enumerate", str(n)] + ["--golden"] * golden
        doc = reference_census(n, golden)
        code = 6 if golden and not doc["golden"]["match"] else 0
        whole = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert run_cli(capsys, *argv, "--json")[:2] == (code, whole)
        cli._PARSER.parse_args(argv).text(doc)
        expected = capsys.readouterr().out
        assert run_cli(capsys, *argv)[:2] == (code, expected)

    def test_zero_vertex_census(self, capsys, validator):
        code, doc = run_json(capsys, validator, "enumerate", "0", "--json")
        assert code == 0
        assert doc["graph_count"] == 1
        assert doc["classes"][0]["algebra_name"] == "C"

    def test_golden_match(self, capsys, validator):
        code, doc = run_json(capsys, validator, "enumerate", "5", "--golden", "--json")
        assert code == 0
        assert doc["golden"] == {"match": True, "mismatches": []}

    def test_golden_mismatch_is_exit_6(self, capsys, validator, monkeypatch):
        golden = json.loads(json.dumps(load_golden()))
        key = sorted(golden["classes"])[0]
        golden["classes"][key]["algebra_name"] = "bogus"
        golden["classes"]["zzz"] = golden["classes"][key]
        monkeypatch.setattr(cli, "load_golden", lambda: golden)
        code, doc = run_json(capsys, validator, "enumerate", "5", "--golden", "--json")
        assert code == 6
        assert doc["golden"]["match"] is False
        assert any("algebra_name" in m for m in doc["golden"]["mismatches"])
        assert any(m == "missing class zzz" for m in doc["golden"]["mismatches"])

    def test_golden_mismatch_lines_and_order(self, capsys, monkeypatch):
        golden = json.loads(json.dumps(load_golden()))
        golden["classes"]["zzz"] = golden["classes"].pop("D?C")
        golden["classes"]["D??"].update(
            profile={"t": 9}, algebra_name="bogus", graph_algebra=None, semiprojectivity="x"
        )
        monkeypatch.setattr(cli, "load_golden", lambda: golden)
        code, out, _ = run_cli(capsys, "enumerate", "5", "--golden")
        assert code == 6
        assert [line for line in out.splitlines() if line.startswith("golden")] == [
            "golden mismatch: missing class zzz",
            "golden mismatch: unexpected class D?C",
            "golden mismatch: D??: profile = {'t': 0, 'o': 0, 'N': [[-4, 1]]}, golden has {'t': 9}",
            "golden mismatch: D??: algebra_name = 'E_5^-1', golden has 'bogus'",
            "golden mismatch: D??: graph_algebra = True, golden has None",
            "golden mismatch: D??: semiprojectivity = 'Semiprojective', golden has 'x'",
            "golden: MISMATCH",
        ]

    def test_golden_wrong_n_is_exit_6(self, capsys, validator):
        code, doc = run_json(capsys, validator, "enumerate", "4", "--golden", "--json")
        assert code == 6
        assert doc["golden"]["mismatches"] == ["golden data covers n = 5, not n = 4"]

    def test_over_cap_is_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "9")
        assert code == 3
        assert "capped" in err
        # The cap is met before the document's first byte is written.
        assert out == ""
        assert run_cli(capsys, "enumerate", "9", "--json")[:2] == (3, "")

    def test_no_flag_raises_cap(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "9", "--limit", "9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --limit 9" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["enumerate", "--help"])
        assert "--limit" not in capsys.readouterr().out
        # The cap is read when enumeration runs, so the constant moves it.
        monkeypatch.setattr(graphs, "ENUMERATE_MAX", 3)
        assert run_cli(capsys, "enumerate", "3")[0] == 0
        code, _, err = run_cli(capsys, "enumerate", "4")
        assert code == 3
        assert err == "error: enumeration is capped at n <= 3, got 4\n"

    def test_human_table(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "3")
        assert code == 0
        assert "4 isomorphism classes" in out
        # Empty and one-edge graphs qualify; P_3 carries a singleton
        # component next to its edgeless pair and K_3 is three singletons.
        assert "graph algebras: 2" in out
        assert "semiprojectivity: 2 Semiprojective, 2 NotSemiprojective, 0 Unknown" in out


class TestEnumerateDigits:
    """``enumerate`` reads n by the one digit rule, ``graphs.parse_decimal``."""

    @pytest.mark.parametrize("n", ["\u0663", "\uff13", "+3", " 3", "1_0"])
    def test_n_outside_ascii_digits_is_exit_2(self, capsys, n):
        code, out, err = run_cli(capsys, "enumerate", n)
        assert code == 2
        assert out == ""
        assert err == f"error: bad n {n!r}\n"

    def test_leading_zeros_are_free(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "0003")
        assert (code, out, err) == run_cli(capsys, "enumerate", "3")
        assert out.startswith("n = 3: 4 isomorphism classes\n")


# The input formats each subcommand reads, in the order its refusals list them.
FORMATS = {
    "classify": ["graph6", "edges", "profile"],
    "compare": ["graph6", "edges", "profile"],
    "realize": ["graph6", "edges", "profile"],
    "euler": ["graph6", "edges"],
    "decompose": ["graph6", "edges"],
    "ktheory": ["dgraph"],
    "enumerate": [],
}


class TestFormatsPerSubcommand:
    @pytest.mark.parametrize("command", sorted(FORMATS))
    def test_help_lists_exactly_the_formats_read(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        offered = re.findall(r"--format \{([^}]*)\}", out)
        if FORMATS[command]:
            assert offered and set(offered) == {",".join(FORMATS[command])}
        else:
            assert "--format" not in out

    @pytest.mark.parametrize(
        "argv, fmt", [(["ktheory", "dvertices: 1\n"], "edges"), (["classify", "D??"], "dgraph")]
    )
    def test_unread_format_is_a_usage_error(self, capsys, argv, fmt):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", fmt])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        head, _, choices = captured.err.partition(f"argument --format: invalid choice: '{fmt}' (choose from ")
        assert head.startswith(f"usage: raagcs {argv[0]} ")
        assert fmt not in choices and all(f in choices for f in FORMATS[argv[0]])

    def test_detected_format_refusal_lists_the_formats_read(self, capsys):
        code, out, err = run_cli(capsys, "classify", "dvertices: 1")
        assert (code, out) == (2, "")
        assert err == (
            "error: input format 'dgraph' is not usable here "
            "(expected one of graph6, edges, profile)\n"
        )
        code, _, err = run_cli(capsys, "ktheory", "D??")
        assert err == "error: input format 'graph6' is not usable here (expected one of dgraph)\n"


class TestRealize:
    def test_toeplitz_json(self, capsys, validator):
        code, doc = run_json(capsys, validator, "realize", "t=1", "--json")
        assert code == 0
        assert doc["target"] == "T"
        assert doc["verification"]["passed"] is True
        assert doc["dgraph"] == "dvertices: 2\n0 0 1\n0 1 1\n"

    def test_finite_target_json(self, capsys, validator):
        code, doc = run_json(capsys, validator, "realize", "N[-3]=1", "--json")
        assert code == 0
        assert doc["target"] == "E_4^-1"
        assert all(c["ok"] for c in doc["verification"]["checks"])

    def test_graph_input(self, capsys, validator):
        # A single vertex realizes through its profile t=1.
        code, doc = run_json(capsys, validator, "realize", "@", "--json")
        assert code == 0
        assert doc["input"]["kind"] == "graph" and doc["target"] == "T"

    def test_not_realizable_is_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "realize", "N[-2]=2")
        assert code == 4
        assert "not realizable" in err

    def test_multi_factor_is_exit_5(self, capsys):
        code, _, err = run_cli(capsys, "realize", "N[-1]=5")
        assert code == 5
        assert "not implemented" in err

    @pytest.mark.parametrize("spec", ["o=2;N[1]=1", ""])
    def test_other_multi_factor_profiles_exit_5(self, capsys, spec):
        code, _, err = run_cli(capsys, "realize", spec)
        assert code == 5
        assert "not implemented" in err

    @pytest.mark.parametrize("spec", ["o=2", "o=7", "o=inf"])
    def test_infinite_factors_realize_as_one(self, capsys, validator, spec):
        # classify names these O_inf, and compare finds them isomorphic to o=1.
        code, doc = run_json(capsys, validator, "realize", spec, "--json")
        assert code == 0
        assert doc["target"] == doc["algebra_name"] == "O_inf"
        assert doc["verification"]["passed"] is True

    def test_human_output(self, capsys):
        code, out, _ = run_cli(capsys, "realize", "N[2]=1")
        assert code == 0
        assert "verification: passed" in out


class TestKTheory:
    def test_with_sink_extension(self, capsys, validator):
        code, doc = run_json(
            capsys, validator, "ktheory", "dvertices: 2\n0 0 4\n0 1 4\n", "--json"
        )
        assert code == 0
        assert doc["k0"]["name"] == "Z"
        assert doc["unit_is_generator"] is True
        assert doc["sink_extension"]["kappa"] == -3
        assert doc["sink_extension"]["quotient_k0"]["name"] == "Z/3"

    def test_without_sink(self, capsys, validator):
        code, doc = run_json(capsys, validator, "ktheory", "dvertices: 1\n0 0 3\n", "--json")
        assert code == 0
        assert doc["k0"] == {"free_rank": 0, "torsion": [2], "name": "Z/2"}
        assert doc["sink_extension"] is None
        assert doc["warnings"] == []

    def test_unusable_sink_warns(self, capsys, validator):
        code, doc = run_json(capsys, validator, "ktheory", "dvertices: 2\n0 1 1\n", "--json")
        assert code == 0
        assert doc["sink_extension"] is None
        assert any("not analyzed" in w for w in doc["warnings"])

    def test_requires_dgraph(self, capsys):
        code, _, err = run_cli(capsys, "ktheory", "t=1")
        assert code == 2
        assert "not usable here" in err

    def test_human_output(self, capsys):
        code, out, _ = run_cli(capsys, "ktheory", "dvertices: 1\n0 0 1\n")
        assert code == 0
        assert "K0 = Z, K1 = Z" in out
        assert "condition (K): fails" in out

    @pytest.mark.parametrize(
        "text", ["dvertices: \u00b2\n", "dvertices: 2\n\u00b9 *\n"]
    )
    def test_non_ascii_digits_are_exit_2(self, capsys, text):
        code, out, err = run_cli(capsys, "ktheory", text, "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: line ")

    def test_declared_count_over_the_cap_is_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "ktheory", "dvertices: 3000000\n0 0 1\n", "--json")
        assert code == 3
        assert out == ""
        assert f"capped at {DGRAPH_MAX} vertices" in err
        assert "3000000" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("dvertices: 11\n0 1_0 1\n", "line 2: bad edge endpoint '1_0'"),
            ("dvertices: 2\n+0 1 1\n", "line 2: bad edge endpoint '+0'"),
            ("dvertices: 2\n0 1 1\n1 3 1\n", "line 3: edge endpoint 3 out of range"),
        ],
    )
    def test_bad_edge_fields_are_exit_2(self, capsys, text, message):
        code, out, err = run_cli(capsys, "ktheory", text, "--json")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}")

    def test_long_emitter_cycle(self, capsys):
        # One strongly connected component, a single 1000-edge cycle: every
        # vertex bases exactly one return path.
        text = "dvertices: 1000\n" + "".join(
            f"{v} *\n{v} {(v + 1) % 1000} 1\n" for v in range(1000)
        )
        code, out, _ = run_cli(capsys, "ktheory", text)
        assert code == 0
        assert "condition (K): fails" in out

    def test_thousand_cycle_json_bytes(self, capsys):
        # The 1 000-cycle with multiplicity 2: K0 = Z/(2^1000 - 1), K1 = 0.
        text = "dvertices: 1000\n" + "".join(f"{v} {(v + 1) % 1000} 2\n" for v in range(1000))
        code, out, _ = run_cli(capsys, "ktheory", text, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest().startswith("75c964766ae9b526")

    def test_dense_component_is_exit_0(self, capsys):
        # 0 <-> 1 and 1 <-> each vertex of a complete digraph on 2..13: one
        # strongly connected component with factorially many simple paths.
        edges = ["0 1 1", "1 0 1"] + [
            f"{a} {b} 1" for a in range(1, 14) for b in range(2, 14) if a != b
        ] + [f"{b} 1 1" for b in range(2, 14)]
        code, out, err = run_cli(capsys, "ktheory", "dvertices: 14\n" + "\n".join(edges))
        assert code == 0
        assert err == ""
        assert "condition (K): holds" in out


class TestEulerCommand:
    def test_json(self, capsys, validator):
        code, doc = run_json(capsys, validator, "euler", "D??", "--json")
        assert code == 0
        assert doc["clique_counts"] == [5, 0, 0, 0, 0]
        assert doc["euler_characteristic"] == -4

    def test_human(self, capsys):
        code, out, _ = run_cli(capsys, "euler", "a b\nb c\nc a")
        assert code == 0
        assert "c_1 = 3, c_2 = 3, c_3 = 1" in out
        assert "euler characteristic: 0" in out

    def test_complete_graph_on_forty_vertices(self, capsys, validator):
        # 2^40 cliques: listing them one at a time never finished.
        code, doc = run_json(capsys, validator, "euler", to_graph6(complete_graph(40)), "--json")
        assert code == 0
        assert doc["clique_counts"] == [comb(40, k) for k in range(1, 41)]
        assert doc["euler_characteristic"] == 0

    def test_complement_of_sixty_vertex_path(self, capsys, validator):
        counts = [comb(61 - k, k) for k in range(1, 61)]
        code, doc = run_json(
            capsys, validator, "euler", to_graph6(complement(path_graph(60))), "--json"
        )
        assert code == 0
        assert doc["clique_counts"] == counts
        chi = 1 + sum((-1) ** k * c for k, c in enumerate(counts, 1))
        assert doc["euler_characteristic"] == chi

    def test_over_the_work_budget_is_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(euler, "CLIQUE_BUDGET", 1000)
        code, out, err = run_cli(capsys, "euler", to_graph6(complement(path_graph(60))), "--json")
        assert code == 3
        assert out == ""
        assert err == (
            "error: clique counting is capped at 1000 steps of work, "
            "exceeded on n = 60 with 1711 edges\n"
        )


class TestDecomposeCommand:
    def test_json(self, capsys, validator):
        code, doc = run_json(capsys, validator, "decompose", "Bw", "--json")
        assert code == 0
        assert len(doc["components"]) == 3
        assert all(c["class"] == "T" for c in doc["components"])
        assert doc["algebra_name"] == "T^{⊗" + "3}"

    def test_vertex_sets_use_original_numbering(self, capsys, validator):
        # The 4-cycle splits into its two diagonal pairs.
        code, doc = run_json(capsys, validator, "decompose", "0 1\n1 2\n2 3\n3 0", "--json")
        assert code == 0
        assert [c["vertices"] for c in doc["components"]] == [[0, 2], [1, 3]]
        assert all(c["chi"] == -1 for c in doc["components"])

    def test_human(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "D??")
        assert code == 0
        assert "co-irreducible components: 1" in out
        assert "E_5^-1" in out

    def test_profile_comes_from_the_component_classes(self, capsys, validator, monkeypatch):
        def refuse(g):
            raise AssertionError("decompose ran a second decomposition")

        monkeypatch.setattr(cli, "invariant_profile", refuse)
        code, doc = run_json(capsys, validator, "decompose", "E?~o", "--json")
        assert code == 0
        assert doc["profile"] == {"t": 0, "o": 0, "N": [[-3, 1], [-1, 1]]}

    def test_large_sparse_input_never_builds_the_complement(
        self, capsys, validator, monkeypatch, tmp_path
    ):
        def refuse(g):
            raise AssertionError("complement built on the decomposition path")

        for module in (graphs, artin, cli):
            if hasattr(module, "complement"):
                monkeypatch.setattr(module, "complement", refuse)
        path = tmp_path / "sparse.txt"
        path.write_text("".join(f"{i} {(i * 7 + 1) % 2000}\n" for i in range(2000)))
        code, doc = run_json(capsys, validator, "decompose", str(path), "--json")
        assert code == 0
        # Too sparse for any vertex to see all others: the complement is connected.
        assert [c["vertices"] for c in doc["components"]] == [list(range(2000))]
        assert doc["input"]["graph6"].startswith("~?^O")


class TestLargeGraphs:
    def test_hundred_vertex_cycle_edge_list(self, capsys, validator):
        text = "\n".join(f"v{i} v{(i + 1) % 100}" for i in range(100)) + "\n"
        code, doc = run_json(capsys, validator, "classify", text, "--json")
        assert code == 0
        assert doc["profile"] == {"t": 0, "o": 0, "N": [[1, 1]]}
        assert doc["input"]["graph6"].startswith("~?@c")  # ~ and 100 in 18 bits

    def test_long_header_graph6_token_is_detected(self, capsys, validator):
        token = to_graph6(cycle_graph(70))
        assert detect_format(token) == "graph6"
        code, doc = run_json(capsys, validator, "classify", token, "--json")
        assert code == 0
        assert doc["input"]["n"] == 70 and doc["input"]["graph6"] == token

    def test_graph6_count_over_the_cap_is_exit_3(self, capsys):
        # ~ then 10 001 in three sextets, and no body.
        code, out, err = run_cli(capsys, "euler", "~A[P")
        assert code == 3
        assert out == ""
        assert f"capped at {EDGE_LIST_MAX} vertices, got n = {EDGE_LIST_MAX + 1}" in err


class TestEdgeListCap:
    def test_declared_count_over_the_cap_is_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "classify", "vertices: 1000000000000\n0 1\n", "--json")
        assert code == 3
        assert out == ""
        assert f"capped at {EDGE_LIST_MAX} vertices" in err
        assert "1000000000000" in err


class TestDeterminism:
    def test_repeated_runs_are_identical(self, capsys):
        first = run_cli(capsys, "enumerate", "5", "--golden", "--json")
        second = run_cli(capsys, "enumerate", "5", "--golden", "--json")
        assert first == second

    def test_keys_are_sorted(self, capsys):
        _, out, _ = run_cli(capsys, "classify", "t=1", "--json")
        doc = json.loads(out)
        assert list(doc) == sorted(doc)
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def run_command(command: list[str], *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([*command, *argv], capture_output=True, text=True)


def assert_classifies_t(command: list[str]) -> None:
    proc = run_command(command, "classify", "t=1", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["algebra_name"] == "T"


class TestProcessLevel:
    def test_console_script_is_installed(self):
        # The declaration: pyproject.toml maps the raagcs script to run().
        if tomllib is not None:
            with PYPROJECT.open("rb") as fh:
                scripts = tomllib.load(fh)["project"]["scripts"]
            assert scripts.get("raagcs") == SCRIPT_TARGET

        # The target resolves to a callable.
        assert callable(getattr(importlib.import_module(SCRIPT_MODULE), SCRIPT_ATTR))

        # Run as the wrapper runs it: main's exit code must come through,
        # both the codes main returns and argparse's own exit.
        assert_classifies_t(WRAPPER)
        assert run_command(WRAPPER, "realize", "t=2").returncode == 4
        assert run_command(WRAPPER).returncode == 2

        # Where the package is installed, the script itself is on PATH.
        installed = metadata.entry_points(group="console_scripts", name="raagcs")
        if installed:
            (entry,) = installed
            assert entry.value == SCRIPT_TARGET
            assert entry.dist is not None and entry.dist.name == "raagcs"
            script = shutil.which("raagcs")
            assert script, "console script raagcs is installed but not on PATH"
            assert_classifies_t([script])

    def test_module_entry_point_and_stdin(self):
        proc = subprocess.run(
            [sys.executable, "-m", "raagcs", "classify", "-", "--json"],
            input="t=1\n",
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["algebra_name"] == "T"

    def test_byte_identical_runs(self):
        cmd = [sys.executable, "-m", "raagcs", "enumerate", "5", "--json"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_conflicting_modes_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "raagcs", "classify", "t=1", "--json", "--human"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_missing_command_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "raagcs"], capture_output=True, text=True
        )
        assert proc.returncode == 2


class TestGoldenData:
    def test_shape(self):
        golden = load_golden()
        assert golden["n"] == 5
        assert len(golden["classes"]) == 34
        fields = {"profile", "algebra_name", "graph_algebra", "semiprojectivity"}
        for row in golden["classes"].values():
            assert set(row) == fields


class TestInputErrors:
    def test_non_utf8_file_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe0\x00 \x001\x00\n\x00")
        code, out, err = run_cli(capsys, "classify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: not UTF-8 text")

    @pytest.mark.parametrize("text", ["Dé", "D\udcff"])
    def test_graph6_outside_ascii_is_exit_2(self, capsys, text):
        code, out, err = run_cli(capsys, "classify", "--format", "graph6", text)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "graph6" in err

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_negative_enumerate_is_exit_2(self, capsys, mode):
        code, out, err = run_cli(capsys, "enumerate", "-1", *mode)
        assert code == 2
        assert out == ""
        assert err == "error: bad n '-1'\n"


# Every numeric input field: (subcommand, input with "{}" for the field, the
# field's name in refusals, the refusal's line prefix, a value it accepts).
NUMERIC_FIELDS = {
    "vertices-header": ("classify", "vertices: {}\na b\n", "vertex count", "line 1: ", "3"),
    "dvertices-header": ("ktheory", "dvertices: {}\n0 0 1\n", "vertex count", "line 1: ", "2"),
    "emitter": ("ktheory", "dvertices: 2\n{} *\n0 1 1\n", "infinite emitter", "line 2: ", "1"),
    "source": ("ktheory", "dvertices: 2\n{} 1 1\n", "edge endpoint", "line 2: ", "1"),
    "target": ("ktheory", "dvertices: 2\n0 {} 1\n", "edge endpoint", "line 2: ", "1"),
    "multiplicity": ("ktheory", "dvertices: 2\n0 1 {}\n", "multiplicity", "line 2: ", "2"),
    "count": ("classify", "t={}", "count", "", "7"),
    "key": ("classify", "N[{}]=1", "key N[k]", "", "7"),
    "enumerate-n": ("enumerate", "{}", "n", "", "3"),
}
NOT_DIGITS = {
    "letters": "ab",
    "plus": "+1",
    "minus": "-1",
    "underscore": "1_0",
    "superscript": "\u00b2",
    "arabic-indic": "\u0663",
    "long": "1" * 4001,
}
# N[-1] is a key: the sign belongs to the profile grammar.
REFUSED = [
    pytest.param(field, value, id=f"{field}-{name}")
    for field in NUMERIC_FIELDS
    for name, value in NOT_DIGITS.items()
    if (field, name) != ("key", "minus")
]


class TestNumericFields:
    """Every numeric field is read by ``graphs.parse_decimal``: ASCII digits,
    no sign, at most ``PROFILE_DIGITS_MAX`` past leading zeros."""

    @pytest.mark.parametrize("field, value", REFUSED)
    def test_refusals_are_exit_2(self, capsys, field, value):
        command, template, what, line, _ = NUMERIC_FIELDS[field]
        code, out, err = run_cli(capsys, command, template.format(value))
        if len(value) > PROFILE_DIGITS_MAX:
            message = f"{what} too long: {len(value)} digits, over {PROFILE_DIGITS_MAX}"
        elif field == "key":  # the key pattern takes only ASCII digits
            message = f"unknown profile key {template.format(value).split('=')[0]!r}"
        else:
            message = f"bad {what} {value!r}"
        assert (code, out) == (2, "")
        assert err == f"error: {line}{message}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    def test_leading_zeros_are_free(self, capsys, field):
        command, template, _, _, good = NUMERIC_FIELDS[field]
        padded = run_cli(capsys, command, template.format("0" * 4001 + good))
        assert padded == run_cli(capsys, command, template.format(good))
        assert padded[0] == 0
