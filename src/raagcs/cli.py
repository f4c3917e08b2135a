"""Command-line surface: classification verdicts as JSON or text.

Commands: classify, compare, enumerate, realize, ktheory, euler,
decompose.  Inputs are taken from a file, from stdin with ``-``, or
inline; the format is auto-detected (profile specs contain ``=``,
directed graphs start with ``dvertices:``, a lone printable token is
graph6, anything else is an edge list) and can be forced with
``--format``.

Each ``cmd_*`` returns one JSON document and prints nothing.  ``main``
prints that document, as JSON or as its text view (the document's
warnings, then the subcommand's ``_text_*`` renderer, which reads the
document alone), and picks the exit code.  A census is written as JSON
row by row, each distinct profile's row rendered once, in the bytes of
the whole document.  The argument parser is built once per process, at
import.  JSON output is byte-stable: keys are sorted, maps with integer
keys are emitted as sorted pairs, and two runs on the same input produce
identical bytes.

Exit codes: 0 success, 2 parse error, 3 limit violation, 4 not
realizable, 5 realization not implemented, 6 golden-data mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings as warnings_module
from collections import Counter
from dataclasses import fields, is_dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Sequence

from .artin import (
    NOT_SEMIPROJECTIVE,
    SEMIPROJECTIVE,
    UNKNOWN,
    AbGroup,
    ComponentClass,
    ExtNat,
    InvariantProfile,
    algebra_name,
    classify_component,
    compare,
    component_ktheory,
    component_name,
    invariant_profile,
    is_graph_algebra,
    normal_form,
    parse_profile_spec,
    prim_space,
    profile_components,
    profile_of_classes,
    profile_spec_string,
    semiprojectivity,
)
from .euler import clique_counts
from .graphs import (
    LimitExceeded,
    ParseError,
    _COMMENT,
    complement_components,
    enumerate_graphs,
    induced_subgraph,
    is_graph6_token,
    parse_decimal,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .kgraph import (
    NotRealizable,
    RealizationNotImplemented,
    condition_k,
    format_dgraph,
    graph_ktheory,
    parse_dgraph,
    realize,
    sink_ideal_analysis,
)

GOLDEN_RESOURCE = "five_vertex_census.json"
# The order the text census lists the tally in.
SEMIPROJECTIVITY_VERDICTS = (SEMIPROJECTIVE, NOT_SEMIPROJECTIVE, UNKNOWN)


# ---------------------------------------------------------------- input


def _read_input(token: str) -> str:
    """Resolve an input argument: '-' is stdin, an existing file is read,
    anything else is taken literally."""
    if token == "-":
        return sys.stdin.read()
    path = Path(token)
    try:
        if path.is_file():
            return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{token}: not UTF-8 text ({exc.reason})") from None
    except OSError:
        pass
    return token


def detect_format(text: str) -> str:
    """Guess among profile, dgraph, graph6, and edges.  The comment-cut text
    decides the first two: a dgraph if its first significant line starts
    ``dvertices:``, a profile if any ``=`` is left."""
    body = _COMMENT.sub(" ", text).lstrip()
    if body.startswith("dvertices:"):
        return "dgraph"
    if "=" in body:
        return "profile"
    tokens = text.split(maxsplit=1)
    if len(tokens) == 1 and is_graph6_token(tokens[0]):
        return "graph6"
    return "edges"


def _parse_input(token: str, args: argparse.Namespace) -> tuple[Any, dict[str, Any]]:
    """Read and parse one CLI input argument, in one of the subcommand's
    ``args.formats``, into (value, head): the value is a graph, a profile
    or a dgraph, and the head holds the document keys the input brings,
    its ``warnings`` and, for every format but dgraph, its ``input`` echo."""
    text = _read_input(token)
    fmt = args.format or detect_format(text)
    if fmt not in args.formats:
        expected = ", ".join(args.formats)
        raise ParseError(f"input format {fmt!r} is not usable here (expected one of {expected})")
    if fmt == "profile":
        p = parse_profile_spec(text)
        return p, {"input": {"kind": "profile", "spec": profile_spec_string(p)}, "warnings": []}
    if fmt == "dgraph":
        return parse_dgraph(text), {"warnings": []}
    with warnings_module.catch_warnings(record=True) as caught:
        warnings_module.simplefilter("always")
        g = parse_graph6(text) if fmt == "graph6" else parse_edge_list(text)
    echo = {"kind": "graph", "n": g.n, "edges": g.edge_count, "graph6": to_graph6(g)}
    return g, {"input": echo, "warnings": [str(w.message) for w in caught]}


# ----------------------------------------------------------------- JSON


def _json(x: Any) -> Any:
    """Map a library result to JSON: dataclasses and named tuples become
    objects keyed by field name, ExtNat an int or "inf", AbGroup
    {free_rank, torsion, name}, other tuples lists."""
    if isinstance(x, ExtNat):
        return x.value if x.is_finite else "inf"
    if isinstance(x, AbGroup):
        return {"free_rank": x.free_rank, "torsion": list(x.torsion), "name": str(x)}
    if isinstance(x, tuple):
        if hasattr(x, "_fields"):
            return {f: _json(v) for f, v in zip(x._fields, x)}
        return [_json(v) for v in x]
    if is_dataclass(x):
        return {f.name: _json(getattr(x, f.name)) for f in fields(x)}
    return x


def _verdict_json(p: InvariantProfile) -> dict[str, Any]:
    """The keys every verdict carries, all read from one normal form."""
    nf = normal_form(p)
    return {
        "profile": _json(p),
        "normal_form": _json(nf),
        "stable_normal_form": _json(nf.stable()),
        "algebra_name": str(nf),
    }


def _algebra_kind_json(p: InvariantProfile) -> dict[str, Any]:
    """Graph-algebra and semiprojectivity verdicts (classify, census rows)."""
    return {
        "graph_algebra": _json(is_graph_algebra(p)),
        "semiprojectivity": _json(semiprojectivity(p)),
    }


def _verdict_input(token: str, args: argparse.Namespace) -> tuple[InvariantProfile, dict[str, Any]]:
    """Read a graph or profile argument into (profile, head)."""
    value, head = _parse_input(token, args)
    if isinstance(value, InvariantProfile):
        return value, head
    return invariant_profile(value), head


def _component_json(cls: ComponentClass) -> dict[str, Any]:
    """A component class's name and chi (None unless it is a FiniteExt)."""
    return {"class": component_name(cls), "chi": getattr(cls, "chi", None)}


# ----------------------------------------------------------------- text


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


def profile_human(p: dict[str, Any]) -> str:
    """Text form of a profile's JSON object."""
    parts = []
    if p["t"] != 0:
        parts.append(f"t = {p['t']}")
    if p["o"] != 0:
        parts.append(f"o = {p['o']}")
    parts.extend(f"N_{k} = {c}" for k, c in p["N"])
    return ", ".join(parts) if parts else "all counts zero"


def nf_human(nf: dict[str, Any]) -> str:
    """Text form of a normal form's JSON object."""
    parts = [f"t = {nf['t']}", f"z = {nf['z']}"]
    parts.extend(f"M_{n} = {c}" for n, c in nf["M"])
    parts.append(f"omin = {nf['omin']}")
    parts.append(f"parity = {nf['parity']}")
    return ", ".join(parts)


# ------------------------------------------------------------- classify


def cmd_classify(args: argparse.Namespace) -> dict[str, Any]:
    p, head = _verdict_input(args.input, args)
    if p.is_empty:
        head["warnings"].append("empty profile: no components, the algebra is the scalars C")
    parts = profile_components(p)
    return {
        "document": "classification",
        **head,
        **_verdict_json(p),
        **_algebra_kind_json(p),
        "components": [
            {**_component_json(cls), "count": _json(count)} for cls, count in parts
        ],
        "ktheory": [_json(component_ktheory(cls)) for cls, _ in parts],
        "prim_space": _json(prim_space(p)),
    }


def _text_classify(doc: dict[str, Any]) -> None:
    echo = doc["input"]
    if echo["kind"] == "graph":
        print(f"input: graph on {echo['n']} vertices, {echo['edges']} edges ({echo['graph6']})")
    else:
        print(f"input: profile {echo['spec'] or '(all zero)'}")
    print(f"profile: {profile_human(doc['profile'])}")
    print(f"algebra: {doc['algebra_name']}")
    print(f"normal form: {nf_human(doc['normal_form'])}")
    print(f"stable normal form: {nf_human(doc['stable_normal_form'])}")
    prim = doc["prim_space"]
    print(
        "prim space: "
        f"{prim['toeplitz_components']} point-plus-circle, "
        f"{prim['two_point_components']} two-point, "
        f"{prim['one_point_components']} one-point component(s)"
    )
    for row in doc["ktheory"]:
        bits = [
            f"K0 = {row['k0_full']['name']} (unit {'generates' if row['unit_is_generator'] else 'does not generate'})",
            f"K1 = {row['k1_full']['name']}",
        ]
        if row["index_value"] is not None:
            bits.append(f"index = {row['index_value']}")
        if row["k0_quotient"] is not None:
            bits.append(f"quotient K0 = {row['k0_quotient']['name']}")
            bits.append(f"quotient K1 = {row['k1_quotient']['name']}")
        print(f"ktheory[{row['component']}]: " + ", ".join(bits) + f"  ({row['label']})")
    ga = doc["graph_algebra"]
    clause = f" (clause {ga['clause']})" if ga["clause"] else ""
    print(f"graph algebra: {_yesno(ga['value'])}{clause}")
    sp = doc["semiprojectivity"]
    clause = f" (clause {sp['clause']})" if sp["clause"] else ""
    print(f"semiprojectivity: {sp['verdict']}{clause}")


# -------------------------------------------------------------- compare


def cmd_compare(args: argparse.Namespace) -> dict[str, Any]:
    if args.left == args.right == "-":
        raise ParseError("stdin can be read once: only one side may be '-'")
    sides = [_verdict_input(token, args) for token in (args.left, args.right)]
    doc = {"document": "comparison", **_json(compare(sides[0][0], sides[1][0]))}
    for tag, (p, head) in zip(("left", "right"), sides):
        doc[tag] = {**head, **_verdict_json(p)}
    return doc


def _text_compare(doc: dict[str, Any]) -> None:
    for tag in ("left", "right"):
        for w in doc[tag]["warnings"]:
            print(f"warning: {tag}: {w}")
    for tag in ("left", "right"):
        side = doc[tag]
        print(f"{tag}: {profile_human(side['profile'])}  ->  {side['algebra_name']}")
    print(f"isomorphic: {_yesno(doc['isomorphic'])}")
    print(f"stably isomorphic: {_yesno(doc['stably_isomorphic'])}")
    failed = ", ".join(doc["failed_conditions"]) or "none"
    print(f"failed conditions: {failed}")


# ------------------------------------------------------------ enumerate


def build_census(n: int) -> dict[str, Any]:
    """The census of the isomorphism classes on n vertices, sorted by
    canonical graph6 string.  Each distinct profile's verdict is computed
    once and shared by its rows, and the summary is read off the distinct
    verdicts and their row counts."""
    graphs = enumerate_graphs(n)
    profiles = [invariant_profile(g) for g in graphs]
    counts = Counter(profiles)
    verdicts = {p: {**_verdict_json(p), **_algebra_kind_json(p)} for p in counts}
    rows = [
        {"graph6": to_graph6(g), "edges": g.edge_count, **verdicts[p]}
        for g, p in zip(graphs, profiles)
    ]
    tally = dict.fromkeys(SEMIPROJECTIVITY_VERDICTS, 0)
    for p, count in counts.items():
        tally[verdicts[p]["semiprojectivity"]["verdict"]] += count
    distinct = lambda key: len({json.dumps(v[key], sort_keys=True) for v in verdicts.values()})
    return {
        "document": "census",
        "n": n,
        "graph_count": len(graphs),
        "classes": rows,
        "distinct_normal_forms": distinct("normal_form"),
        "distinct_stable_normal_forms": distinct("stable_normal_form"),
        "graph_algebra_count": sum(
            count for p, count in counts.items() if verdicts[p]["graph_algebra"]["value"]
        ),
        "semiprojectivity_tally": tally,
    }


def _write_census(doc: dict[str, Any]) -> None:
    """Print a census as ``json.dumps(doc, sort_keys=True, indent=2)`` would,
    row by row.  The document is rendered once with a NUL hole for
    ``classes``; rows that share a profile object share its verdict, so that
    row is rendered once, with holes for ``edges`` and ``graph6``."""
    hole, dumps = json.dumps("\0"), lambda x: json.dumps(x, sort_keys=True, indent=2)
    head, tail = dumps({**doc, "classes": "\0"}).split(hole)
    templates: dict[int, list[str]] = {}
    write = sys.stdout.write
    write(head + "[")
    for i, row in enumerate(doc["classes"]):  # never empty: n = 0 has one graph
        key = id(row["profile"])
        if key not in templates:
            text = "\n" + dumps({**row, "edges": "\0", "graph6": "\0"})
            templates[key] = text.replace("\n", "\n    ").split(hole)
        start, mid, end = templates[key]
        write(f"{',' if i else ''}{start}{row['edges']}{mid}{json.dumps(row['graph6'])}{end}")
    write("\n  ]" + tail + "\n")


def load_golden() -> dict[str, Any]:
    data = resources.files("raagcs").joinpath("data", GOLDEN_RESOURCE)
    return json.loads(data.read_text(encoding="utf-8"))


def golden_mismatches(doc: dict[str, Any], golden: dict[str, Any]) -> list[str]:
    """Field-by-field comparison of a census against the golden table."""
    problems = []
    if doc["n"] != golden["n"]:
        return [f"golden data covers n = {golden['n']}, not n = {doc['n']}"]
    # Each census row projected onto the golden fields, in the order checked.
    actual = {
        row["graph6"]: {
            "profile": row["profile"],
            "algebra_name": row["algebra_name"],
            "graph_algebra": row["graph_algebra"]["value"],
            "semiprojectivity": row["semiprojectivity"]["verdict"],
        }
        for row in doc["classes"]
    }
    expected = golden["classes"]
    for key in sorted(expected.keys() - actual.keys()):
        problems.append(f"missing class {key}")
    for key in sorted(actual.keys() - expected.keys()):
        problems.append(f"unexpected class {key}")
    for key in sorted(actual.keys() & expected.keys()):
        for field, got in actual[key].items():
            want = expected[key][field]
            if got != want:
                problems.append(f"{key}: {field} = {got!r}, golden has {want!r}")
    return problems


def cmd_enumerate(args: argparse.Namespace) -> dict[str, Any]:
    doc = build_census(parse_decimal(args.n, "n"))
    if args.golden:
        problems = golden_mismatches(doc, load_golden())
        doc["golden"] = {"match": not problems, "mismatches": problems}
    return doc


def _text_enumerate(doc: dict[str, Any]) -> None:
    print(f"n = {doc['n']}: {doc['graph_count']} isomorphism classes")
    header = f"{'graph6':<10}{'edges':<7}{'profile':<30}{'algebra':<24}{'GA':<5}semiprojectivity"
    print(header)
    for row in doc["classes"]:
        prof = profile_human(row["profile"])
        ga = _yesno(row["graph_algebra"]["value"])
        sp = row["semiprojectivity"]["verdict"]
        print(
            f"{row['graph6']:<10}{row['edges']:<7}{prof:<30}"
            f"{row['algebra_name']:<24}{ga:<5}{sp}"
        )
    print(f"distinct normal forms: {doc['distinct_normal_forms']}")
    print(f"distinct stable normal forms: {doc['distinct_stable_normal_forms']}")
    print(f"graph algebras: {doc['graph_algebra_count']}")
    tally = doc["semiprojectivity_tally"]
    counts = ", ".join(f"{tally[v]} {v}" for v in SEMIPROJECTIVITY_VERDICTS)
    print(f"semiprojectivity: {counts}")
    if "golden" in doc:
        for problem in doc["golden"]["mismatches"]:
            print(f"golden mismatch: {problem}")
        print(f"golden: {'match' if doc['golden']['match'] else 'MISMATCH'}")


# -------------------------------------------------------------- realize


def cmd_realize(args: argparse.Namespace) -> dict[str, Any]:
    p, head = _verdict_input(args.input, args)
    dg, report = realize(p)
    return {
        "document": "realization",
        **head,
        "profile": _json(p),
        "algebra_name": report.target,  # a realized algebra is its one factor
        "target": report.target,
        "dgraph": format_dgraph(dg),
        "verification": {**_json(report), "passed": report.passed},
    }


def _text_realize(doc: dict[str, Any]) -> None:
    print(f"target: {doc['target']} (algebra {doc['algebra_name']})")
    print(doc["dgraph"], end="")
    for check in doc["verification"]["checks"]:
        mark = "ok " if check["ok"] else "FAIL"
        print(f"  [{mark}] {check['name']}: {check['detail']}")
    print(f"condition (K): {'holds' if doc['verification']['condition_k'] else 'fails'}")
    print(f"verification: {'passed' if doc['verification']['passed'] else 'FAILED'}")


# -------------------------------------------------------------- ktheory


def cmd_ktheory(args: argparse.Namespace) -> dict[str, Any]:
    dg, head = _parse_input(args.input, args)
    six = None
    if len(dg.sinks) == 1:
        try:
            six = sink_ideal_analysis(dg)
        except ValueError as exc:
            head["warnings"].append(f"sink extension not analyzed: {exc}")
    rep = graph_ktheory(dg) if six is None else six.full
    return {
        "document": "ktheory",
        **head,
        "dgraph": format_dgraph(dg),
        "n": dg.n,
        "regular_vertices": list(dg.regular_vertices),
        "sinks": list(dg.sinks),
        "infinite_emitters": sorted(dg.infinite_emitters),
        "k0": _json(rep.k0),
        "k1": _json(rep.k1),
        "unit_class": list(rep.unit_class),
        "unit_is_generator": rep.unit_is_generator,
        "vertex_classes": [list(c) for c in rep.vertex_class],
        "condition_k": condition_k(dg),
        "sink_extension": None
        if six is None
        else {
            "sink": six.sink,
            "kappa": six.kappa,
            "unit_is_generator": six.full.unit_is_generator,
            "quotient_k0": _json(six.quotient.k0),
            "quotient_k1": _json(six.quotient.k1),
        },
    }


def _text_ktheory(doc: dict[str, Any]) -> None:
    print(
        f"directed graph: {doc['n']} vertices, "
        f"regular {doc['regular_vertices']}, sinks {doc['sinks']}, "
        f"infinite emitters {doc['infinite_emitters']}"
    )
    print(f"K0 = {doc['k0']['name']}, K1 = {doc['k1']['name']}")
    print(f"unit class: {doc['unit_class']} (generator: {_yesno(doc['unit_is_generator'])})")
    for v, cls in enumerate(doc["vertex_classes"]):
        print(f"  [{v}] -> {cls}")
    print(f"condition (K): {'holds' if doc['condition_k'] else 'fails'}")
    extension = doc["sink_extension"]
    if extension is not None:
        print(
            f"sink {extension['sink']}: kappa = {extension['kappa']}, "
            f"quotient K0 = {extension['quotient_k0']['name']}, "
            f"quotient K1 = {extension['quotient_k1']['name']}"
        )


# ---------------------------------------------------------------- euler


def cmd_euler(args: argparse.Namespace) -> dict[str, Any]:
    g, head = _parse_input(args.input, args)
    vec = clique_counts(g)
    return {
        "document": "euler",
        **head,
        "clique_counts": list(vec.counts),
        "euler_characteristic": vec.euler(),
    }


def _text_euler(doc: dict[str, Any]) -> None:
    counts = ", ".join(
        f"c_{k} = {c}" for k, c in enumerate(doc["clique_counts"], start=1) if c
    )
    print(f"clique counts: {counts or 'none'}")
    print(f"euler characteristic: {doc['euler_characteristic']}")


# ------------------------------------------------------------ decompose


def cmd_decompose(args: argparse.Namespace) -> dict[str, Any]:
    g, head = _parse_input(args.input, args)
    classes = []
    components = []
    for vertices in complement_components(g):
        sub = induced_subgraph(g, vertices)
        cls = classify_component(sub)
        classes.append(cls)
        components.append(
            {"vertices": list(vertices), "graph6": to_graph6(sub), **_component_json(cls)}
        )
    p = profile_of_classes(classes)
    return {
        "document": "decomposition",
        **head,
        "components": components,
        "profile": _json(p),
        "algebra_name": algebra_name(p),
    }


def _text_decompose(doc: dict[str, Any]) -> None:
    print(f"co-irreducible components: {len(doc['components'])}")
    for i, comp in enumerate(doc["components"]):
        chi = "" if comp["chi"] is None else f", chi = {comp['chi']}"
        print(
            f"  [{i}] vertices {comp['vertices']} -> {comp['class']}{chi}"
        )
    print(f"profile: {profile_human(doc['profile'])}")
    print(f"algebra: {doc['algebra_name']}")


# ----------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raagcs",
        description=(
            "Classify semigroup C*-algebras of right-angled Artin monoids "
            "from undirected graphs or invariant profiles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verdict_formats = ("graph6", "edges", "profile")
    graph_formats = ("graph6", "edges")

    def common(
        p: argparse.ArgumentParser, formats: tuple[str, ...], func: Callable, text: Callable
    ) -> None:
        """``--json``, ``--format`` over the formats the subcommand reads (none
        for ``()``), the command it runs, and its text view: a ``warning:``
        line for each of the document's ``warnings``, then the renderer."""

        def view(doc: dict[str, Any]) -> None:
            for w in doc.get("warnings", ()):
                print(f"warning: {w}")
            text(doc)

        p.add_argument("--json", action="store_true", help="emit a JSON document")
        if formats:
            p.add_argument(
                "--format",
                choices=formats,
                help="force the input format instead of auto-detecting",
            )
        p.set_defaults(formats=formats, func=func, text=view)

    c = sub.add_parser("classify", help="full verdict for a graph or profile")
    c.add_argument("input", help="file, inline text, or - for stdin")
    common(c, verdict_formats, cmd_classify, _text_classify)

    c = sub.add_parser("compare", help="decide isomorphism of two inputs")
    c.add_argument("left")
    c.add_argument("right")
    common(c, verdict_formats, cmd_compare, _text_compare)

    c = sub.add_parser(
        "enumerate", help="classify all isomorphism classes on n vertices"
    )
    c.add_argument("n")
    c.add_argument(
        "--golden",
        action="store_true",
        help="check the result against the shipped five-vertex table",
    )
    common(c, (), cmd_enumerate, _text_enumerate)

    c = sub.add_parser(
        "realize", help="directed graph realizing a profile's algebra"
    )
    c.add_argument("input")
    common(c, verdict_formats, cmd_realize, _text_realize)

    c = sub.add_parser("ktheory", help="K-theory of a directed graph")
    c.add_argument("input")
    common(c, ("dgraph",), cmd_ktheory, _text_ktheory)

    c = sub.add_parser("euler", help="clique counts and Euler characteristic")
    c.add_argument("input")
    common(c, graph_formats, cmd_euler, _text_euler)

    c = sub.add_parser("decompose", help="co-irreducible components")
    c.add_argument("input")
    common(c, graph_formats, cmd_decompose, _text_decompose)

    return parser


_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        doc = args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotRealizable as exc:
        print(f"not realizable: {exc}", file=sys.stderr)
        return 4
    except RealizationNotImplemented as exc:
        print(f"not implemented: {exc}", file=sys.stderr)
        return 5
    if not args.json:
        args.text(doc)
    elif doc["document"] == "census":
        _write_census(doc)
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
    return 6 if "golden" in doc and not doc["golden"]["match"] else 0


def run() -> None:
    sys.exit(main())
