"""Command-line surface: classification verdicts as JSON or text.

Commands: classify, compare, enumerate, realize, ktheory, euler,
decompose.  Inputs are taken from a file, from stdin with ``-``, or
inline; the format is auto-detected (profile specs contain ``=``,
directed graphs start with ``dvertices:``, a lone printable token is
graph6, anything else is an edge list) and can be forced with
``--format``.  JSON output is byte-stable: keys are sorted, maps with
integer keys are emitted as sorted pairs, and two runs on the same input
produce identical bytes.

Exit codes: 0 success, 2 parse error, 3 limit violation, 4 not
realizable, 5 realization not implemented, 6 golden-data mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings as warnings_module
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Sequence

from .artin import (
    AbGroup,
    AlgebraNormalForm,
    ExtNat,
    FiniteExt,
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
    semiprojectivity,
    stable_normal_form,
)
from .euler import clique_counts
from .graphs import (
    ENUMERATE_MAX,
    LimitExceeded,
    ParseError,
    UndirectedGraph,
    complement_components,
    enumerate_graphs,
    induced_subgraph,
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
    verify_realization,
)

GOLDEN_RESOURCE = "five_vertex_census.json"


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
    except OSError:
        pass
    return token


def _graph6_like(token: str) -> bool:
    body = token.removeprefix(">>graph6<<")
    return bool(body) and all(63 <= ord(ch) <= 126 for ch in body)


def detect_format(text: str) -> str:
    """Guess among profile, dgraph, graph6, and edges."""
    stripped = text.strip()
    for raw in stripped.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("dvertices:"):
            return "dgraph"
        break
    if "=" in stripped:
        return "profile"
    tokens = stripped.split()
    if len(tokens) == 1 and _graph6_like(tokens[0]):
        return "graph6"
    return "edges"


ParsedInput = tuple[str, Any, list[str]]


def _parse_input(text: str, fmt: str | None, allowed: Sequence[str]) -> ParsedInput:
    """Parse one CLI input into ('graph'|'profile'|'dgraph', value, warnings)."""
    fmt = fmt or detect_format(text)
    if fmt not in allowed:
        raise ParseError(
            f"input format {fmt!r} is not usable here (expected one of "
            + ", ".join(allowed)
            + ")"
        )
    if fmt == "profile":
        return "profile", parse_profile_spec(text), []
    if fmt == "dgraph":
        return "dgraph", parse_dgraph(text), []
    with warnings_module.catch_warnings(record=True) as caught:
        warnings_module.simplefilter("always")
        g = parse_graph6(text) if fmt == "graph6" else parse_edge_list(text)
    return "graph", g, [str(w.message) for w in caught]


# ------------------------------------------------------------ JSON atoms


def _extnat_json(x: ExtNat) -> int | str:
    return x.value if x.is_finite else "inf"


def _group_json(g: AbGroup | None) -> dict[str, Any] | None:
    if g is None:
        return None
    return {
        "free_rank": g.free_rank,
        "torsion": list(g.torsion),
        "name": str(g),
    }


def _profile_json(p: InvariantProfile) -> dict[str, Any]:
    return {
        "t": _extnat_json(p.t),
        "o": _extnat_json(p.o),
        "N": [[k, _extnat_json(c)] for k, c in p.N],
    }


def _nf_json(nf: AlgebraNormalForm) -> dict[str, Any]:
    return {
        "t": _extnat_json(nf.t),
        "z": _extnat_json(nf.z),
        "M": [[n, _extnat_json(c)] for n, c in nf.M],
        "omin": nf.omin,
        "parity": nf.parity,
    }


def _verdict_json(p: InvariantProfile) -> dict[str, Any]:
    """The keys every verdict carries: profile, normal forms and name."""
    return {
        "profile": _profile_json(p),
        "normal_form": _nf_json(normal_form(p)),
        "stable_normal_form": _nf_json(stable_normal_form(p)),
        "algebra_name": algebra_name(p),
    }


def _algebra_kind_json(p: InvariantProfile) -> dict[str, Any]:
    """Graph-algebra and semiprojectivity verdicts (classify, census rows)."""
    ga = is_graph_algebra(p)
    sp = semiprojectivity(p)
    return {
        "graph_algebra": {"value": ga.value, "clause": ga.clause},
        "semiprojectivity": {"verdict": sp.verdict, "clause": sp.clause},
    }


def _dumps(doc: dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def profile_spec_string(p: InvariantProfile) -> str:
    """Canonical profile-spec rendering; inverse of parse_profile_spec."""
    parts = []
    if p.t != 0:
        parts.append(f"t={p.t}")
    if p.o != 0:
        parts.append(f"o={p.o}")
    parts.extend(f"N[{k}]={c}" for k, c in p.N)
    return ";".join(parts)


# ----------------------------------------------------------- text atoms


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


def profile_human(p: InvariantProfile) -> str:
    parts = []
    if p.t != 0:
        parts.append(f"t = {p.t}")
    if p.o != 0:
        parts.append(f"o = {p.o}")
    parts.extend(f"N_{k} = {c}" for k, c in p.N)
    return ", ".join(parts) if parts else "all counts zero"


def nf_human(nf: AlgebraNormalForm) -> str:
    parts = [f"t = {nf.t}", f"z = {nf.z}"]
    parts.extend(f"M_{n} = {c}" for n, c in nf.M)
    parts.append(f"omin = {nf.omin}")
    parts.append(f"parity = {nf.parity}")
    return ", ".join(parts)


def _graph_echo(g: UndirectedGraph) -> dict[str, Any]:
    return {
        "kind": "graph",
        "n": g.n,
        "edges": [[u, v] for u, v in sorted(g.edges)],
        "graph6": to_graph6(g),
    }


def _profile_echo(p: InvariantProfile) -> dict[str, Any]:
    return {"kind": "profile", "spec": profile_spec_string(p)}


def _to_profile(kind: str, value: Any) -> InvariantProfile:
    return value if kind == "profile" else invariant_profile(value)


def _echo(kind: str, value: Any) -> dict[str, Any]:
    if kind == "profile":
        return _profile_echo(value)
    return _graph_echo(value)


# ------------------------------------------------------------- classify


def _classification_doc(
    kind: str, value: Any, warns: list[str]
) -> dict[str, Any]:
    p = _to_profile(kind, value)
    if p.is_empty:
        warns = warns + [
            "empty profile: no components, the algebra is the scalars C"
        ]
    prim = prim_space(p)
    components = []
    ktheory_rows = []
    for cls, count in profile_components(p):
        chi = cls.chi if isinstance(cls, FiniteExt) else None
        components.append(
            {
                "class": component_name(cls),
                "count": _extnat_json(count),
                "chi": chi,
            }
        )
        row = component_ktheory(cls)
        ktheory_rows.append(
            {
                "component": row.component,
                "label": row.label,
                "k0_full": _group_json(row.k0_full),
                "unit_is_generator": row.unit_is_generator,
                "k1_full": _group_json(row.k1_full),
                "index_value": row.index_value,
                "k0_ideal": _group_json(row.k0_ideal),
                "k0_quotient": _group_json(row.k0_quotient),
                "k1_quotient": _group_json(row.k1_quotient),
            }
        )
    return {
        "document": "classification",
        "input": _echo(kind, value),
        "warnings": warns,
        **_verdict_json(p),
        **_algebra_kind_json(p),
        "components": components,
        "ktheory": ktheory_rows,
        "prim_space": {
            "toeplitz_components": _extnat_json(prim.toeplitz_components),
            "two_point_components": _extnat_json(prim.two_point_components),
            "one_point_components": _extnat_json(prim.one_point_components),
            "is_product": prim.is_product,
            "minimal_nonzero_ideals": _extnat_json(prim.minimal_nonzero_ideals),
        },
    }


def _print_classification_human(doc: dict[str, Any], p: InvariantProfile) -> None:
    echo = doc["input"]
    if echo["kind"] == "graph":
        print(f"input: graph on {echo['n']} vertices, {len(echo['edges'])} edges ({echo['graph6']})")
    else:
        print(f"input: profile {echo['spec'] or '(all zero)'}")
    for w in doc["warnings"]:
        print(f"warning: {w}")
    print(f"profile: {profile_human(p)}")
    print(f"algebra: {doc['algebra_name']}")
    print(f"normal form: {nf_human(normal_form(p))}")
    print(f"stable normal form: {nf_human(stable_normal_form(p))}")
    prim = doc["prim_space"]
    print(
        "prim space: "
        f"{prim['toeplitz_components']} point-plus-circle, "
        f"{prim['two_point_components']} two-point, "
        f"{prim['one_point_components']} one-point component(s); "
        f"minimal nonzero ideals: {prim['minimal_nonzero_ideals']}"
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


def cmd_classify(args: argparse.Namespace) -> int:
    kind, value, warns = _parse_input(
        _read_input(args.input), args.format, ("graph6", "edges", "profile")
    )
    doc = _classification_doc(kind, value, warns)
    if args.json:
        print(_dumps(doc), end="")
    else:
        _print_classification_human(doc, _to_profile(kind, value))
    return 0


# -------------------------------------------------------------- compare


def cmd_compare(args: argparse.Namespace) -> int:
    sides = []
    for token in (args.left, args.right):
        kind, value, warns = _parse_input(
            _read_input(token), args.format, ("graph6", "edges", "profile")
        )
        p = _to_profile(kind, value)
        sides.append((kind, value, p, warns))
    p1, p2 = sides[0][2], sides[1][2]
    verdict = compare(p1, p2)
    doc = {
        "document": "comparison",
        "left": _compare_side(*sides[0]),
        "right": _compare_side(*sides[1]),
        "isomorphic": verdict.isomorphic,
        "stably_isomorphic": verdict.stably_isomorphic,
        "failed_conditions": list(verdict.failed_conditions),
    }
    if args.json:
        print(_dumps(doc), end="")
        return 0
    for tag, p in (("left", p1), ("right", p2)):
        print(f"{tag}: {profile_human(p)}  ->  {algebra_name(p)}")
    print(f"isomorphic: {_yesno(verdict.isomorphic)}")
    print(f"stably isomorphic: {_yesno(verdict.stably_isomorphic)}")
    failed = ", ".join(verdict.failed_conditions) or "none"
    print(f"failed conditions: {failed}")
    return 0


def _compare_side(
    kind: str, value: Any, p: InvariantProfile, warns: list[str]
) -> dict[str, Any]:
    return {
        "input": _echo(kind, value),
        "warnings": warns,
        **_verdict_json(p),
    }


# ------------------------------------------------------------ enumerate


def _census_cap(args: argparse.Namespace) -> int:
    if args.limit is not None:
        return args.limit
    env = os.environ.get("RAAG_LIMIT")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"RAAG_LIMIT must be an integer, got {env!r}") from None
    return ENUMERATE_MAX


def build_census(n: int, limit: int = ENUMERATE_MAX) -> list[dict[str, Any]]:
    """Classification rows for all isomorphism classes on n vertices,
    sorted by canonical graph6 string."""
    rows = []
    for g in enumerate_graphs(n, limit=limit):
        p = invariant_profile(g)
        rows.append(
            {
                "graph6": to_graph6(g),
                "edges": g.edge_count,
                **_verdict_json(p),
                **_algebra_kind_json(p),
            }
        )
    return rows


def _census_doc(n: int, rows: list[dict[str, Any]]) -> dict[str, Any]:
    tally = {"Semiprojective": 0, "NotSemiprojective": 0, "Unknown": 0}
    for row in rows:
        tally[row["semiprojectivity"]["verdict"]] += 1
    freeze: Callable[[Any], Any] = lambda v: json.dumps(v, sort_keys=True)
    return {
        "document": "census",
        "n": n,
        "graph_count": len(rows),
        "classes": rows,
        "distinct_normal_forms": len({freeze(r["normal_form"]) for r in rows}),
        "distinct_stable_normal_forms": len(
            {freeze(r["stable_normal_form"]) for r in rows}
        ),
        "graph_algebra_count": sum(r["graph_algebra"]["value"] for r in rows),
        "semiprojectivity_tally": tally,
    }


def load_golden() -> dict[str, Any]:
    data = resources.files("raagcs").joinpath("data", GOLDEN_RESOURCE)
    return json.loads(data.read_text(encoding="utf-8"))


def golden_mismatches(doc: dict[str, Any], golden: dict[str, Any]) -> list[str]:
    """Field-by-field comparison of a census against the golden table."""
    problems = []
    if doc["n"] != golden["n"]:
        return [f"golden data covers n = {golden['n']}, not n = {doc['n']}"]
    actual = {row["graph6"]: row for row in doc["classes"]}
    expected = golden["classes"]
    for key in sorted(set(expected) - set(actual)):
        problems.append(f"missing class {key}")
    for key in sorted(set(actual) - set(expected)):
        problems.append(f"unexpected class {key}")
    for key in sorted(set(actual) & set(expected)):
        a, e = actual[key], expected[key]
        pairs = [
            ("profile", a["profile"], e["profile"]),
            ("algebra_name", a["algebra_name"], e["algebra_name"]),
            ("graph_algebra", a["graph_algebra"]["value"], e["graph_algebra"]),
            (
                "semiprojectivity",
                a["semiprojectivity"]["verdict"],
                e["semiprojectivity"],
            ),
        ]
        for field, got, want in pairs:
            if got != want:
                problems.append(f"{key}: {field} = {got!r}, golden has {want!r}")
    return problems


def cmd_enumerate(args: argparse.Namespace) -> int:
    rows = build_census(args.n, limit=_census_cap(args))
    doc = _census_doc(args.n, rows)
    failed = False
    if args.golden:
        problems = golden_mismatches(doc, load_golden())
        doc["golden"] = {"match": not problems, "mismatches": problems}
        failed = bool(problems)
    if args.json:
        print(_dumps(doc), end="")
        return 6 if failed else 0
    print(f"n = {args.n}: {doc['graph_count']} isomorphism classes")
    header = f"{'graph6':<10}{'edges':<7}{'profile':<30}{'algebra':<24}{'GA':<5}semiprojectivity"
    print(header)
    for row in rows:
        prof = profile_human(_profile_from_json(row["profile"]))
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
    print(
        "semiprojectivity: "
        f"{tally['Semiprojective']} Semiprojective, "
        f"{tally['NotSemiprojective']} NotSemiprojective, "
        f"{tally['Unknown']} Unknown"
    )
    if args.golden:
        for problem in doc["golden"]["mismatches"]:
            print(f"golden mismatch: {problem}")
        print(f"golden: {'match' if doc['golden']['match'] else 'MISMATCH'}")
    return 6 if failed else 0


def _profile_from_json(blob: dict[str, Any]) -> InvariantProfile:
    return InvariantProfile.make(
        t=blob["t"], o=blob["o"], N={k: c for k, c in blob["N"]}
    )


# -------------------------------------------------------------- realize


def _verification_json(report: Any) -> dict[str, Any]:
    return {
        "target": report.target,
        "passed": report.passed,
        "condition_k": report.condition_k,
        "strongly_connected_regular": report.strongly_connected_regular,
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail}
            for c in report.checks
        ],
    }


def cmd_realize(args: argparse.Namespace) -> int:
    kind, value, warns = _parse_input(
        _read_input(args.input), args.format, ("graph6", "edges", "profile")
    )
    p = _to_profile(kind, value)
    dg = realize(p)
    report = verify_realization(dg, p)
    doc = {
        "document": "realization",
        "input": _echo(kind, value),
        "warnings": warns,
        "profile": _profile_json(p),
        "algebra_name": algebra_name(p),
        "target": report.target,
        "dgraph": format_dgraph(dg),
        "verification": _verification_json(report),
    }
    if args.json:
        print(_dumps(doc), end="")
        return 0
    print(f"target: {doc['target']} (algebra {doc['algebra_name']})")
    print(doc["dgraph"], end="")
    for check in doc["verification"]["checks"]:
        mark = "ok " if check["ok"] else "FAIL"
        print(f"  [{mark}] {check['name']}: {check['detail']}")
    print(f"condition (K): {'holds' if doc['verification']['condition_k'] else 'fails'}")
    print(f"verification: {'passed' if doc['verification']['passed'] else 'FAILED'}")
    return 0


# -------------------------------------------------------------- ktheory


def cmd_ktheory(args: argparse.Namespace) -> int:
    _, dg, _ = _parse_input(_read_input(args.input), args.format, ("dgraph",))
    warns: list[str] = []
    extension = None
    if len(dg.sinks) == 1:
        try:
            six = sink_ideal_analysis(dg)
        except ValueError as exc:
            warns.append(f"sink extension not analyzed: {exc}")
        else:
            extension = {
                "sink": six.sink,
                "kappa": six.kappa,
                "unit_is_generator": six.unit_is_generator,
                "quotient_k0": _group_json(six.quotient.k0),
                "quotient_k1": _group_json(six.quotient.k1),
            }
    rep = graph_ktheory(dg) if extension is None else six.full
    doc = {
        "document": "ktheory",
        "dgraph": format_dgraph(dg),
        "n": dg.n,
        "regular_vertices": list(rep.regular_vertices),
        "sinks": list(dg.sinks),
        "infinite_emitters": sorted(dg.infinite_emitters),
        "k0": _group_json(rep.k0),
        "k1": _group_json(rep.k1),
        "unit_class": list(rep.unit_class),
        "unit_is_generator": rep.unit_is_generator,
        "vertex_classes": [list(c) for c in rep.vertex_class],
        "condition_k": condition_k(dg),
        "sink_extension": extension,
        "warnings": warns,
    }
    if args.json:
        print(_dumps(doc), end="")
        return 0
    print(
        f"directed graph: {dg.n} vertices, "
        f"regular {doc['regular_vertices']}, sinks {doc['sinks']}, "
        f"infinite emitters {doc['infinite_emitters']}"
    )
    for w in warns:
        print(f"warning: {w}")
    print(f"K0 = {doc['k0']['name']}, K1 = {doc['k1']['name']}")
    print(f"unit class: {doc['unit_class']} (generator: {_yesno(doc['unit_is_generator'])})")
    for v, cls in enumerate(doc["vertex_classes"]):
        print(f"  [{v}] -> {cls}")
    print(f"condition (K): {'holds' if doc['condition_k'] else 'fails'}")
    if extension is not None:
        print(
            f"sink {extension['sink']}: kappa = {extension['kappa']}, "
            f"quotient K0 = {extension['quotient_k0']['name']}, "
            f"quotient K1 = {extension['quotient_k1']['name']}"
        )
    return 0


# ---------------------------------------------------------------- euler


def cmd_euler(args: argparse.Namespace) -> int:
    _, g, warns = _parse_input(
        _read_input(args.input), args.format, ("graph6", "edges")
    )
    vec = clique_counts(g)
    doc = {
        "document": "euler",
        "input": _graph_echo(g),
        "warnings": warns,
        "clique_counts": list(vec.counts),
        "euler_characteristic": vec.euler(),
    }
    if args.json:
        print(_dumps(doc), end="")
        return 0
    for w in warns:
        print(f"warning: {w}")
    counts = ", ".join(
        f"c_{k} = {c}" for k, c in enumerate(vec.counts, start=1) if c
    )
    print(f"clique counts: {counts or 'none'}")
    print(f"euler characteristic: {vec.euler()}")
    return 0


# ------------------------------------------------------------ decompose


def cmd_decompose(args: argparse.Namespace) -> int:
    _, g, warns = _parse_input(
        _read_input(args.input), args.format, ("graph6", "edges")
    )
    classes = []
    components = []
    for vertices in complement_components(g):
        sub = induced_subgraph(g, vertices)
        cls = classify_component(sub)
        classes.append(cls)
        components.append(
            {
                "vertices": list(vertices),
                "graph6": to_graph6(sub),
                "class": component_name(cls),
                "chi": cls.chi if isinstance(cls, FiniteExt) else None,
            }
        )
    p = profile_of_classes(classes)
    doc = {
        "document": "decomposition",
        "input": _graph_echo(g),
        "warnings": warns,
        "components": components,
        "profile": _profile_json(p),
        "algebra_name": algebra_name(p),
    }
    if args.json:
        print(_dumps(doc), end="")
        return 0
    for w in warns:
        print(f"warning: {w}")
    print(f"co-irreducible components: {len(components)}")
    for i, comp in enumerate(components):
        chi = "" if comp["chi"] is None else f", chi = {comp['chi']}"
        print(
            f"  [{i}] vertices {comp['vertices']} -> {comp['class']}{chi}"
        )
    print(f"profile: {profile_human(p)}")
    print(f"algebra: {algebra_name(p)}")
    return 0


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

    def common(p: argparse.ArgumentParser, with_format: bool = True) -> None:
        mode = p.add_mutually_exclusive_group()
        mode.add_argument(
            "--json", action="store_true", help="emit a JSON document"
        )
        mode.add_argument(
            "--human",
            action="store_true",
            help="emit readable text (default)",
        )
        if with_format:
            p.add_argument(
                "--format",
                choices=("edges", "graph6", "profile", "dgraph"),
                help="force the input format instead of auto-detecting",
            )

    c = sub.add_parser("classify", help="full verdict for a graph or profile")
    c.add_argument("input", help="file, inline text, or - for stdin")
    common(c)
    c.set_defaults(func=cmd_classify)

    c = sub.add_parser("compare", help="decide isomorphism of two inputs")
    c.add_argument("left")
    c.add_argument("right")
    common(c)
    c.set_defaults(func=cmd_compare)

    c = sub.add_parser(
        "enumerate", help="classify all isomorphism classes on n vertices"
    )
    c.add_argument("n", type=int)
    c.add_argument(
        "--limit",
        type=int,
        help="raise or lower the vertex cap (default 8, env RAAG_LIMIT)",
    )
    c.add_argument(
        "--golden",
        action="store_true",
        help="check the result against the shipped five-vertex table",
    )
    common(c, with_format=False)
    c.set_defaults(func=cmd_enumerate)

    c = sub.add_parser(
        "realize", help="directed graph realizing a profile's algebra"
    )
    c.add_argument("input")
    common(c)
    c.set_defaults(func=cmd_realize)

    c = sub.add_parser("ktheory", help="K-theory of a directed graph")
    c.add_argument("input")
    common(c)
    c.set_defaults(func=cmd_ktheory)

    c = sub.add_parser("euler", help="clique counts and Euler characteristic")
    c.add_argument("input")
    common(c)
    c.set_defaults(func=cmd_euler)

    c = sub.add_parser("decompose", help="co-irreducible components")
    c.add_argument("input")
    common(c)
    c.set_defaults(func=cmd_decompose)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
