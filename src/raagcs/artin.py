"""Classification of semigroup C*-algebras of right-angled Artin monoids.

A graph splits into co-irreducible components: the induced subgraphs on
the connected components of its complement.  The graph is the join of
these pieces and its algebra is the tensor product of the component
algebras, where

* a single vertex contributes the Toeplitz algebra T,
* a finite component with at least two vertices contributes the extension
  algebra determined by its flag-complex Euler characteristic chi, written
  E_{1+|chi|} with sign chi (E_1^0 when chi = 0),
* an infinite component contributes the Cuntz algebra O_inf (these arise
  from abstract profiles only, never from concrete finite graphs).

The profile (t, o, N) counts the factors of each kind with extended
naturals.  The normal form computed from a profile is a complete
invariant: two profiles describe isomorphic algebras exactly when their
normal forms are equal, and stably isomorphic algebras exactly when their
stable normal forms are equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import total_ordering
from typing import Iterable, Mapping, NamedTuple

from .euler import euler_characteristic
from .graphs import (
    PROFILE_DIGITS_MAX,  # the cap parse_profile_spec applies, importable from here
    LimitExceeded,
    ParseError,
    UndirectedGraph,
    complement_components,
    induced_subgraph,
    parse_decimal,
    significant_lines,
)

DECOMPOSE_ORACLE_MAX = 15

OMIN_IRRELEVANT = "irrelevant"
PARITY_UNDEFINED = "undefined"

SEMIPROJECTIVE = "Semiprojective"
NOT_SEMIPROJECTIVE = "NotSemiprojective"
UNKNOWN = "Unknown"


@total_ordering
@dataclass(frozen=True)
class ExtNat:
    """A count that is a nonnegative integer or countably infinite.

    The infinite value is ExtNat(None), exported as OMEGA.  It absorbs
    addition and compares above every finite value.  Instances compare
    equal to plain ints and to the string "inf", and hash as them, so
    ExtNat(2) == 2 and OMEGA == "inf".  None is no count: ``of`` refuses
    it with TypeError, as it does any value but an ExtNat, an int or "inf",
    so OMEGA != None, and ordering or adding with None raises TypeError.
    """

    value: int | None = 0

    def __post_init__(self) -> None:
        if self.value is None:
            return
        if isinstance(self.value, bool) or not isinstance(self.value, int):
            raise TypeError(f"not an extended natural: {self.value!r}")
        if self.value < 0:
            raise ValueError("counts are nonnegative")

    @classmethod
    def of(cls, x: "ExtNat | int | str") -> "ExtNat":
        if isinstance(x, ExtNat):
            return x
        if x == "inf":
            return OMEGA
        if isinstance(x, int) and not isinstance(x, bool):
            return cls(x)
        raise TypeError(f"cannot interpret {x!r} as an extended natural")

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __add__(self, other: "ExtNat | int") -> "ExtNat":
        other = ExtNat.of(other)
        if self.value is None or other.value is None:
            return OMEGA
        return ExtNat(self.value + other.value)

    __radd__ = __add__

    def __eq__(self, other: object) -> bool:
        try:
            other = ExtNat.of(other)  # type: ignore[arg-type]
        except TypeError:
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash("inf" if self.value is None else self.value)

    def __lt__(self, other: "ExtNat | int") -> bool:
        other = ExtNat.of(other)
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def capped_at_one(self) -> int:
        return 0 if self.value == 0 else 1

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)


OMEGA = ExtNat(None)


@dataclass(frozen=True)
class AbGroup:
    """Finitely generated abelian group in invariant-factor form.

    free_rank copies of the integers plus one cyclic summand per torsion
    entry; the entries are >= 2 and each divides the next.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank is nonnegative")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} breaks the divisor chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion entries must be at least 2")

    @classmethod
    def cyclic(cls, m: int) -> "AbGroup":
        """The integers mod m, with mod 0 meaning the integers."""
        m = abs(m)
        if m == 0:
            return cls(1)
        if m == 1:
            return cls(0)
        return cls(0, (m,))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


Z_GROUP = AbGroup(1)
TRIVIAL_GROUP = AbGroup(0)


@dataclass(frozen=True)
class Toeplitz:
    """Class of a singleton component: the algebra of a single isometry."""


@dataclass(frozen=True)
class FiniteExt:
    """Class of a finite component with >= 2 vertices, keyed by its
    flag-complex Euler characteristic."""

    chi: int


@dataclass(frozen=True)
class InfiniteComp:
    """Class of a component with infinitely many vertices."""


ComponentClass = Toeplitz | FiniteExt | InfiniteComp


def component_name(c: ComponentClass) -> str:
    if isinstance(c, Toeplitz):
        return "T"
    if isinstance(c, InfiniteComp):
        return "O_inf"
    if c.chi == 0:
        return "E_1^0"
    sign = "+1" if c.chi > 0 else "-1"
    return f"E_{1 + abs(c.chi)}^{sign}"


@dataclass(frozen=True)
class InvariantProfile:
    """Counts of co-irreducible component classes.

    t counts singleton components, o infinite components, and N maps each
    integer n to the number of finite components with >= 2 vertices whose
    Euler characteristic is n.  Counts are extended naturals; zero entries
    are dropped and keys kept sorted, so equal profiles compare equal.
    """

    t: ExtNat = ExtNat(0)
    o: ExtNat = ExtNat(0)
    N: tuple[tuple[int, ExtNat], ...] = ()

    def __post_init__(self) -> None:
        keys = [k for k, _ in self.N]
        if bad := [k for k in keys if type(k) is not int]:
            raise TypeError(f"N key {bad[0]!r} is not an int")
        if keys != sorted(set(keys)):
            raise ValueError("N keys must be strictly increasing")
        if any(c.value == 0 for _, c in self.N):
            raise ValueError("zero counts must be dropped from N")

    @classmethod
    def make(
        cls,
        t: ExtNat | int | str = 0,
        o: ExtNat | int | str = 0,
        N: Mapping[int, ExtNat | int | str] | None = None,
    ) -> "InvariantProfile":
        items = []
        for k, v in sorted((N or {}).items()):
            count = ExtNat.of(v)
            if count.value != 0:
                items.append((k, count))
        return cls(ExtNat.of(t), ExtNat.of(o), tuple(items))

    def N_at(self, k: int) -> ExtNat:
        for key, count in self.N:
            if key == k:
                return count
        return ExtNat(0)

    @property
    def total_N(self) -> ExtNat:
        return sum((c for _, c in self.N), ExtNat(0))

    @property
    def component_count(self) -> ExtNat:
        return self.t + self.o + self.total_N

    @property
    def is_empty(self) -> bool:
        return self.component_count == 0


def decompose(g: UndirectedGraph) -> list[UndirectedGraph]:
    """Split a graph into its co-irreducible components.

    These are the induced subgraphs on the connected components of the
    complement, ordered by least original vertex.  The input is the join
    of the returned pieces: every cross pair between two distinct pieces
    is an edge.
    """
    return [induced_subgraph(g, comp) for comp in complement_components(g)]


def decompose_oracle(g: UndirectedGraph) -> bool:
    """Brute-force co-reducibility test.

    True when some split of the vertices into two nonempty parts has every
    cross pair present as an edge; exhaustive over all 2^(n-1) splits.
    """
    if g.n > DECOMPOSE_ORACLE_MAX:
        raise LimitExceeded(
            f"decompose_oracle is capped at n <= {DECOMPOSE_ORACLE_MAX}, got {g.n}"
        )
    if g.n < 2:
        return False
    adj = g.adjacency
    full = (1 << g.n) - 1
    for part in range(1, 1 << (g.n - 1)):
        rest = full ^ part
        mask = part
        ok = True
        while mask:
            low = mask & -mask
            mask ^= low
            if adj[low.bit_length() - 1] & rest != rest:
                ok = False
                break
        if ok:
            return True
    return False


def classify_component(comp: UndirectedGraph) -> ComponentClass:
    """Classify one co-irreducible component (concrete graphs are finite)."""
    if comp.n == 0:
        raise ValueError("a component cannot be empty")
    if comp.n == 1:
        return Toeplitz()
    return FiniteExt(euler_characteristic(comp))


def profile_of_classes(classes: Iterable[ComponentClass]) -> InvariantProfile:
    """Count the classes of a graph's co-irreducible components."""
    t = o = 0
    N: dict[int, int] = {}
    for cls in classes:
        if isinstance(cls, Toeplitz):
            t += 1
        elif isinstance(cls, FiniteExt):
            N[cls.chi] = N.get(cls.chi, 0) + 1
        else:
            o += 1
    return InvariantProfile.make(t=t, o=o, N=N)


def invariant_profile(g: UndirectedGraph) -> InvariantProfile:
    return profile_of_classes(classify_component(comp) for comp in decompose(g))


_PROFILE_KEY = re.compile(r"^(?:t|o|N\[(-?)([0-9]+)\])$")


def parse_profile_spec(text: str) -> InvariantProfile:
    """Parse ``t=<count>;o=<count>;N[<k>]=<count>`` profile syntax.

    Tokens are separated by ``;`` or line breaks; ``#`` starts a comment.
    Counts (or ``inf``) and the k of ``N[k]`` after its optional ``-`` are
    read by ``parse_decimal``; keys may appear at most once and in any
    order; omitted keys are zero.
    """
    counts: dict[str | int, ExtNat] = {}  # "t", "o" or the k of N[k]
    for token in ";".join(significant_lines(text)[1]).split(";"):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ParseError(f"malformed profile token {token!r}")
        key, _, value = token.partition("=")
        key = key.strip()
        value = value.strip()
        m = _PROFILE_KEY.match(key)
        if not m:
            raise ParseError(f"unknown profile key {key!r}")
        count = OMEGA if value == "inf" else ExtNat(parse_decimal(value, "count"))
        slot: str | int = key
        if m.group(2) is not None:
            slot = parse_decimal(m.group(2), "key N[k]")
            slot = -slot if m.group(1) else slot
            key = f"N[{slot}]"
        if slot in counts:
            raise ParseError(f"duplicate key {key}")
        counts[slot] = count
    return InvariantProfile.make(t=counts.pop("t", 0), o=counts.pop("o", 0), N=counts)


def profile_spec_string(p: InvariantProfile) -> str:
    """Canonical profile-spec rendering; inverse of parse_profile_spec."""
    parts = []
    if p.t != 0:
        parts.append(f"t={p.t}")
    if p.o != 0:
        parts.append(f"o={p.o}")
    parts.extend(f"N[{k}]={c}" for k, c in p.N)
    return ";".join(parts)


def _render_power(name: str, count: ExtNat) -> str:
    if count == 1:
        return name
    if count == 2:
        return f"{name} ⊗ {name}"
    return f"{name}^{{⊗{count}}}"


@dataclass(frozen=True)
class AlgebraNormalForm:
    """Canonical tuple whose equality decides isomorphism.

    t and z = N[0] are copied from the profile; M folds signs away,
    M[n] = N[-n] + N[n] for n >= 1.  omin is min(o, 1) while the total
    count z + sum(M) stays finite and "irrelevant" once it is infinite.
    parity is the mod-2 sum of the negative-index counts, defined only
    when the total is finite with o = 0 and z = 0.  The stable normal
    form ``stable()`` forces parity to "undefined"; its equality decides
    stable isomorphism.  ``str()`` of a normal form is the algebra's name.
    """

    t: ExtNat
    z: ExtNat
    M: tuple[tuple[int, ExtNat], ...]
    omin: int | str
    parity: int | str

    def stable(self) -> "AlgebraNormalForm":
        return replace(self, parity=PARITY_UNDEFINED)

    def factors(self) -> list[tuple[ComponentClass, ExtNat]]:
        """The algebra's tensor factors as (class, count), in the order
        T, O_inf, E_1^0, then E_{1+n} ascending in n.  A single O_inf
        appears exactly when omin = 1, that is o >= 1 with a finite total;
        every E_{1+n} has sign +1 except that an odd parity puts -1 on the
        single lowest E factor.  The empty profile has none."""
        groups: list[tuple[ComponentClass, ExtNat]] = []
        if self.t != 0:
            groups.append((Toeplitz(), self.t))
        if self.omin == 1:
            groups.append((InfiniteComp(), ExtNat(1)))
        if self.z != 0:
            groups.append((FiniteExt(0), self.z))
        flip = self.parity == 1
        for n, count in self.M:
            if flip:
                groups.append((FiniteExt(-n), ExtNat(1)))
                flip = False
                count = ExtNat(count.value - 1)  # parity defined, so finite
                if count == 0:
                    continue
            groups.append((FiniteExt(n), count))
        return groups

    def __str__(self) -> str:
        """Canonical tensor expression of ``factors()``; "C" for none."""
        return " ⊗ ".join(_render_power(component_name(c), n) for c, n in self.factors()) or "C"


def normal_form(p: InvariantProfile) -> AlgebraNormalForm:
    z = p.N_at(0)
    folded: dict[int, ExtNat] = {}
    for k, c in p.N:
        if k != 0:
            n = abs(k)
            folded[n] = folded[n] + c if n in folded else c
    M = tuple(sorted(folded.items()))
    total = sum((c for _, c in M), z)
    omin: int | str = p.o.capped_at_one() if total.is_finite else OMIN_IRRELEVANT
    parity: int | str
    if total.is_finite and p.o == 0 and z == 0:
        parity = sum(c.value for k, c in p.N if k < 0) % 2  # type: ignore[union-attr]
    else:
        parity = PARITY_UNDEFINED
    return AlgebraNormalForm(t=p.t, z=z, M=M, omin=omin, parity=parity)


def stable_normal_form(p: InvariantProfile) -> AlgebraNormalForm:
    return normal_form(p).stable()


def algebra_name(p: InvariantProfile) -> str:
    """Canonical tensor expression for the algebra of a profile."""
    return str(normal_form(p))


@dataclass(frozen=True)
class ComparisonVerdict:
    isomorphic: bool
    stably_isomorphic: bool
    failed_conditions: tuple[str, ...]


def compare(p1: InvariantProfile, p2: InvariantProfile) -> ComparisonVerdict:
    """Decide isomorphism and stable isomorphism of two profiles.

    Four conditions are checked directly: (i) equal singleton counts,
    (ii) equal folded counts N[-n] + N[n] for every n, (iii) totals both
    infinite or min(o, 1) equal, (iv) equal mod-2 negative-index sums
    whenever both sides have that parity defined.  Conditions (i)-(iii)
    give stable isomorphism, all four give isomorphism.  Every failed
    condition is reported, and the verdict is cross-checked against
    normal-form equality; the two routes agreeing is an internal
    invariant.
    """
    failed = []
    if p1.t != p2.t:
        failed.append("i")
    # One dict per side: N_at scans, so calling it per key is quadratic.
    n1, n2, zero = dict(p1.N), dict(p2.N), ExtNat(0)
    ns = {abs(k) for k in n1.keys() | n2.keys()}
    if any(n1.get(-n, zero) + n1.get(n, zero) != n2.get(-n, zero) + n2.get(n, zero) for n in ns):
        failed.append("ii")
    tot1, tot2 = p1.total_N, p2.total_N
    both_infinite = not tot1.is_finite and not tot2.is_finite
    if not (both_infinite or p1.o.capped_at_one() == p2.o.capped_at_one()):
        failed.append("iii")

    def parity_defined(p: InvariantProfile, tot: ExtNat) -> bool:
        return tot.is_finite and p.o == 0 and p.N_at(0) == 0

    def parity(p: InvariantProfile) -> int:
        return sum(c.value for k, c in p.N if k < 0) % 2  # type: ignore[union-attr]

    if (
        parity_defined(p1, tot1)
        and parity_defined(p2, tot2)
        and parity(p1) != parity(p2)
    ):
        failed.append("iv")

    iso_conditions = not failed
    stable_conditions = not any(c in failed for c in ("i", "ii", "iii"))
    nf1, nf2 = normal_form(p1), normal_form(p2)
    iso_normal = nf1 == nf2
    stable_normal = nf1.stable() == nf2.stable()
    if (iso_conditions, stable_conditions) != (iso_normal, stable_normal):
        raise RuntimeError(
            "internal error: condition route and normal-form route disagree "
            f"on {p1} vs {p2}"
        )
    return ComparisonVerdict(
        isomorphic=iso_normal,
        stably_isomorphic=stable_normal,
        failed_conditions=tuple(failed),
    )


@dataclass(frozen=True)
class PrimSpaceSummary:
    """Shape of the primitive ideal space, one kind per component.

    A singleton component contributes a point plus a circle, a finite
    component with >= 2 vertices a two-point space (one closed point, one
    dense point), an infinite component a single point.  The whole space
    is the product over components.
    """

    toeplitz_components: ExtNat
    two_point_components: ExtNat
    one_point_components: ExtNat
    is_product: bool


def prim_space(p: InvariantProfile) -> PrimSpaceSummary:
    return PrimSpaceSummary(
        toeplitz_components=p.t,
        two_point_components=p.total_N,
        one_point_components=p.o,
        is_product=p.component_count > 1,
    )


@dataclass(frozen=True)
class KTheorySixTerm:
    """K-theory of one component algebra and of its compact-ideal extension.

    The full algebra always has K0 the integers generated by the unit and
    K1 zero.  For Toeplitz and finite components the ideal is the compact
    operators (K0 generated by a minimal projection) and the index map
    sends its generator to chi times the unit; quotient groups follow.
    Infinite components are simple, so there is no extension row.
    """

    component: str
    label: str
    k0_full: AbGroup
    unit_is_generator: bool
    k1_full: AbGroup
    index_value: int | None
    k0_ideal: AbGroup | None
    k0_quotient: AbGroup | None
    k1_quotient: AbGroup | None


def component_ktheory(c: ComponentClass) -> KTheorySixTerm:
    """The one statement of a component's K-theory; a singleton is the
    chi = 0 extension under its own label."""
    if isinstance(c, InfiniteComp):
        label, chi = "simple, no extension row", None
    elif isinstance(c, Toeplitz):
        label, chi = "standard Toeplitz extension", 0
    else:
        label, chi = "extension of a Kirchberg algebra by the compacts", c.chi
    extension = chi is not None
    return KTheorySixTerm(
        component=component_name(c),
        label=label,
        k0_full=Z_GROUP,
        unit_is_generator=True,
        k1_full=TRIVIAL_GROUP,
        index_value=chi,
        k0_ideal=Z_GROUP if extension else None,
        k0_quotient=AbGroup.cyclic(chi) if extension else None,
        k1_quotient=(Z_GROUP if chi == 0 else TRIVIAL_GROUP) if extension else None,
    )


class GraphAlgebraVerdict(NamedTuple):
    value: bool
    clause: int | None


def is_graph_algebra(p: InvariantProfile) -> GraphAlgebraVerdict:
    """Whether the profile's algebra is a directed-graph C*-algebra.

    Clause 1: exactly one singleton component and nothing else.  Clause 2:
    no singleton components, finitely many factors of Euler characteristic
    +1 or -1, and at most one other finite factor.
    """
    if p.t == 1 and p.o == 0 and not p.N:
        return GraphAlgebraVerdict(True, 1)
    ones = p.N_at(-1) + p.N_at(1)
    others = sum((c for k, c in p.N if abs(k) != 1), ExtNat(0))
    if p.t == 0 and ones.is_finite and others <= 1:
        return GraphAlgebraVerdict(True, 2)
    return GraphAlgebraVerdict(False, None)


class SemiprojectivityVerdict(NamedTuple):
    verdict: str
    clause: int | None


def semiprojectivity(p: InvariantProfile) -> SemiprojectivityVerdict:
    """Semiprojectivity of the profile's algebra, where decided.

    A graph algebra under clause c of ``is_graph_algebra`` is
    semiprojective under clause c + 1.  Otherwise more than one singleton
    component is never semiprojective (clause 1), exactly one singleton
    component with anything beside it is not semiprojective (clause 2),
    and with no singleton component the profile is genuinely undecided
    here and reported Unknown rather than guessed.
    """
    graph_algebra = is_graph_algebra(p)
    if graph_algebra.value:
        return SemiprojectivityVerdict(SEMIPROJECTIVE, graph_algebra.clause + 1)
    if p.t > 1:
        return SemiprojectivityVerdict(NOT_SEMIPROJECTIVE, 1)
    if p.t == 1:
        return SemiprojectivityVerdict(NOT_SEMIPROJECTIVE, 2)
    return SemiprojectivityVerdict(UNKNOWN, None)


def profile_components(p: InvariantProfile) -> list[tuple[ComponentClass, ExtNat]]:
    """Component classes present in a profile with their multiplicities,
    in the canonical order: Toeplitz, finite classes by chi, infinite."""
    out: list[tuple[ComponentClass, ExtNat]] = []
    if p.t != 0:
        out.append((Toeplitz(), p.t))
    for chi, count in p.N:
        out.append((FiniteExt(chi), count))
    if p.o != 0:
        out.append((InfiniteComp(), p.o))
    return out
