"""Free finitely generated graded chain complexes over F2[U].

Conventions, fixed package-wide:

* Gradings are absolute integers.  The differential lowers grading by
  exactly 1 and U has degree 0, so multiplication by any power of U
  preserves grading.
* Differential and chain-map entries are stored as ``d[(target, source)]``,
  the coefficient of ``target`` in the image of ``source``.  The text
  formats list the same data source-first (``d <source> <target> <poly>``).
  Past the trust boundary the engine reads them by generator position
  (k for ``generators[k]``): ``_at`` keys them (target position, source
  position) in entry order, ``_cols`` by source, and ``_by_grading``
  groups the positions by grading; names go only to outputs.  These
  views are built on first use and kept on the object, as is
  ``_reduced``, the records of ``normal_form.reduce_complex``'s pivot
  loop; none of them refers back to the object.
* Everything is characteristic 2: no signs in duals, tensor products or
  mapping cones.

Validation happens once, at the trust boundary.  ``build_complex``,
``build_chain_map`` and the text parsers check that every entry names a
known generator, that gradings are homogeneous and that d^2 = 0 or the
chain relation holds.  The constructions below (dual, tensor, cone, sum,
shift, relabel, the unit complex, and the identity, zero, scalar, tensor,
composite and sum maps), and the seeded generators of ``normal_form``
(``realize``, ``random_basis_change``, ``random_chain_map``), build from
objects that already passed those checks and are valid by construction,
so they skip them; every path still rejects duplicate generator names.
Objects are treated as immutable, so the views cached on them stay
valid.  Structural equality ignores names.

Derived generators are named deterministically: ``g*`` for the dual of
``g``, ``x.y`` for tensor pairs, ``g[1]`` for the shifted copy inside a
mapping cone, spelled here only (``_dual_id``, ``_pair_id``, ``_shift_id``).
Joined names can collide (``a`` with ``b.c*`` and ``a.b`` with ``c*`` both
give ``a.b.c*``), so the numeric verbs build no tensor or cone: they work
on generator positions, and the only derived complex they build is the
dual, whose ``g*`` names cannot collide.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import (Any, Container, Hashable, Iterable, Iterator, Mapping,
                    Sequence)

from .errors import (ComplexMismatch, DegreeMismatch, DifferentialNotSquareZero,
                     DuplicateGenerator, GradingViolation, NotAChainMap,
                     ParseError)
from .scalars import P0, P1, Poly

__all__ = [
    "GradedComplex", "ChainMap", "LaurentChain",
    "build_complex", "dual", "tensor", "cone", "direct_sum", "shift",
    "relabel", "compose", "identity_map", "zero_map", "scalar_map",
    "tensor_map", "map_add", "build_chain_map", "unit_complex",
    "parse_complex", "parse_chain_map", "complex_to_text", "map_to_text",
]

Entries = dict[tuple[str, str], Poly]

# Sparse entry dicts map (target, source), names or positions, to a
# nonzero coefficient.  The helpers below are generic in the coefficient:
# Poly and LocalScalar both add mod 2 and are falsy exactly when zero.


def _accumulate(pairs: Iterable[tuple[Hashable, Any]],
                out: dict | None = None) -> dict:
    """Sum (key, value) pairs mod 2 into ``out`` (a new dict by default),
    dropping the keys whose sum is zero."""
    if out is None:
        out = {}
    for key, v in pairs:
        acc = out.get(key)
        acc = v if acc is None else acc + v
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return out


def _columns(entries: Mapping[tuple[Hashable, Hashable], Any]) -> dict:
    """Column view of an entry dict: source -> [(target, value)], in entry
    order."""
    cols: dict = {}
    for (t, s), p in entries.items():
        cols.setdefault(s, []).append((t, p))
    return cols


def _mat_mul(a: Mapping[tuple[Hashable, Hashable], Poly],
             b: Mapping[tuple[Hashable, Hashable], Poly]) -> dict:
    """(a o b)[t, s] = sum_m a[t, m] * b[m, s] on sparse entry dicts."""
    cols = _columns(a)
    return _accumulate(((t, s), p * q) for (m, s), q in b.items()
                       for t, p in cols.get(m, ()))


def _named(entries: Iterable[tuple[tuple[int, int], Any]],
           names: Sequence[str]) -> Iterator[tuple[tuple[str, str], Any]]:
    """Position-keyed (key, value) pairs with the positions' names as keys."""
    return (((names[t], names[s]), p) for (t, s), p in entries)


def _apply(cols: Mapping[int, list], source: GradedComplex,
           target: GradedComplex, chain: LaurentChain) -> LaurentChain:
    """A differential or chain map, as its column view, applied to a chain."""
    index, names = source._index, target.generators
    acc: set[tuple[str, int]] = set()
    for g, e in chain.terms:
        for t, p in cols.get(index.get(g), ()):
            for k in p.exponents():
                acc ^= {(names[t], e + k)}
    return LaurentChain(acc)


class LaurentChain:
    """F2-chain in C tensor F2[U, U^-1]: a finite set of (generator, exponent)
    terms.  Addition is symmetric difference."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[str, int]] = ()):
        self.terms = frozenset(terms)

    @classmethod
    def of(cls, *terms: tuple[str, int]) -> "LaurentChain":
        return cls(terms)

    @classmethod
    def zero(cls) -> "LaurentChain":
        return cls()

    def __add__(self, other: "LaurentChain") -> "LaurentChain":
        return LaurentChain(self.terms ^ other.terms)

    __sub__ = __add__

    def times_u(self, k: int) -> "LaurentChain":
        return LaurentChain((g, e + k) for g, e in self.terms)

    def negative_part(self) -> "LaurentChain":
        return LaurentChain((g, e) for g, e in self.terms if e < 0)

    def nonnegative_part(self) -> "LaurentChain":
        return LaurentChain((g, e) for g, e in self.terms if e >= 0)

    def coefficient(self, gen: str, exp: int) -> int:
        return 1 if (gen, exp) in self.terms else 0

    def min_exponent(self) -> int | None:
        return min((e for _, e in self.terms), default=None)

    def sorted_terms(self) -> list[tuple[str, int]]:
        return sorted(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentChain) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "LaurentChain()"
        body = " + ".join(f"U^{e}*{g}" if e else g for g, e in self.sorted_terms())
        return f"LaurentChain({body})"


@dataclass(frozen=True, eq=False)
class GradedComplex:
    name: str
    generators: tuple[str, ...]
    gradings: dict[str, int]
    d: Entries = field(default_factory=dict)

    # structural equality: names are labels, not data
    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GradedComplex)
                and self.generators == other.generators
                and self.gradings == other.gradings
                and self.d == other.d)

    __hash__ = None  # type: ignore[assignment]

    @property
    def rank(self) -> int:
        return len(self.generators)

    def grading(self, gen: str) -> int:
        return self.gradings[gen]

    def index(self) -> dict[str, int]:
        return {g: i for i, g in enumerate(self.generators)}

    _index = cached_property(index)   # built once, for the engine

    def entry(self, target: str, source: str) -> Poly:
        return self.d.get((target, source), P0)

    @cached_property
    def _at(self) -> dict[tuple[int, int], Poly]:
        """``d`` by position, built once (no reference back to self)."""
        idx = self._index
        return {(idx[t], idx[s]): p for (t, s), p in self.d.items()}

    @cached_property
    def _cols(self) -> dict[int, list]:
        """Column view of ``_at``, built once."""
        return _columns(self._at)

    @cached_property
    def _by_grading(self) -> dict[int, list[int]]:
        """Grading -> ascending positions, keys in first-appearance order."""
        out: dict[int, list[int]] = {}
        for j, g in enumerate(self.generators):
            out.setdefault(self.gradings[g], []).append(j)
        return out

    def boundary_chain(self, chain: LaurentChain) -> LaurentChain:
        """Differential applied to a Laurent chain."""
        return _apply(self._cols, self, self, chain)

    def is_u_free(self) -> bool:
        return all(p.bits <= 1 for p in self.d.values())

    def __repr__(self) -> str:
        return f"GradedComplex({self.name!r}, rank={self.rank})"


def _complex(name: str, generators: Sequence[tuple[str, int]],
             entries: Iterable[tuple[tuple[str, str], Poly]]) -> GradedComplex:
    """Unchecked constructor for complexes valid by construction: rejects
    duplicate generator ids and sums ((target, source), poly) entries."""
    ids = tuple(g for g, _ in generators)
    seen = set()
    for g in ids:
        if g in seen:
            raise DuplicateGenerator(f"generator {g!r} declared twice")
        seen.add(g)
    gradings = {g: int(k) for g, k in generators}
    return GradedComplex(name, ids, gradings, _accumulate(entries))


def _checked_entries(entries: Iterable[tuple[str, str, Poly | str]],
                     sources: Container[str], targets: Container[str],
                     ) -> Iterator[tuple[tuple[str, str], Poly]]:
    """(source, target, polynomial) triples as ((target, source), Poly)
    entries, rejecting generators outside ``sources`` / ``targets``."""
    for s, t, p in entries:
        if s not in sources:
            raise GradingViolation(f"unknown source generator {s!r}")
        if t not in targets:
            raise GradingViolation(f"unknown target generator {t!r}")
        yield (t, s), Poly.parse(p) if isinstance(p, str) else p


def build_complex(name: str,
                  generators: Sequence[tuple[str, int]],
                  entries: Iterable[tuple[str, str, Poly | str]] = ()) -> GradedComplex:
    """Validated constructor.

    ``generators`` is an ordered list of (id, grading); ``entries`` lists
    differential coefficients as (source, target, polynomial) triples.
    """
    known = {g for g, _ in generators}
    cx = _complex(name, generators, _checked_entries(entries, known, known))
    _validate_complex(cx)
    return cx


def _validate_complex(cx: GradedComplex) -> None:
    for t, s in cx.d:
        if cx.gradings[t] != cx.gradings[s] - 1:
            raise GradingViolation(
                f"d[{t},{s}] nonzero but gr({t})={cx.gradings[t]} != "
                f"gr({s})-1={cx.gradings[s] - 1}")
    sq = _mat_mul(cx._at, cx._at)
    if sq:
        gens = cx.generators
        t, s, p = min((gens[t], gens[s], p) for (t, s), p in sq.items())
        raise DifferentialNotSquareZero(
            f"d^2[{t},{s}] = {p} on complex {cx.name!r}")


@dataclass(frozen=True, eq=False)
class ChainMap:
    name: str
    source: GradedComplex
    target: GradedComplex
    degree: int
    entries: Entries = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ChainMap)
                and self.source == other.source
                and self.target == other.target
                and self.degree == other.degree
                and self.entries == other.entries)

    __hash__ = None  # type: ignore[assignment]

    def entry(self, target: str, source: str) -> Poly:
        return self.entries.get((target, source), P0)

    @cached_property
    def _at(self) -> dict[tuple[int, int], Poly]:
        """``entries`` by position, built once."""
        tidx, sidx = self.target._index, self.source._index
        return {(tidx[t], sidx[s]): p for (t, s), p in self.entries.items()}

    @cached_property
    def _cols(self) -> dict[int, list]:
        """Column view of ``_at``, built once."""
        return _columns(self._at)

    def apply_chain(self, chain: LaurentChain) -> LaurentChain:
        return _apply(self._cols, self.source, self.target, chain)

    def __repr__(self) -> str:
        return f"ChainMap({self.name!r}, degree={self.degree})"


def _chain_map(name: str, source: GradedComplex, target: GradedComplex,
               degree: int,
               entries: Iterable[tuple[tuple[str, str], Poly]]) -> ChainMap:
    """Unchecked constructor for maps valid by construction: sums
    ((target, source), poly) entries."""
    return ChainMap(name, source, target, int(degree), _accumulate(entries))


def build_chain_map(name: str, source: GradedComplex, target: GradedComplex,
                    degree: int,
                    entries: Iterable[tuple[str, str, Poly | str]] = ()) -> ChainMap:
    """Validated constructor; entries are (source, target, polynomial)."""
    fm = _chain_map(name, source, target, degree,
                    _checked_entries(entries, source.gradings, target.gradings))
    _validate_chain_map(fm)
    return fm


def _validate_chain_map(fm: ChainMap) -> None:
    for (t, s), p in fm.entries.items():
        if fm.target.gradings[t] != fm.source.gradings[s] + fm.degree:
            raise GradingViolation(
                f"entry f[{t},{s}] shifts grading by "
                f"{fm.target.gradings[t] - fm.source.gradings[s]}, "
                f"declared degree {fm.degree}")
    # chain relation d_target o f = f o d_source (characteristic 2: no signs
    # even in odd degree)
    diff = _accumulate(itertools.chain(
        _mat_mul(fm.target._at, fm._at).items(),
        _mat_mul(fm._at, fm.source._at).items()))
    if diff:
        tgens, sgens = fm.target.generators, fm.source.generators
        t, s, p = min((tgens[t], sgens[s], p) for (t, s), p in diff.items())
        raise NotAChainMap(f"(d f + f d)[{t},{s}] = {p} for map {fm.name!r}")


# ---------------------------------------------------------------------------
# constructions


def _dual_id(g: str) -> str:
    return g + "*"


def _pair_id(x: str, y: str) -> str:
    return f"{x}.{y}"


def _shift_id(g: str) -> str:
    return g + "[1]"


def dual(cx: GradedComplex) -> GradedComplex:
    """F2[U]-linear dual: generator g* in grading -gr(g), transposed d."""
    gens = [(_dual_id(g), -cx.gradings[g]) for g in cx.generators]
    return _complex(f"dual({cx.name})", gens,
                    (((_dual_id(s), _dual_id(t)), p)
                     for (t, s), p in cx.d.items()))


def tensor(a: GradedComplex, b: GradedComplex) -> GradedComplex:
    """Tensor product over F2[U]; generator x.y in grading gr(x)+gr(y)."""
    ids = {(x, y): _pair_id(x, y) for x in a.generators for y in b.generators}
    gens = [(s, a.gradings[x] + b.gradings[y]) for (x, y), s in ids.items()]
    entries = [((ids[t, y], ids[s, y]), p)
               for (t, s), p in a.d.items() for y in b.generators]
    entries += [((ids[x, t], ids[x, s]), p)
                for x in a.generators for (t, s), p in b.d.items()]
    return _complex(f"{a.name}(x){b.name}", gens, entries)


def tensor_map(f: ChainMap, g: ChainMap) -> ChainMap:
    """f tensor g on the tensor complexes (characteristic 2: no Koszul signs)."""
    src = tensor(f.source, g.source)
    tgt = tensor(f.target, g.target)
    entries = [((_pair_id(tx, ty), _pair_id(sx, sy)), p * q)
               for (tx, sx), p in f.entries.items()
               for (ty, sy), q in g.entries.items()]
    return _chain_map(f"{f.name}(x){g.name}", src, tgt,
                      f.degree + g.degree, entries)


def cone(f: ChainMap) -> GradedComplex:
    """Mapping cone: shifted source generators g[1] followed by target
    generators; differential (d_src, 0 / f, d_tgt)."""
    if f.degree != 0:
        raise DegreeMismatch(f"cone needs a degree-0 map, got {f.degree}")
    src, tgt = f.source, f.target
    gens = [(_shift_id(g), src.gradings[g] + 1) for g in src.generators]
    gens += [(g, tgt.gradings[g]) for g in tgt.generators]
    entries = [((_shift_id(t), _shift_id(s)), p) for (t, s), p in src.d.items()]
    entries += tgt.d.items()
    entries += [((t, _shift_id(s)), p) for (t, s), p in f.entries.items()]
    return _complex(f"cone({f.name})", gens, entries)


def direct_sum(a: GradedComplex, b: GradedComplex) -> GradedComplex:
    gens = [(g, a.gradings[g]) for g in a.generators]
    gens += [(g, b.gradings[g]) for g in b.generators]
    return _complex(f"{a.name}(+){b.name}", gens,
                    itertools.chain(a.d.items(), b.d.items()))


def shift(cx: GradedComplex, k: int) -> GradedComplex:
    return _complex(f"{cx.name}[{k}]",
                    [(g, cx.gradings[g] + k) for g in cx.generators],
                    cx.d.items())


def relabel(cx: GradedComplex, mapping: Mapping[str, str],
            name: str | None = None) -> GradedComplex:
    """Rename generators by a bijective mapping (ids absent from the
    mapping keep their names)."""
    ren = {g: mapping.get(g, g) for g in cx.generators}
    gens = [(ren[g], cx.gradings[g]) for g in cx.generators]
    return _complex(name or cx.name, gens,
                    (((ren[t], ren[s]), p) for (t, s), p in cx.d.items()))


def unit_complex(name: str = "unit") -> GradedComplex:
    """One generator ``1`` in grading 0, zero differential."""
    return _complex(name, [("1", 0)], ())


# ---------------------------------------------------------------------------
# chain-map algebra


def identity_map(cx: GradedComplex) -> ChainMap:
    return _chain_map(f"id({cx.name})", cx, cx, 0,
                      [((g, g), P1) for g in cx.generators])


def zero_map(source: GradedComplex, target: GradedComplex | None = None,
             degree: int = 0) -> ChainMap:
    return _chain_map("0", source, target or source, degree, ())


def scalar_map(cx: GradedComplex, p: Poly) -> ChainMap:
    """Multiplication by the polynomial p, as a degree-0 chain map."""
    return _chain_map(f"({p})id", cx, cx, 0,
                      [((g, g), p) for g in cx.generators])


def compose(f: ChainMap, g: ChainMap) -> ChainMap:
    """f after g; requires structural equality g.target = f.source."""
    if g.target != f.source:
        raise ComplexMismatch(
            f"cannot compose {f.name!r} after {g.name!r}: middle complexes differ")
    return ChainMap(f"{f.name}o{g.name}", g.source, f.target,
                    f.degree + g.degree, _mat_mul(f.entries, g.entries))


def map_add(f: ChainMap, g: ChainMap) -> ChainMap:
    if f.source != g.source or f.target != g.target:
        raise ComplexMismatch("map sum needs equal sources and targets")
    if f.degree != g.degree:
        raise DegreeMismatch(f"map sum needs equal degrees, got {f.degree} and {g.degree}")
    return _chain_map(f"{f.name}+{g.name}", f.source, f.target, f.degree,
                      itertools.chain(f.entries.items(), g.entries.items()))


# ---------------------------------------------------------------------------
# text formats
#
# complex file:                      map file:
#     # comment                          map <name>
#     complex <name>                     source <complex-name>
#     gen <id> <grading>                 target <complex-name>
#     d <source> <target> <poly>         degree <int>
#                                        f <source> <target> <poly>


def _integer(token: str, what: str, line: int) -> int:
    """A ``-?[0-9]+`` token as an int; ``int`` also takes ``+1`` or ``1_0``."""
    if not re.fullmatch(r"-?[0-9]+", token):
        raise ParseError(f"{what} must be an integer", line=line, token=token)
    return int(token)


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _header(text: str, kind: str) -> tuple[str, list[tuple[int, str]]]:
    """The name on the ``<kind> <name>`` line, and the content lines after."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError(f"empty {kind} file")
    ln, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != kind:
        raise ParseError(f"expected '{kind} <name>'", line=ln, token=head)
    return parts[1], lines[1:]


def _entry(parts: list[str], ln: int, line: str) -> tuple[str, str, Poly]:
    """A ``<d|f> <source> <target> <poly>`` line as its triple."""
    if len(parts) < 4:
        raise ParseError(f"expected '{parts[0]} <source> <target> <poly>'",
                         line=ln, token=line)
    return parts[1], parts[2], Poly.parse("".join(parts[3:]), line=ln)


def parse_complex(text: str) -> GradedComplex:
    name, lines = _header(text, "complex")
    gens: list[tuple[str, int]] = []
    entries: list[tuple[str, str, Poly]] = []
    for ln, line in lines:
        parts = line.split()
        if parts[0] == "gen":
            if len(parts) != 3:
                raise ParseError("expected 'gen <id> <grading>'", line=ln, token=line)
            gens.append((parts[1], _integer(parts[2], "grading", ln)))
        elif parts[0] == "d":
            entries.append(_entry(parts, ln, line))
        else:
            raise ParseError("unknown directive", line=ln, token=parts[0])
    return build_complex(name, gens, entries)


def parse_chain_map(text: str, source: GradedComplex,
                    target: GradedComplex) -> ChainMap:
    """Parse a map file against already-loaded source and target complexes.

    The declared source/target names must match the supplied complexes;
    binding is by argument, the names are a consistency check only.
    """
    name, lines = _header(text, "map")
    declared: dict[str, str] = {}
    degree: int | None = None
    entries: list[tuple[str, str, Poly]] = []
    for ln, line in lines:
        parts = line.split()
        if parts[0] in ("source", "target"):
            if len(parts) != 2:
                raise ParseError(f"expected '{parts[0]} <name>'", line=ln, token=line)
            declared[parts[0]] = parts[1]
        elif parts[0] == "degree":
            if len(parts) != 2:
                raise ParseError("expected 'degree <int>'", line=ln, token=line)
            degree = _integer(parts[1], "degree", ln)
        elif parts[0] == "f":
            entries.append(_entry(parts, ln, line))
        else:
            raise ParseError("unknown directive", line=ln, token=parts[0])
    if degree is None:
        raise ParseError("map file missing 'degree'")
    for role, bound in (("source", source), ("target", target)):
        if declared.get(role, bound.name) != bound.name:
            raise ComplexMismatch(f"map declares {role} {declared[role]!r} "
                                  f"but was bound to complex {bound.name!r}")
    return build_chain_map(name, source, target, degree, entries)


def complex_to_text(cx: GradedComplex) -> str:
    gens = cx.generators
    lines = [f"complex {cx.name}"]
    lines += [f"gen {g} {cx.gradings[g]}" for g in gens]
    lines += [f"d {gens[s]} {gens[t]} {p}"
              for s, t, p in sorted((s, t, p) for (t, s), p in cx._at.items())]
    return "\n".join(lines) + "\n"


def map_to_text(fm: ChainMap) -> str:
    sgens, tgens = fm.source.generators, fm.target.generators
    lines = [f"map {fm.name}",
             f"source {fm.source.name}",
             f"target {fm.target.name}",
             f"degree {fm.degree}"]
    lines += [f"f {sgens[s]} {tgens[t]} {p}"
              for s, t, p in sorted((s, t, p) for (t, s), p in fm._at.items())]
    return "\n".join(lines) + "\n"
