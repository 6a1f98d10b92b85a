"""Text formats: monomials, ideal files, digraph files, cone files.

Monomials read and print as ``x1^2*x3`` (exponent 1 elided, ``*`` between
factors, ``1`` for the unit monomial).  Ideal files hold one generator per
line; ``#`` starts a comment and blank lines are skipped.  A ``# vars: ...``
comment pins the context; otherwise the context is inferred from the
variables that occur (names ``x<k>`` fill in the gaps up to the largest k).

Digraph files come in two shapes: a JSON document with ``vertices`` (id and
an optional JSON-integer weight) plus ``arcs``, or an edge-list shorthand of
``i -> j`` lines with an optional ``weights: i=2 j=1`` header.  Cone files are
integer matrices, one vector per row, under ``# rays`` / ``# inequalities``
section headers; when both sections are present they must describe the same
cone.

Parsing then rendering is a fixed point on canonical files.
"""

from __future__ import annotations

import json
import re

from .cones import HilbertBasis, RationalCone, cones_equal
from .core import Monomial, MonomialIdeal, PolyContext
from .digraphs import WeightedDigraph
from .errors import ParseError

_FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*?)(?:\^(\d+))?$")
_XNUM_RE = re.compile(r"^x([1-9]\d*)$")


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"file is not UTF-8 text: {exc}") from None


# ---------------------------------------------------------------------------
# monomials

def exponents_to_text(names, exponents) -> str:
    """Render the exponent vector of a monomial over the given variable names."""
    parts = []
    for name, e in zip(names, exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def monomial_to_text(m: Monomial) -> str:
    return exponents_to_text(m.context.names, m.exponents)


def parse_monomial(context: PolyContext, text: str, line=None) -> Monomial:
    text = text.strip()
    if text == "1":
        return context.one()
    exps = [0] * context.n
    for factor in text.split("*"):
        m = _FACTOR_RE.match(factor.strip())
        if not m:
            raise ParseError(f"bad monomial factor {factor.strip()!r}", line)
        name, exp = m.group(1), int(m.group(2) or 1)
        try:
            exps[context.index(name)] += exp
        except KeyError:
            raise ParseError(f"unknown variable {name!r}", line) from None
    return Monomial(context, tuple(exps))


# ---------------------------------------------------------------------------
# ideal files

def _strip_comment(line):
    return line.split("#", 1)[0].strip()


def _infer_context(tokens):
    """Context from the variable names in use; x<k> names fill gaps."""
    names = []
    for t in tokens:
        for factor in t.split("*"):
            m = _FACTOR_RE.match(factor.strip())
            if m and factor.strip() != "1" and m.group(1) not in names:
                names.append(m.group(1))
    if not names:
        raise ParseError("cannot infer a variable context from an empty ideal")
    if all(_XNUM_RE.match(nm) for nm in names):
        top = max(int(_XNUM_RE.match(nm).group(1)) for nm in names)
        return PolyContext.default(top)
    return PolyContext(tuple(names))


def parse_ideal_source(text: str, context: PolyContext | None = None) -> MonomialIdeal:
    """Parse ideal file text: one generator per line, # comments allowed."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if context is None and stripped.lower().startswith("# vars:"):
            names = stripped[len("# vars:"):].split()
            if not names:
                raise ParseError("empty vars directive", lineno)
            try:
                context = PolyContext(tuple(names))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            continue
        body = _strip_comment(raw)
        if body:
            entries.append((lineno, body))
    if context is None:
        context = _infer_context([b for _, b in entries])
    gens = [parse_monomial(context, body, line=lineno) for lineno, body in entries]
    return MonomialIdeal.from_generators(context, gens)


def parse_ideal_file(path, context: PolyContext | None = None) -> MonomialIdeal:
    return parse_ideal_source(_read_text(path), context)


def ideal_to_text(I: MonomialIdeal) -> str:
    """Single-line rendering, e.g. ``(x1^2*x3, x2)``."""
    if I.is_zero():
        return "(0)"
    names = I.context.names
    return "(" + ", ".join(exponents_to_text(names, v) for v in I.exponents) + ")"


def ideal_to_source(I: MonomialIdeal) -> str:
    """Canonical ideal file: vars directive plus one generator per line."""
    lines = ["# vars: " + " ".join(I.context.names)]
    lines += [exponents_to_text(I.context.names, v) for v in I.exponents]
    return "\n".join(lines) + "\n"


def canonical_ideal_source(text: str) -> str:
    """Parse-then-render; the identity on canonical files."""
    return ideal_to_source(parse_ideal_source(text))


def ideal_to_obj(I: MonomialIdeal):
    return {
        "context": {"n": I.context.n, "names": list(I.context.names)},
        "generators": [list(v) for v in I.exponents],
    }


# ---------------------------------------------------------------------------
# decompositions

def decomposition_to_obj(dec):
    comps = []
    for comp in dec:
        if hasattr(comp, "powers"):  # irreducible
            comps.append({comp.context.names[i]: e for i, e in comp.powers})
        else:  # primary
            comps.append({
                "radical": list(comp.radical_prime.names),
                "generators": [list(v) for v in comp.ideal.exponents],
            })
    return {"components": comps}


# ---------------------------------------------------------------------------
# digraph files

def parse_digraph_source(text: str) -> WeightedDigraph:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_digraph_json(text)
    return _parse_digraph_shorthand(text)


def parse_digraph_file(path) -> WeightedDigraph:
    return parse_digraph_source(_read_text(path))


def _parse_digraph_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(doc, dict) or not all(
            isinstance(doc.get(key), list) for key in ("vertices", "arcs")):
        raise ParseError("digraph JSON needs 'vertices' and 'arcs' lists")
    vertices = []
    for k, entry in enumerate(doc["vertices"]):
        if not isinstance(entry, dict) or "id" not in entry:
            raise ParseError(f"vertex #{k} needs an 'id'")
        weight = entry.get("weight", 1)
        # JSON integers only: int() would read 2.7 as 2, true as 1, "3" as 3
        if not isinstance(weight, int) or isinstance(weight, bool):
            raise ParseError(f"vertex #{k} has a non-integer weight")
        vertices.append((str(entry["id"]), weight))
    arcs = []
    for k, pair in enumerate(doc["arcs"]):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"arc #{k} must be a pair")
        arcs.append((str(pair[0]), str(pair[1])))
    return _build_digraph(vertices, arcs)


def _build_digraph(vertices, arcs):
    try:
        return WeightedDigraph.of(vertices, arcs)
    except (ValueError, KeyError) as exc:
        raise ParseError(str(exc)) from None


_ARC_RE = re.compile(r"^(\S+)\s*->\s*(\S+)$")
_WEIGHT_RE = re.compile(r"^(\S+?)=(\d+)$")


def _parse_digraph_shorthand(text):
    weights = {}
    arcs = []
    order = []

    def note(nm):
        if nm not in order:
            order.append(nm)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = _strip_comment(raw)
        if not body:
            continue
        if body.lower().startswith("weights:"):
            for tok in body[len("weights:"):].split():
                m = _WEIGHT_RE.match(tok)
                if not m:
                    raise ParseError(f"bad weight entry {tok!r}", lineno)
                weights[m.group(1)] = int(m.group(2))
                note(m.group(1))
            continue
        m = _ARC_RE.match(body)
        if not m:
            raise ParseError(f"expected 'i -> j' or a weights: header, got "
                             f"{body!r}", lineno)
        a, b = m.group(1), m.group(2)
        note(a)
        note(b)
        arcs.append((a, b))
    if not order:
        raise ParseError("digraph file defines no vertices")
    vertices = [(nm, weights.get(nm, 1)) for nm in order]
    return _build_digraph(vertices, arcs)


def digraph_to_source(D: WeightedDigraph) -> str:
    """Canonical shorthand: weights header plus sorted arc lines."""
    ws = " ".join(f"{nm}={w}" for nm, w in zip(D.names, D.weights))
    lines = [f"weights: {ws}"]
    for i, j in sorted(D.arcs):
        lines.append(f"{D.names[i]} -> {D.names[j]}")
    return "\n".join(lines) + "\n"


def canonical_digraph_source(text: str) -> str:
    return digraph_to_source(parse_digraph_source(text))


def digraph_to_obj(D: WeightedDigraph):
    return {
        "vertices": [{"id": nm, "weight": w}
                     for nm, w in zip(D.names, D.weights)],
        "arcs": [[D.names[i], D.names[j]] for i, j in sorted(D.arcs)],
    }


# ---------------------------------------------------------------------------
# cone files

def parse_cone_source(text: str) -> RationalCone:
    sections = {"rays": None, "inequalities": None}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        header = stripped.lstrip("#").strip().lower()
        if stripped.startswith("#") and header in sections:
            current = header
            if sections[current] is None:
                sections[current] = []
            continue
        body = _strip_comment(raw)
        if not body:
            continue
        if current is None:
            raise ParseError("vector before any '# rays' or '# inequalities' "
                             "header", lineno)
        try:
            vec = tuple(int(tok) for tok in body.split())
        except ValueError:
            raise ParseError(f"bad integer vector {body!r}", lineno) from None
        sections[current].append(vec)
    if sections["rays"] is None and sections["inequalities"] is None:
        raise ParseError("cone file needs a '# rays' or '# inequalities' section")
    dims = {len(v) for sec in sections.values() if sec for v in sec}
    if len(dims) > 1:
        raise ParseError(f"mixed vector lengths {sorted(dims)}")
    if not dims:
        raise ParseError("cone file contains no vectors, so the dimension "
                         "is unknown")
    dim = dims.pop()
    rays = tuple(sections["rays"]) if sections["rays"] is not None else None
    ineqs = (tuple(sections["inequalities"])
             if sections["inequalities"] is not None else None)
    if rays is not None and ineqs is not None and not cones_equal(
            RationalCone(dim, rays=rays), RationalCone(dim, inequalities=ineqs)):
        raise ParseError("the '# rays' and '# inequalities' sections describe "
                         "different cones")
    return RationalCone(dim, rays=rays, inequalities=ineqs)


def parse_cone_file(path) -> RationalCone:
    return parse_cone_source(_read_text(path))


def cone_to_source(cone: RationalCone) -> str:
    lines = []
    if cone.rays is not None:
        lines.append("# rays")
        lines += [" ".join(str(x) for x in v) for v in cone.rays]
    if cone.inequalities is not None:
        lines.append("# inequalities")
        lines += [" ".join(str(x) for x in v) for v in cone.inequalities]
    return "\n".join(lines) + "\n"


def cone_to_obj(cone: RationalCone):
    out = {"dim": cone.dim}
    if cone.rays is not None:
        out["rays"] = [list(v) for v in cone.rays]
    if cone.inequalities is not None:
        out["inequalities"] = [list(v) for v in cone.inequalities]
    return out


def hilbert_basis_to_text(hb: HilbertBasis) -> str:
    return "\n".join(" ".join(str(x) for x in v) for v in hb.elements) + "\n"
