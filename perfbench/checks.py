"""Independent reference arithmetic for checking idealkit's printed answers.

Nothing here imports idealkit: ideals are minimal sorted tuples of exponent
vectors, cones are lists of integer rows, and every routine is the plain
textbook definition, so a check cannot inherit a bug from the code it judges.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd

_FACTOR = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*?)(?:\^(\d+))?$")


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def minimalize(vecs):
    """Divisibility-minimal generators, sorted."""
    kept = []
    for v in sorted(set(vecs), key=lambda v: (sum(v), v)):
        if not any(_divides(u, v) for u in kept):
            kept.append(v)
    return tuple(sorted(kept))


def contains_ideal(big, small):
    """Every generator of ``small`` lies in the ideal ``big``."""
    return all(any(_divides(h, g) for h in big) for g in small)


def intersect_all(ideals):
    out = ideals[0]
    for J in ideals[1:]:
        out = minimalize([tuple(max(x, y) for x, y in zip(g, h))
                          for g in out for h in J])
    return out


def ideal_power(P, gens):
    """Generators of P * (gens)."""
    return minimalize([tuple(x + y for x, y in zip(p, g)) for p in P for g in gens])


def in_power(a, b, gens):
    """x^a lies in I^b."""
    P = ((0,) * len(a),)
    for _ in range(b):
        P = ideal_power(P, gens)
    return any(_divides(p, a) for p in P)


def parse_monomial(text, names):
    exps = [0] * len(names)
    text = text.strip()
    if text == "1":
        return tuple(exps)
    for factor in text.split("*"):
        m = _FACTOR.match(factor.strip())
        exps[names.index(m.group(1))] += int(m.group(2) or 1)
    return tuple(exps)


def parse_ideal_text(text, names, minimal=True):
    """``(x1^2*x3, x2)`` to exponent vectors."""
    body = text.strip()[1:-1].strip()
    if body in ("", "0"):
        return ()
    vecs = [parse_monomial(t, names) for t in body.split(",")]
    return minimalize(vecs) if minimal else vecs


def parse_component(line):
    """``(x1^2, x3)`` to ((name, exponent), ...) in printed order."""
    out = []
    for part in line.strip()[1:-1].split(","):
        name, _, e = part.strip().partition("^")
        out.append((name, int(e or 1)))
    return tuple(out)


def parse_rows(text):
    return [tuple(int(x) for x in line.split())
            for line in text.splitlines()
            if line.strip() and not line.startswith("#")]


def read_ideal_file(path):
    """(names, generators) of an ideal file written by workloads.py."""
    lines = [ln.strip() for ln in open(path, encoding="utf-8")]
    names = lines[0].removeprefix("# vars:").split()
    return names, [parse_monomial(ln, names) for ln in lines[1:] if ln]


def _rank(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _det(rows):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def cone_facets(rays):
    """Primitive facet normals of the cone generated by ``rays``.

    Brute force over (d-1)-subsets of rays: the cofactor normal of a subset
    is a facet when every ray lies on one side.  Returns [] when the rays do
    not span Z^d.
    """
    d = len(rays[0])
    if _rank(rays) < d:
        return []
    facets = set()
    for sub in itertools.combinations(rays, d - 1):
        h = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in sub]) for j in range(d)]
        vals = [sum(a * b for a, b in zip(h, r)) for r in rays]
        if not any(h) or (min(vals) < 0 < max(vals)):
            continue
        if min(vals) < 0:
            h = [-x for x in h]
        g = 0
        for x in h:
            g = gcd(g, x)
        facets.add(tuple(x // g for x in h))
    return sorted(facets)
