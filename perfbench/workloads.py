"""Seeded inputs, job lists and output checks for the three workloads.

A workload is built from ``--seed`` alone: ``build(name, seed, workdir)``
writes the input files under ``workdir`` and returns the jobs (argv lists for
``idealkit.cli.main``) plus the checks that judge their outputs.  Every
random choice comes from ``random.Random(f"{name}:{seed}")``, so the same
seed gives byte-identical inputs.

Sizing (one job, untraced, 2-vCPU x86 container, Python 3.11):

* decompose: staircase N=60 about 0.05 s, N=150 about 0.7 s per subcommand;
  random weighted edge ideals with n=12 cost 0.03-0.25 s (the splitting cost
  varies with the graph, coefficient of variation about 0.55); prt/covers on
  n=17 digraphs cost 0.25-0.35 s (2^n subsets).
* symbolic: ``symbolic --k 5`` on ex2.10 about 0.6 s, on fig1 about 0.6 s;
  ``ntf --kmax 4`` on the 6-cycle about 0.55 s; the random 4-vertex edge
  ideals about 0.1 s.
* cones: fixed-ideal jobs 0.005-0.14 s; random cones 0.01-0.06 s; the fixed
  dimension-5 cone 0.18 s.

Known slow inputs are left out on purpose; perfbench/README.md lists them
with the measurements that led to each size.  In short: random cones whose
facet normals have large entries run 2 s to past 20 s in ``hilbert``
(``semigroup_member`` search, coefficient growth in
``_linalg.diagonalize``), so random cones are redrawn until every facet
normal entry is at most MAX_FACET_ENTRY; ``sreesgens`` on fig1 and
``simis``/``sreesgens`` on most random ideals exit 1, so those pairs are not
jobs.  Every job here exits 0 at the seed commit.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    cone_facets,
    contains_ideal,
    ideal_power,
    in_power,
    intersect_all,
    minimalize,
    parse_component,
    parse_ideal_text,
    parse_rows,
    read_ideal_file,
)

WORKLOADS = ("decompose", "symbolic", "cones")

# The paper's worked examples (tests/fixtures carries the same ideals).
FIXED_IDEALS = {
    "ex2_10": ("x1 x2 x3 x4 x5",
               ["x2*x3", "x4*x5", "x3*x4", "x2*x5", "x1^2*x3", "x1*x2^2"]),
    "fig1": ("x1 x2 x3 x4 x5",
             ["x1^2*x3", "x1*x2^2", "x3*x2^2", "x3*x4^2", "x4^2*x5", "x2^2*x5"]),
    "ex2_12": ("x1 x2 x3", ["x1*x2^2", "x1^2*x3", "x2*x3^2"]),
    "terai": ("x1 x2 x3 x4",
              ["x2^2*x4^2", "x2^2*x3*x4", "x2^2*x3^2", "x1*x2*x3*x4",
               "x1*x2*x3^2", "x1^2*x3^2"]),
    "cycle6": ("x1 x2 x3 x4 x5 x6",
               ["x1*x2", "x2*x3", "x3*x4", "x4*x5", "x5*x6", "x1*x6"]),
}


@dataclass(frozen=True)
class Job:
    """One CLI call: ``argv`` ends with the input path."""

    label: str
    argv: tuple[str, ...]
    key: str  # sha256 of the flags and the input bytes; indexes the pins


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job] = field(default_factory=list)
    warm: list[Job] = field(default_factory=list)  # one fixed job per subcommand
    # each check maps {label: stdout} to a list of (label, message) failures
    checks: list = field(default_factory=list)
    workdir: Path | None = None

    def add(self, args, path):
        path = Path(path)
        label = " ".join(list(args) + [path.name])
        digest = hashlib.sha256(" ".join(args).encode() + b"\0"
                                + path.read_bytes()).hexdigest()
        self.jobs.append(Job(label, tuple(args) + (str(path),), digest))
        return label


# ---------------------------------------------------------------------------
# input writers

def _mono(names, v):
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, v) if e]
    return "*".join(parts) if parts else "1"


def _write_ideal(path, names, gens):
    """``gens`` are exponent vectors or monomial strings."""
    lines = [g if isinstance(g, str) else _mono(names, g) for g in gens]
    path.write_text("# vars: " + " ".join(names) + "\n" + "\n".join(lines) + "\n")
    return path


def _names(n):
    return [f"x{i}" for i in range(1, n + 1)]


def _staircase(N):
    return [(i, N - i) for i in range(N + 1)]


def _random_digraph(rng, n, weights=(1, 2, 3), arcs=None):
    """Oriented graph with ``arcs`` arcs (default round(1.5 n)); sources get
    weight 1."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    arcs = [(a, b) if rng.random() < 0.5 else (b, a)
            for a, b in rng.sample(pairs, arcs or round(1.5 * n))]
    heads = {b for _, b in arcs}
    w = [rng.choice(weights) if v in heads else 1 for v in range(n)]
    return w, sorted(arcs)


def _write_digraph(stem, n, w, arcs):
    names = _names(n)
    dg = stem.with_suffix(".digraph")
    dg.write_text("weights: " + " ".join(f"{names[i]}={w[i]}" for i in range(n))
                  + "\n" + "".join(f"{names[a]} -> {names[b]}\n" for a, b in arcs))
    gens = []
    for a, b in arcs:
        v = [0] * n
        v[a] += 1
        v[b] += w[b]
        gens.append(tuple(v))
    return dg, _write_ideal(stem.with_suffix(".ideal"), names, gens)


def _random_ideal(rng, n, ngens, emax):
    """``ngens`` distinct generators, each on 2 or 3 variables, exponents <= emax."""
    gens = set()
    while len(gens) < ngens:
        v = [0] * n
        for j in rng.sample(range(n), rng.randint(2, 3)):
            v[j] = rng.randint(1, emax)
        gens.add(tuple(v))
    return sorted(gens)


MAX_FACET_ENTRY = 30


def _random_cone(rng, d, emax, nrays):
    """Full-dimensional pointed cone: nonnegative rays of rank d whose facet
    normals have entries of absolute value <= MAX_FACET_ENTRY."""
    while True:
        rays = set()
        while len(rays) < nrays:
            v = tuple(rng.randint(0, emax) for _ in range(d))
            if any(v):
                rays.add(v)
        rays = sorted(rays)
        facets = cone_facets(rays)  # empty when the rays do not span Z^d
        if facets and max(abs(x) for h in facets for x in h) <= MAX_FACET_ENTRY:
            return rays, facets


def _write_cone(path, rays):
    path.write_text("# rays\n" + "".join(" ".join(map(str, r)) + "\n" for r in rays))
    return path


def _write_fixed(wl, name):
    names, gens = FIXED_IDEALS[name]
    return _write_ideal(wl.workdir / f"{name}.ideal", names.split(), gens)


# ---------------------------------------------------------------------------
# decompose

# Every subcommand on small staircases, then one subcommand per rung of a
# ladder N = 120..150 whose eleven deterministic jobs (0.4-0.9 s) cost more
# than any random job and hold the top decile of job times, so p90 does not
# move with the seed.  The staircases N = 56..64 (about 0.05 s each) sit
# where the median job falls, so p50 moves little with the seed either.
STAIRCASE_N = (56, 58, 60, 62, 64, 90)
STAIRCASE_LADDER = tuple(range(120, 151, 3))
DECOMP_SUBCOMMANDS = ("decompose", "assprimes", "dual")


def _build_decompose(wl, rng):
    d = wl.workdir
    # Staircases: the answer has only N components, the splitting makes many.
    stairs = {}
    for N in STAIRCASE_N:
        path = _write_ideal(d / f"stair{N:03d}.ideal", ["x1", "x2"], _staircase(N))
        for sub in DECOMP_SUBCOMMANDS:
            stairs[wl.add([sub], path)] = (sub, N)
    for k, N in enumerate(STAIRCASE_LADDER):
        path = _write_ideal(d / f"stair{N:03d}.ideal", ["x1", "x2"], _staircase(N))
        sub = DECOMP_SUBCOMMANDS[k % 3]
        stairs[wl.add([sub], path)] = (sub, N)
    wl.checks.append(lambda out: _check_staircases(out, stairs))

    # Weighted edge ideals: every one is also decomposed cover-wise by prt.
    edges = []
    for k in range(30):
        w, arcs = _random_digraph(rng, 12)
        dg, ideal = _write_digraph(d / f"edge{k:02d}", 12, w, arcs)
        sub = DECOMP_SUBCOMMANDS[k % 3]
        edges.append((sub, wl.add([sub], ideal), wl.add(["prt"], dg), ideal))
    wl.checks.append(lambda out: _check_edges(out, edges))

    # Squarefree edge ideals (all weights 1): Alexander dual == star dual.
    pairs = []
    for k in range(4):
        w, arcs = _random_digraph(rng, 12 + k % 3, weights=(1,))
        _, ideal = _write_digraph(d / f"sqfree{k}", 12 + k % 3, w, arcs)
        pairs.append((wl.add(["dual"], ideal), wl.add(["stardual"], ideal)))
    wl.checks.append(lambda out: _check_dual_pairs(out, pairs))

    # Larger digraphs: strong_covers enumerates 2^n vertex subsets.  n=17
    # keeps these jobs (0.25-0.35 s) below the staircase ladder.
    covers = []
    for k, n in enumerate((17, 17)):
        w, arcs = _random_digraph(rng, n)
        dg, _ = _write_digraph(d / f"graph{k}", n, w, arcs)
        covers.append((wl.add(["prt"], dg), wl.add(["covers"], dg)))
    wl.checks.append(lambda out: _check_covers(out, covers))


def _components(text):
    return [parse_component(line) for line in text.splitlines() if line.strip()]


def _check_staircases(out, stairs):
    bad = []
    for label, (sub, N) in stairs.items():
        comps = {(("x1", i), ("x2", N + 1 - i)) for i in range(1, N + 1)}
        text = out[label]
        if sub == "decompose":
            ok = set(_components(text)) == comps
        elif sub == "assprimes":
            ok = text.split() == ["(x1,", "x2)"]
        else:
            ok = parse_ideal_text(text, ["x1", "x2"]) == minimalize(
                [(i, N + 1 - i) for i in range(1, N + 1)])
        if not ok:
            bad.append((label, f"staircase N={N}: {sub} output is not the "
                               f"known answer"))
    return bad


def _decomposition_checks(label, comps, names, gens):
    """The printed components must intersect back to the input ideal."""
    idx = {n: i for i, n in enumerate(names)}
    ideals = []
    for comp in comps:
        ideals.append(minimalize(
            [tuple(e if j == idx[n] else 0 for j in range(len(names)))
             for n, e in comp]))
    if intersect_all(ideals) != minimalize(gens):
        return [(label, "components do not intersect back to the input")]
    return []


def _check_edges(out, edges):
    bad = []
    for sub, label, prt_label, ideal_path in edges:
        names, gens = read_ideal_file(ideal_path)
        prt = _components(out[prt_label])
        bad += _decomposition_checks(prt_label, prt, names, gens)
        text = out[label]
        if sub == "decompose":
            if text != out[prt_label]:
                bad.append((label, "decompose differs from prt on the digraph"))
        elif sub == "assprimes":
            primes = {tuple(p.strip("() ").split(", ")) for p in text.splitlines()}
            if primes != {tuple(n for n, _ in c) for c in prt}:
                bad.append((label, "assprimes differs from the prt radicals"))
        else:
            want = minimalize([tuple(dict(c).get(n, 0) for n in names) for c in prt])
            if parse_ideal_text(text, names) != want:
                bad.append((label, "dual differs from the products of the "
                                   "prt components"))
    return bad


def _check_dual_pairs(out, pairs):
    return [(a, "dual differs from stardual on a squarefree ideal")
            for a, b in pairs if out[a] != out[b]]


def _check_covers(out, covers):
    bad = []
    for prt_label, cov_label in covers:
        comps = [tuple(n for n, _ in c) for c in _components(out[prt_label])]
        sets = []
        for line in out[cov_label].splitlines():
            cover = line.split("} L1=")[0].removeprefix("C={")
            sets.append(tuple(cover.split(", ")) if cover else ())
        if sorted(map(sorted, comps)) != sorted(map(sorted, sets)):
            bad.append((cov_label, "strong covers differ from the prt "
                                   "component supports"))
    return bad


# ---------------------------------------------------------------------------
# symbolic

def _build_symbolic(wl, rng):
    # Six deterministic jobs of 0.5-0.8 s stand above every random job and
    # hold the top decile of job times, so p90 falls among fixed inputs.
    # The random ideals are edge ideals of weighted oriented graphs on 4
    # vertices with 5 arcs: 0.1 s each with little spread (log-sd 0.17), so
    # p50 and jobs_per_s move little with the seed.  Random 5-variable
    # ideals were tried and left out: their cost spreads 4x wider.
    d = wl.workdir
    sym, ntf = [], []
    for name in ("ex2_10", "fig1"):
        path = _write_fixed(wl, name)
        sym.append((wl.add(["symbolic", "--k", "5"], path), path, 5))
        ntf.append((wl.add(["ntf", "--kmax", "5"], path), 5))
    path = _write_fixed(wl, "cycle6")
    sym.append((wl.add(["symbolic", "--k", "4"], path), path, 4))
    ntf.append((wl.add(["ntf", "--kmax", "4"], path), 4))
    path = _write_fixed(wl, "terai")
    ntf.append((wl.add(["ntf", "--kmax", "4"], path), 4))
    path = _write_fixed(wl, "ex2_12")
    sym.append((wl.add(["symbolic", "--variant", "ass", "--k", "8"], path), path, 8))
    for k in range(24):
        w, arcs = _random_digraph(rng, 4, weights=(1, 2), arcs=5)
        _, path = _write_digraph(d / f"rand{k:02d}", 4, w, arcs)
        sym.append((wl.add(["symbolic", "--k", "5"], path), path, 5))
    wl.checks.append(lambda out: _check_symbolic(out, sym))
    wl.checks.append(lambda out: _check_ntf(out, ntf))


def _check_symbolic(out, jobs):
    """I^k printed as 'ordinary' must equal I^k; it must lie in the symbolic
    power, and 'extra' lists the symbolic generators outside I^k."""
    bad = []
    for label, path, kmax in jobs:
        names, gens = read_ideal_file(path)
        rows = {}
        for line in out[label].splitlines():
            if line.startswith("k="):
                k = int(line[2:])
                rows[k] = {}
            else:
                tag, _, text = line.strip().partition(":")
                rows[k][tag] = text.strip()
        if sorted(rows) != list(range(1, kmax + 1)):
            bad.append((label, "missing powers in the output"))
            continue
        power = minimalize(gens)
        for k in range(1, kmax + 1):
            if k > 1:
                power = ideal_power(power, gens)
            ordinary = parse_ideal_text(rows[k]["ordinary"], names)
            symbolic = parse_ideal_text(rows[k]["symbolic"], names)
            extra = ([] if rows[k]["extra"] == "none"
                     else parse_ideal_text(rows[k]["extra"], names, minimal=False))
            outside = [g for g in symbolic if not any(
                all(a <= b for a, b in zip(h, g)) for h in ordinary)]
            if ordinary != power:
                bad.append((label, f"ordinary power at k={k} is not I^{k}"))
            elif not contains_ideal(symbolic, ordinary):
                bad.append((label, f"I^{k} is not inside the symbolic power"))
            elif sorted(extra) != sorted(outside):
                bad.append((label, f"extra generators wrong at k={k}"))
    return bad


def _check_ntf(out, jobs):
    bad = []
    for label, kmax in jobs:
        lines = out[label].splitlines()
        flags = [line.endswith(": equal") for line in lines[:-1]]
        first = next((k for k, ok in enumerate(flags, 1) if not ok), None)
        want = (f"ordinary and symbolic powers agree up to k={kmax}"
                if first is None else f"first failure at k={first}")
        if len(flags) != kmax or lines[-1] != want:
            bad.append((label, "ntf summary line disagrees with the flags"))
    return bad


# ---------------------------------------------------------------------------
# cones

# A dimension-5 cone with entries <= 3 whose Hilbert basis (138 elements)
# takes about 0.18 s: it keeps the semigroup_member reduction visible.
FIXED_D5_CONE = [(0, 0, 0, 3, 1), (2, 1, 3, 1, 3), (3, 0, 3, 2, 1), (3, 1, 1, 1, 3),
                 (3, 2, 2, 3, 0), (3, 3, 2, 2, 1), (3, 3, 3, 1, 3)]


def _build_cones(wl, rng):
    d = wl.workdir
    ideals = []
    full = ["rees", "simis", "hilbert --rees", "hilbert --simis", "normal",
            "closure", "sreesgens"]
    for name in ("ex2_10", "fig1", "cycle6"):
        path = _write_fixed(wl, name)
        subs = [s for s in full if not (name == "fig1" and s == "sreesgens")]
        ideals.append((path, {s: wl.add(s.split(), path) for s in subs}))
    for k in range(40):
        gens = _random_ideal(rng, 4, 4 + k % 3, 3)
        path = _write_ideal(d / f"mixed{k:02d}.ideal", _names(4), gens)
        subs = ["rees", "hilbert --rees", "normal", "closure"]
        ideals.append((path, {s: wl.add(s.split(), path) for s in subs}))
    wl.checks.append(lambda out: _check_cone_ideals(out, ideals))

    cones = []
    for k in range(200):
        dim, emax, nrays = (4, 4, 6) if k % 2 == 0 else (5, 2, 7)
        rays, facets = _random_cone(rng, dim, emax, nrays)
        path = _write_cone(d / f"cone{k:03d}.cone", rays)
        cones.append((wl.add(["hilbert"], path), facets))
    path = _write_cone(d / "fixed_d5.cone", FIXED_D5_CONE)
    cones.append((wl.add(["hilbert"], path), cone_facets(FIXED_D5_CONE)))
    wl.checks.append(lambda out: _check_hilbert(out, cones))


def _printed_inequalities(text):
    return parse_rows(text.split("# inequalities", 1)[1])


def _check_rows(label, rows, ineqs):
    if any(not any(r) for r in rows) or len(set(rows)) != len(rows):
        return [(label, "Hilbert basis has a zero or repeated row")]
    if not all(sum(h * x for h, x in zip(h, r)) >= 0 for r in rows for h in ineqs):
        return [(label, "a Hilbert basis row violates the cone's inequalities")]
    return []


def _check_cone_ideals(out, ideals):
    bad = []
    for path, labels in ideals:
        names, gens = read_ideal_file(path)
        gens = minimalize(gens)
        for hb, cone in (("hilbert --rees", "rees"), ("hilbert --simis", "simis")):
            if hb in labels:
                rows = parse_rows(out[labels[hb]])
                bad += _check_rows(labels[hb], rows,
                                   _printed_inequalities(out[labels[cone]]))
        rows = parse_rows(out[labels["hilbert --rees"]])
        normal = all(in_power(r[:-1], r[-1], gens) for r in rows)
        if out[labels["normal"]].strip() != f"normal: {'true' if normal else 'false'}":
            bad.append((labels["normal"], "normality disagrees with the Rees "
                                          "Hilbert basis"))
        closure = parse_ideal_text(out[labels["closure"]], names)
        if not contains_ideal(closure, gens):
            bad.append((labels["closure"], "closure does not contain the ideal"))
        if "sreesgens" in labels:
            got = set()
            for line in out[labels["sreesgens"]].splitlines():
                mono, t = line.rsplit(" t^", 1)
                got.add(parse_ideal_text(f"({mono})", names, minimal=False)[0]
                        + (int(t),))
            if got != set(parse_rows(out[labels["hilbert --simis"]])):
                bad.append((labels["sreesgens"], "generators differ from the "
                                                 "Simis Hilbert basis"))
    return bad


def _check_hilbert(out, cones):
    bad = []
    for label, facets in cones:
        bad += _check_rows(label, parse_rows(out[label]), facets)
    return bad


# ---------------------------------------------------------------------------

_BUILDERS = {"decompose": _build_decompose, "symbolic": _build_symbolic,
             "cones": _build_cones}


def build(name, seed, workdir):
    """Write the workload's inputs under ``workdir`` and list its jobs."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = Workload(name, seed, workdir=workdir)
    rng = random.Random(f"{name}:{seed}")
    _BUILDERS[name](wl, rng)
    # Builders add fixed inputs first, so the warm-up costs the same for
    # every seed.
    for job in wl.jobs:
        if all(w.argv[0] != job.argv[0] for w in wl.warm):
            wl.warm.append(job)
    # a pass cut short by the deadline then still runs a representative mix
    rng.shuffle(wl.jobs)
    return wl


def run_checks(wl, outputs):
    """All property checks; ``outputs`` maps each job label to its stdout."""
    bad = []
    for check in wl.checks:
        try:
            bad += check(outputs)
        except (KeyError, ValueError, IndexError, AttributeError) as exc:
            # unparsable output: the check itself cannot finish
            bad.append((wl.name, f"output check crashed: {type(exc).__name__}: {exc}"))
    return bad
