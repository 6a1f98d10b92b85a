"""Command-line front end.

Reads ideal, digraph and cone files, dispatches to the library and emits
deterministic text or JSON.  Exit status: 0 on success, 1 on domain errors
(bad input, hypothesis violations), 2 when a resource cap is hit, 64
(``EX_USAGE`` of sysexits.h) on a command-line usage error, with the usage
message on stderr.
Without ``--format``, the ``IDEALKIT_FORMAT`` environment variable picks the
output format; it is read on every call, and a value other than ``text`` or
``structured`` is an error (exit 1).  The argument parser is built once per
process, on the first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import cones, decomposition, digraphs, formats, symbolic
from .cones import DEFAULT_LATTICE_CAP
from .digraphs import DEFAULT_VERTEX_CAP
from .errors import IdealKitError, ResourceCapError
from .symbolic import DEFAULT_GENERATOR_CAP


def _emit(args, text_fn, obj_fn):
    if args.format == "structured":
        print(json.dumps(obj_fn(), indent=2))
    else:
        out = text_fn()
        if out:
            print(out, end="" if out.endswith("\n") else "\n")


def _load_ideal(args):
    return formats.parse_ideal_file(args.path)


def _load_digraph(args):
    return formats.parse_digraph_file(args.path)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_decompose(args):
    dec = decomposition.irreducible_decomposition(_load_ideal(args))
    _emit(args,
          lambda: "\n".join(str(c) for c in dec),
          lambda: formats.decomposition_to_obj(dec))


def _cmd_primary(args):
    dec = decomposition.primary_decomposition(_load_ideal(args))
    _emit(args,
          lambda: "\n".join(f"{c.ideal}  radical {c.radical_prime}" for c in dec),
          lambda: formats.decomposition_to_obj(dec))


def _cmd_assprimes(args):
    primes = decomposition.associated_primes(_load_ideal(args))
    _emit(args,
          lambda: "\n".join(str(p) for p in primes),
          lambda: {"associated_primes": [list(p.names) for p in primes]})


def _cmd_symbolic(args):
    I = _load_ideal(args)
    variant = (symbolic.Variant.ALL_ASS_PRIMES if args.variant == "ass"
               else symbolic.Variant.MIN_PRIMES)
    rows = []
    for k, ordinary, sym in symbolic.symbolic_powers(I, range(1, args.k + 1),
                                                     variant, args.max_generators):
        # I^k lies in I^(k), so an ordinary generator dividing a minimal
        # symbolic generator g is g itself
        plain = set(ordinary.exponents)
        extra = [v for v in sym.exponents if v not in plain]
        rows.append((k, ordinary, sym, extra))

    def text():
        lines = []
        for k, ordinary, sym, extra in rows:
            lines.append(f"k={k}")
            lines.append(f"  ordinary: {ordinary}")
            lines.append(f"  symbolic: {sym}")
            extra_txt = ", ".join(formats.exponents_to_text(I.context.names, v)
                                  for v in extra)
            lines.append(f"  extra:    ({extra_txt})" if extra else "  extra:    none")
        return "\n".join(lines)

    def obj():
        return {"variant": args.variant, "powers": [
            {"k": k,
             "ordinary": [list(v) for v in ordinary.exponents],
             "symbolic": [list(v) for v in sym.exponents],
             "extra": [list(v) for v in extra]}
            for k, ordinary, sym, extra in rows]}

    _emit(args, text, obj)


def _cmd_ntf(args):
    report = symbolic.ntf_probe(_load_ideal(args), args.kmax, args.max_generators)

    def text():
        lines = [f"k={k}: {'equal' if ok else 'NOT equal'}"
                 for k, ok in enumerate(report.equal, start=1)]
        if report.first_failure is None:
            lines.append(f"ordinary and symbolic powers agree up to k={report.kmax}")
        else:
            lines.append(f"first failure at k={report.first_failure}")
        return "\n".join(lines)

    _emit(args, text,
          lambda: {"kmax": report.kmax, "equal": list(report.equal),
                   "first_failure": report.first_failure})


def _cmd_dual(args):
    J = decomposition.alexander_dual(_load_ideal(args))
    _emit(args, lambda: str(J), lambda: formats.ideal_to_obj(J))


def _cmd_stardual(args):
    J = decomposition.star_dual(_load_ideal(args))
    _emit(args, lambda: str(J), lambda: formats.ideal_to_obj(J))


def _cmd_rees(args):
    cone = cones.dual_description(cones.rees_cone(_load_ideal(args)))
    _emit(args, lambda: formats.cone_to_source(cone),
          lambda: formats.cone_to_obj(cone))


def _cmd_simis(args):
    cone = cones.simis_cone(_load_ideal(args))
    _emit(args, lambda: formats.cone_to_source(cone),
          lambda: formats.cone_to_obj(cone))


def _cmd_hilbert(args):
    if args.simis:
        cone = cones.simis_cone(formats.parse_ideal_file(args.path))
    elif args.rees:
        cone = cones.rees_cone(formats.parse_ideal_file(args.path))
    else:
        cone = formats.parse_cone_file(args.path)
    hb = cones.hilbert_basis(cone, args.max_lattice_points)
    _emit(args, lambda: formats.hilbert_basis_to_text(hb),
          lambda: {"dim": hb.dim, "elements": [list(v) for v in hb.elements]})


def _cmd_normal(args):
    flag = cones.is_normal(_load_ideal(args), args.max_lattice_points)
    _emit(args, lambda: f"normal: {'true' if flag else 'false'}",
          lambda: {"normal": flag})


def _cmd_closure(args):
    J = cones.integral_closure(_load_ideal(args), args.max_lattice_points)
    _emit(args, lambda: str(J), lambda: formats.ideal_to_obj(J))


def _cmd_sreesgens(args):
    gens = cones.symbolic_rees_generators(_load_ideal(args),
                                          args.max_lattice_points)
    _emit(args,
          lambda: "\n".join(f"{formats.monomial_to_text(m)} t^{b}"
                            for m, b in gens),
          lambda: {"generators": [{"monomial": list(m.exponents), "t": b}
                                  for m, b in gens]})


def _cmd_digraph_ideal(args):
    I = _load_digraph(args).edge_ideal()
    _emit(args, lambda: str(I), lambda: formats.ideal_to_obj(I))


def _cmd_covers(args):
    parts = _load_digraph(args).strong_covers(args.max_vertices)
    _emit(args,
          lambda: "\n".join(str(p) for p in parts),
          lambda: {"strong_covers": [
              {"cover": list(p.cover), "L1": list(p.L1),
               "L2": list(p.L2), "L3": list(p.L3)} for p in parts]})


def _cmd_prt(args):
    dec = _load_digraph(args).prt_decomposition(args.max_vertices)
    _emit(args,
          lambda: "\n".join(str(c) for c in dec),
          lambda: formats.decomposition_to_obj(dec))


def _cmd_classify(args):
    res = _load_digraph(args).cm_classify()

    def text():
        lines = [f"status: {res.status.value}"]
        if res.rule:
            lines.append(f"rule: {res.rule}")
        if res.matching:
            lines.append("matching: " + ", ".join(f"{{{x}, {y}}}"
                                                  for x, y in res.matching))
        lines.append(f"reason: {res.reason}")
        return "\n".join(lines)

    _emit(args, text,
          lambda: {"status": res.status.value, "rule": res.rule,
                   "matching": [list(p) for p in res.matching] if res.matching else None,
                   "reason": res.reason})


def _cmd_reduce(args):
    D = _load_digraph(args).weight_reduce()
    _emit(args, lambda: formats.digraph_to_source(D),
          lambda: formats.digraph_to_obj(D))


def _cmd_polarize(args):
    J, var_map = digraphs.polarize(_load_ideal(args))

    def text():
        lines = [str(J)]
        for nm in J.context.names:
            orig, copy = var_map[nm]
            lines.append(f"{nm} <- {orig} (copy {copy})")
        return "\n".join(lines)

    _emit(args, text,
          lambda: {"ideal": formats.ideal_to_obj(J),
                   "map": {nm: {"variable": orig, "copy": copy}
                           for nm, (orig, copy) in var_map.items()}})


# ---------------------------------------------------------------------------

FORMATS = ("text", "structured")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 on usage errors; 2 is taken by resource caps
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _cap(text):
    """argparse type of a cap flag: a non-negative int."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"a cap must be >= 0, not {value}")
    return value


def build_parser():
    parser = _Parser(
        prog="idealkit",
        description="Decompositions, symbolic powers, Hilbert bases and "
                    "normality certificates for monomial ideals and edge "
                    "ideals of weighted oriented graphs.")
    parser.add_argument(
        "--format", choices=FORMATS,
        help="output format (default from $IDEALKIT_FORMAT, else text)")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("decompose", _cmd_decompose, "irreducible decomposition of an ideal"),
        ("primary", _cmd_primary, "minimal primary decomposition"),
        ("assprimes", _cmd_assprimes, "associated primes"),
        ("symbolic", _cmd_symbolic, "ordinary vs symbolic powers up to k"),
        ("ntf", _cmd_ntf, "probe I^k == I^(k) for k = 1..kmax"),
        ("dual", _cmd_dual, "Alexander dual"),
        ("stardual", _cmd_stardual, "generator-wise star dual"),
        ("rees", _cmd_rees, "Rees cone with both representations"),
        ("simis", _cmd_simis, "Simis cone of an ideal without embedded primes"),
        ("hilbert", _cmd_hilbert, "minimal Hilbert basis of a cone"),
        ("normal", _cmd_normal, "normality of the ideal"),
        ("closure", _cmd_closure, "integral closure of the ideal"),
        ("sreesgens", _cmd_sreesgens, "symbolic Rees algebra generators"),
        ("digraph-ideal", _cmd_digraph_ideal, "edge ideal of a weighted digraph"),
        ("covers", _cmd_covers, "strong vertex covers with their partitions"),
        ("prt", _cmd_prt, "cover-wise irreducible decomposition of the edge ideal"),
        ("classify", _cmd_classify, "combinatorial Cohen-Macaulay classification"),
        ("reduce", _cmd_reduce, "cap every weight at 2"),
        ("polarize", _cmd_polarize, "squarefree polarization of an ideal"),
    ]
    for name, handler, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("path", help="input file")
        if name == "symbolic":
            p.add_argument("--k", type=int, default=1, help="top power to report")
            p.add_argument("--variant", choices=("min", "ass"), default="min",
                           help="symbolic power over minimal or all associated primes")
        if name == "ntf":
            p.add_argument("--kmax", type=int, default=4)
        if name in ("symbolic", "ntf"):
            p.add_argument("--max-generators", type=_cap, default=DEFAULT_GENERATOR_CAP,
                           help="cap on the minimal generators of one power")
        if name == "hilbert":
            g = p.add_mutually_exclusive_group()
            g.add_argument("--simis", action="store_true",
                           help="treat the input as an ideal file; use its Simis cone")
            g.add_argument("--rees", action="store_true",
                           help="treat the input as an ideal file; use its Rees cone")
        if name in ("hilbert", "normal", "closure", "sreesgens"):
            p.add_argument("--max-lattice-points", type=_cap,
                           default=DEFAULT_LATTICE_CAP,
                           help="cap on the parallelepiped lattice points of the "
                                "cone's pulling triangulation, summed over all simplices")
        if name in ("covers", "prt"):
            p.add_argument("--max-vertices", type=_cap, default=DEFAULT_VERTEX_CAP)
    return parser


@functools.cache
def _parser():
    # parse_args leaves no state behind: each call gets a fresh namespace
    # filled from the parsers' fixed defaults
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.format is None:
        args.format = os.environ.get("IDEALKIT_FORMAT") or "text"
        if args.format not in FORMATS:
            print(f"error: $IDEALKIT_FORMAT must be 'text' or 'structured', "
                  f"not {args.format!r}", file=sys.stderr)
            return 1
    if getattr(args, "k", 1) < 1 or getattr(args, "kmax", 1) < 1:
        print("error: k and kmax must be >= 1", file=sys.stderr)
        return 1
    try:
        args.handler(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IdealKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
