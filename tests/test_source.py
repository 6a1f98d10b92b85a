"""Checks on the library source itself."""

import ast
from pathlib import Path

import idealkit
from idealkit import errors

SRC = Path(idealkit.__file__).parent


def test_library_has_no_assert_statements():
    # invariants must be raised errors so that they survive `python -O`
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _imported_names(tree):
    """(name, line) for each name bound by a module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_library_has_no_unused_imports():
    # __init__.py imports only to re-export
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line}: {name}"
                  for name, line in _imported_names(tree) if name not in used]
    assert found == []


def test_library_does_not_import_fractions():
    # the cone kernel's linear algebra is integer-only
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "fractions"]
    assert found == []


def _private_defs(tree):
    """Private module-level functions and private (non-dunder) methods."""
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        for d in defs:
            if not isinstance(d, ast.FunctionDef) or not d.name.startswith("_"):
                continue
            if not (d.name.startswith("__") and d.name.endswith("__")):
                yield d.name


def test_private_functions_are_called():
    # a private function or method that nothing references is dead code
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.rglob("*.py"))]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    private = [name for tree in trees for name in _private_defs(tree)]
    assert [name for name in private if name not in used] == []


def _sibling_imports(node):
    """Modules of the package that the import statement ``node`` loads."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        if node.module:
            return {node.module.split(".")[0]}
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        return set()
    prefix = SRC.name + "."
    return {name[len(prefix):].split(".")[0] for name in names
            if name.startswith(prefix)}


def test_function_level_imports_only_break_cycles():
    # an import inside a function is allowed only when the imported module
    # imports this one at top level, so a top-level import would be circular
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    top = {name: set().union(*map(_sibling_imports, tree.body))
           for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            for node in ast.walk(stmt):
                found += [f"{name}.py:{node.lineno}: {target}"
                          for target in _sibling_imports(node)
                          if name not in top.get(target, ())]
    assert found == []


def test_every_error_type_is_raised():
    # an IdealKitError subclass that no library module raises is dead code
    raised = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= {n.id for n in ast.walk(node.exc)
                           if isinstance(n, ast.Name)}
                raised |= {n.attr for n in ast.walk(node.exc)
                           if isinstance(n, ast.Attribute)}
    types = [name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.IdealKitError)
             and obj is not errors.IdealKitError]
    assert types
    assert [name for name in types if name not in raised] == []


def _calls(tree, name):
    """Call nodes whose callee is the name or attribute ``name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                yield node


def test_canonical_form_is_made_in_core_alone():
    # from_generators is the one place that checks entries and minimalizes;
    # only core builds ideals without the constructor's re-check.  Outside
    # core, only the Hilbert-basis reduction minimalizes, on value words it
    # packs itself
    builder, direct = [], []
    callers = {"_minimal_vecs": set(), "_minimal_words": set()}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name != "core.py":
            builder += [f"{path.name}:{node.lineno}" for node in _calls(tree, "_built")
                        if getattr(node.args[0], "id", None) == "MonomialIdeal"]
            for fn in ast.walk(tree):
                for name, found in callers.items():
                    if isinstance(fn, ast.FunctionDef) and any(_calls(fn, name)):
                        found.add(f"{path.stem}.{fn.name}")
        direct += [f"{path.name}:{node.lineno}"
                   for node in _calls(tree, "MonomialIdeal")
                   for arg in node.args if any(_calls(arg, "_minimal_vecs"))]
    assert builder == []
    assert direct == []
    assert callers == {"_minimal_vecs": set(),
                       "_minimal_words": {"cones._reduce_generators"}}


def test_constructors_are_bypassed_in_one_place():
    # core._built is the library's one way to build a value without its
    # constructor's checks
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = {id(node): f"{path.stem}.{fn.name}" for fn in tree.body
                  if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        found += [scopes.get(id(node), f"{path.name}:{node.lineno}")
                  for node in _calls(tree, "__new__")
                  if getattr(getattr(node.func, "value", None), "id", None) == "object"]
    assert found == ["core._built"]


def test_cone_facets_are_picked_by_inclusion():
    # the cone kernel holds incidence sets as int bit masks and picks facets
    # as the inclusion-maximal tight sets: rank decides only the
    # triangulation's starting dimension, never pointedness, a face or an
    # inequality
    tree = ast.parse((SRC / "cones.py").read_text())
    rank_callers, frozenset_builders = [], []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            rank_callers += [fn.name for _ in _calls(fn, "rank")]
            frozenset_builders += [fn.name for _ in _calls(fn, "frozenset")]
    assert sorted(rank_callers) == ["_pulling_triangulation"]
    # HilbertBasis.as_set holds vectors, not indices
    assert frozenset_builders == ["as_set"]


def test_extreme_rays_and_facets_share_one_incidence_rule():
    # dual_description prunes whichever representation it was given by
    # _irredundant (extreme rays from rays, facets from inequalities, the
    # Simis cone's too); the only other inclusion-maximal pick is the
    # triangulation's facets of a face
    tree = ast.parse((SRC / "cones.py").read_text())
    callers = {name: sorted(fn.name for fn in ast.walk(tree)
                            if isinstance(fn, ast.FunctionDef) and any(_calls(fn, name)))
               for name in ("_maximal", "_irredundant")}
    assert callers == {"_maximal": ["_irredundant", "_pulling_triangulation"],
                       "_irredundant": ["dual_description"]}


def test_double_description_tracks_active_sets_without_dot_products():
    # a new double-description ray's active set is its parents' common set
    # plus the current row, so only the incidence rule and the triangulation
    # take tight sets by dot products
    tree = ast.parse((SRC / "cones.py").read_text())
    assert sorted(fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  for _ in _calls(fn, "_tight")) == ["_irredundant", "_pulling_triangulation"]


def test_cone_vectors_are_made_canonical_in_the_constructor_alone():
    # RationalCone stores its vectors primitive, distinct and sorted, and
    # the double description takes them (or its own output) as they are
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        body = ast.parse(path.read_text(), filename=str(path)).body
        scopes = [(fn.name, fn) for fn in body if isinstance(fn, ast.FunctionDef)]
        scopes += [(f"{c.name}.{fn.name}", fn) for c in body if isinstance(c, ast.ClassDef)
                   for fn in c.body if isinstance(fn, ast.FunctionDef)]
        callers += [f"{path.stem}.{name}" for name, fn in scopes
                    for _ in _calls(fn, "_canonical_vectors")]
    assert callers == ["cones.RationalCone.__post_init__"]


def test_every_linalg_routine_has_a_caller():
    # _linalg is only what the cone kernel calls: a routine that no other
    # function of the package calls is dead linear algebra
    defs = [node.name for node in ast.parse((SRC / "_linalg.py").read_text()).body
            if isinstance(node, ast.FunctionDef)]
    called = set()
    for path in sorted(SRC.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, ast.FunctionDef):
                called |= {name for name in defs
                           if name != fn.name and any(_calls(fn, name))}
    assert [name for name in defs if name not in called] == []


def test_cone_kernel_eliminates_through_one_hermite_form():
    # the double description's start and lineality, and each simplex's
    # lattice points, are read off _echelon's column Hermite form; no other
    # cone routine eliminates except through rank
    tree = ast.parse((SRC / "cones.py").read_text())
    callers = {fn.name for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and any(_calls(fn, "_echelon"))}
    assert callers == {"_cone_generators", "_parallelepiped_points"}
    # one elimination per conversion: a single call, in a plain assignment
    # of the function body, so neither a loop nor a branch repeats it
    gens = next(fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "_cone_generators")
    assert len(list(_calls(gens, "_echelon"))) == 1
    assert [type(stmt) for stmt in gens.body if any(_calls(stmt, "_echelon"))] == [ast.Assign]


def test_symbolic_imports_only_core_and_decomposition():
    # symbolic powers are products, localizations and intersections of I^k
    # at primes of the decomposition; the cone criterion lives in cones
    tree = ast.parse((SRC / "symbolic.py").read_text())
    loaded = set().union(*map(_sibling_imports, ast.walk(tree)))
    assert loaded == {"core", "decomposition"}


def test_inclusion_among_sets_goes_through_one_rule():
    # facets, extreme rays and primes are int bit masks, and core._maximal
    # is the one pick of the inclusion-maximal ones; no pairwise subset scan
    defs, subset_calls = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs += [path.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_maximal"]
        subset_calls += [f"{path.name}:{node.lineno}" for node in _calls(tree, "issubset")]
    assert defs == ["core.py"]
    assert subset_calls == []
