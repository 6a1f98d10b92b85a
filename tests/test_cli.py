"""Command-line behavior: golden outputs for every fixture file, exit codes,
determinism, structured output."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idealkit
from idealkit.cli import build_parser, main
from idealkit.formats import exponents_to_text, parse_ideal_file

FIXTURES = Path(__file__).parent / "fixtures"
README = Path(__file__).parents[1] / "README.md"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decompose_fig1(capsys):
    code, out, _ = run(capsys, "decompose", FIXTURES / "fig1.ideal")
    assert code == 0
    assert out.splitlines() == [
        "(x1^2, x2^2, x4^2)", "(x1, x3, x5)",
        "(x2^2, x3, x4^2)", "(x2^2, x3, x5)"]


def test_decompose_radical_and_terai(capsys):
    code, out, _ = run(capsys, "decompose", FIXTURES / "radical.ideal")
    assert code == 0
    assert set(out.splitlines()) == {
        "(x1, x3)", "(x1, x2^2, x4)", "(x2, x3)", "(x2, x4)"}
    code, out, _ = run(capsys, "assprimes", FIXTURES / "terai.ideal")
    assert code == 0
    assert all(len(line.split(", ")) == 2 for line in out.splitlines())


def test_primary_and_assprimes(capsys):
    code, out, _ = run(capsys, "primary", FIXTURES / "ex2_12.ideal")
    assert code == 0 and "radical" in out
    code, out, _ = run(capsys, "assprimes", FIXTURES / "ex3_16.ideal")
    assert out.splitlines() == ["(x1, x2)", "(x1, x3)", "(x2, x3)"]


def test_symbolic_example_2_10(capsys):
    code, out, _ = run(capsys, "symbolic", "--k", "2", FIXTURES / "ex2_10.ideal")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k=1"
    k2 = lines[lines.index("k=2"):]
    extra = next(l for l in k2 if "extra" in l)
    assert "x1*x2^2*x3" in extra and "x1*x2^2*x5" in extra


def test_symbolic_ass_variant(capsys):
    code, out, _ = run(capsys, "symbolic", "--k", "1", "--variant", "ass",
                       FIXTURES / "ex2_12.ideal")
    assert code == 0
    assert "extra:    none" in out


def test_ntf(capsys):
    code, out, _ = run(capsys, "ntf", "--kmax", "3", FIXTURES / "ex2_10.ideal")
    assert code == 0
    assert "k=1: equal" in out and "k=2: NOT equal" in out
    assert "first failure at k=2" in out
    # the Terai ideal's first three powers equal its symbolic powers
    code, out, _ = run(capsys, "ntf", "--kmax", "3", FIXTURES / "terai.ideal")
    assert code == 0
    assert out.splitlines()[-1] == "ordinary and symbolic powers agree up to k=3"


def test_duals(capsys):
    code, out, _ = run(capsys, "dual", FIXTURES / "dual_strict.ideal")
    assert code == 0 and out.strip() == "(x2^2*x3, x1)"
    code, out, _ = run(capsys, "stardual", FIXTURES / "dual_strict.ideal")
    assert code == 0 and out.strip() == "(x2^2*x3, x1*x3, x1^2)"


def test_rees_and_simis(capsys):
    code, out, _ = run(capsys, "rees", FIXTURES / "ex2_10.ideal")
    assert code == 0 and "# rays" in out and "# inequalities" in out
    code, out, _ = run(capsys, "simis", FIXTURES / "ex2_10.ideal")
    assert code == 0 and "# inequalities" in out


def test_hilbert_simis_18_rows(capsys):
    code, out, _ = run(capsys, "hilbert", "--simis", FIXTURES / "ex2_22.ideal")
    assert code == 0
    assert len(out.splitlines()) == 18


def test_hilbert_cone_file(capsys):
    code, out, _ = run(capsys, "hilbert", FIXTURES / "wedge.cone")
    assert code == 0
    assert out.splitlines() == ["1 0", "1 1", "1 2"]


def test_normal_and_closure(capsys):
    code, out, _ = run(capsys, "normal", FIXTURES / "fig1.ideal")
    assert code == 0 and out.strip() == "normal: false"
    code, out, _ = run(capsys, "closure", FIXTURES / "fig1.ideal")
    assert code == 0
    assert "x1*x2*x3" in out and "x2*x4*x5" in out


def test_sreesgens(capsys):
    code, out, _ = run(capsys, "sreesgens", FIXTURES / "ex2_22.ideal")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 18
    assert "x1*x2^2 t^1" in lines


def test_digraph_ideal_and_prt(capsys):
    code, out, _ = run(capsys, "digraph-ideal", FIXTURES / "fig1.digraph")
    assert code == 0
    assert out.strip() == "(x4^2*x5, x3*x4^2, x2^2*x5, x2^2*x3, x1*x2^2, x1^2*x3)"
    code, prt_out, _ = run(capsys, "prt", FIXTURES / "fig1.digraph")
    code2, dec_out, _ = run(capsys, "decompose", FIXTURES / "fig1.ideal")
    assert prt_out == dec_out


def test_digraph_ideal_json_form(capsys):
    code, out, _ = run(capsys, "digraph-ideal", FIXTURES / "ex3_13.digraph")
    assert code == 0
    assert out.strip() == "(x3*x4, x2^2*x3, x1*x3, x1*x2)"


def test_dual_strict_inclusion_fixture(capsys):
    _, dual_out, _ = run(capsys, "dual", FIXTURES / "ex3_17.ideal")
    _, star_out, _ = run(capsys, "stardual", FIXTURES / "ex3_17.ideal")
    assert dual_out.strip() == "(x2^2*x3, x1*x3^2, x1^2*x2)"
    assert dual_out != star_out


def test_reversed_fig1_departs_from_unmixedness(capsys):
    code, out, _ = run(capsys, "prt", FIXTURES / "fig1_reversed.digraph")
    assert code == 0
    heights = {line.count(",") for line in out.splitlines()}
    assert len(heights) > 1  # components of different heights: not unmixed


def test_covers(capsys):
    code, out, _ = run(capsys, "covers", FIXTURES / "fig1.digraph")
    assert code == 0
    assert len(out.splitlines()) == 4
    assert any("L3" in line for line in out.splitlines())


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", FIXTURES / "fig1.digraph")
    assert code == 0 and "status:" in out
    code, out, _ = run(capsys, "classify", FIXTURES / "radical.digraph")
    assert code == 0 and "not_cohen_macaulay" in out


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", FIXTURES / "fig1.digraph")
    assert code == 0
    assert out.splitlines()[0] == "weights: x1=2 x2=2 x3=1 x4=2 x5=1"


def test_polarize(capsys):
    code, out, _ = run(capsys, "polarize", FIXTURES / "ex3_16.ideal")
    assert code == 0
    assert "x1_1" in out and "<- x1 (copy 1)" in out


def test_structured_output_and_env_default(capsys, monkeypatch):
    code, out, _ = run(capsys, "--format", "structured",
                       "decompose", FIXTURES / "ex3_16.ideal")
    assert code == 0
    doc = json.loads(out)
    assert doc["components"] == [
        {"x1": 1, "x2": 1}, {"x1": 1, "x3": 2}, {"x2": 2, "x3": 2}]
    monkeypatch.setenv("IDEALKIT_FORMAT", "structured")
    code, out, _ = run(capsys, "normal", FIXTURES / "fig1.ideal")
    assert json.loads(out) == {"normal": False}


def _structured_schemas():
    """{subcommand: JSON template} from the README's structured-output table."""
    section = README.read_text().split("**Structured output**")[1].split("\n## ")[0]
    schemas = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split(" | ")]
        if len(cells) == 2 and cells[1].startswith("`{"):
            template = json.loads(cells[1].strip("`").replace("\\|", "|"))
            for name in re.findall(r"`([a-z-]+)`", cells[0]):
                schemas[name] = template
    return schemas


def _conforms(value, template):
    """True iff ``value`` has the shape of a README template."""
    if isinstance(template, dict):
        if set(template) == {"*"}:
            return isinstance(value, dict) and all(
                _conforms(v, template["*"]) for v in value.values())
        return (isinstance(value, dict) and list(value) == list(template)
                and all(_conforms(value[k], t) for k, t in template.items()))
    if isinstance(template, list):
        return isinstance(value, list) and all(_conforms(v, template[0]) for v in value)
    if template.endswith("|null"):
        return value is None or _conforms(value, template[:-len("|null")])
    if template.startswith("["):
        return isinstance(value, list) and all(_conforms(v, template[1:-1]) for v in value)
    return type(value) is {"int": int, "bool": bool, "str": str}[template]


def _ideal_text(names, gens):
    return "(" + ", ".join(exponents_to_text(names, v) for v in gens) + ")"


def _text_of(command, doc, names):
    """The text output that holds the content of the structured ``doc``;
    ``names`` are the input ideal's variables."""
    def items(xs):
        return "{" + ", ".join(xs) + "}"

    if command in ("decompose", "prt"):
        lines = ["(" + ", ".join(nm if e == 1 else f"{nm}^{e}" for nm, e in c.items()) + ")"
                 for c in doc["components"]]
    elif command == "primary":
        lines = [f"{_ideal_text(names, c['generators'])}  radical ({', '.join(c['radical'])})"
                 for c in doc["components"]]
    elif command == "assprimes":
        lines = [f"({', '.join(p)})" for p in doc["associated_primes"]]
    elif command == "symbolic":
        lines = []
        for row in doc["powers"]:
            extra = row["extra"] and _ideal_text(names, row["extra"])
            lines += [f"k={row['k']}",
                      f"  ordinary: {_ideal_text(names, row['ordinary'])}",
                      f"  symbolic: {_ideal_text(names, row['symbolic'])}",
                      f"  extra:    {extra or 'none'}"]
    elif command == "ntf":
        lines = [f"k={k}: {'equal' if ok else 'NOT equal'}"
                 for k, ok in enumerate(doc["equal"], 1)]
        lines.append(f"first failure at k={doc['first_failure']}" if doc["first_failure"]
                     else f"ordinary and symbolic powers agree up to k={doc['kmax']}")
    elif command in ("dual", "stardual", "closure", "digraph-ideal"):
        lines = [_ideal_text(doc["context"]["names"], doc["generators"])]
    elif command in ("rees", "simis"):
        lines = ["# rays", *(" ".join(map(str, v)) for v in doc["rays"]),
                 "# inequalities", *(" ".join(map(str, v)) for v in doc["inequalities"])]
    elif command == "hilbert":
        lines = [" ".join(map(str, v)) for v in doc["elements"]]
    elif command == "normal":
        lines = [f"normal: {json.dumps(doc['normal'])}"]
    elif command == "sreesgens":
        lines = [f"{exponents_to_text(names, g['monomial'])} t^{g['t']}"
                 for g in doc["generators"]]
    elif command == "covers":
        lines = [f"C={items(p['cover'])} L1={items(p['L1'])} L2={items(p['L2'])} "
                 f"L3={items(p['L3'])}" for p in doc["strong_covers"]]
    elif command == "classify":
        lines = [f"status: {doc['status']}"]
        if doc["rule"]:
            lines.append(f"rule: {doc['rule']}")
        if doc["matching"]:
            lines.append("matching: " + ", ".join(items(p) for p in doc["matching"]))
        lines.append(f"reason: {doc['reason']}")
    elif command == "reduce":
        lines = ["weights: " + " ".join(f"{v['id']}={v['weight']}" for v in doc["vertices"])]
        lines += [f"{a} -> {b}" for a, b in doc["arcs"]]
    elif command == "polarize":
        ideal = doc["ideal"]
        lines = [_ideal_text(ideal["context"]["names"], ideal["generators"])]
        lines += [f"{nm} <- {m['variable']} (copy {m['copy']})" for nm, m in doc["map"].items()]
    return "\n".join(lines) + "\n"


_STRUCTURED_RUNS = [
    ["decompose", "ex3_16.ideal"], ["primary", "ex2_12.ideal"],
    ["assprimes", "ex2_12.ideal"], ["symbolic", "--k", "2", "ex2_10.ideal"],
    ["symbolic", "--variant", "ass", "--k", "2", "ex2_12.ideal"],
    ["ntf", "--kmax", "3", "ex2_10.ideal"], ["ntf", "--kmax", "3", "terai.ideal"],
    ["dual", "dual_strict.ideal"], ["stardual", "dual_strict.ideal"],
    ["rees", "ex3_16.ideal"], ["simis", "ex3_16.ideal"], ["hilbert", "wedge.cone"],
    ["hilbert", "--rees", "ex3_16.ideal"], ["normal", "terai.ideal"],
    ["closure", "fig1.ideal"], ["sreesgens", "terai.ideal"],
    ["digraph-ideal", "fig1.digraph"], ["covers", "radical.digraph"],
    ["prt", "radical.digraph"], ["classify", "radical.digraph"],
    ["classify", "fig1.digraph"], ["reduce", "fig1.digraph"],
    ["polarize", "ex3_16.ideal"],
]


@pytest.mark.parametrize("argv", _STRUCTURED_RUNS, ids=" ".join)
def test_structured_output_follows_the_readme_and_the_text(capsys, monkeypatch, argv):
    monkeypatch.delenv("IDEALKIT_FORMAT", raising=False)
    *args, name = argv
    path = FIXTURES / name
    code, text, _ = run(capsys, *args, path)
    assert code == 0
    code, out, _ = run(capsys, "--format", "structured", *args, path)
    assert code == 0
    doc = json.loads(out)
    assert _conforms(doc, _structured_schemas()[args[0]]), doc
    names = parse_ideal_file(path).context.names if path.suffix == ".ideal" else None
    assert _text_of(args[0], doc, names) == text


def test_readme_and_runs_cover_every_subcommand():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(_structured_schemas()) == sorted(commands)
    assert {argv[0] for argv in _STRUCTURED_RUNS} == set(commands)


def test_unknown_env_format_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("IDEALKIT_FORMAT", "json")
    code, out, err = run(capsys, "decompose", FIXTURES / "ex3_16.ideal")
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "'text'" in err and "'structured'" in err and "Traceback" not in err
    # an explicit --format does not consult the variable
    code, out, _ = run(capsys, "--format", "text", "decompose", FIXTURES / "ex3_16.ideal")
    assert code == 0 and out


def _fresh_process(argv):
    """(exit code, stdout) of the CLI run in a new interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "IDEALKIT_FORMAT"}
    src = str(Path(idealkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "idealkit.cli", *argv],
                          capture_output=True, text=True, env=env, check=False)
    return proc.returncode, proc.stdout


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, capsys.readouterr().out


_EX2_10, _EX3_16 = str(FIXTURES / "ex2_10.ideal"), str(FIXTURES / "ex3_16.ideal")
_LEAK_PAIRS = {
    "symbolic_k": (["symbolic", "--k", "3", _EX2_10], ["symbolic", _EX2_10]),
    "format": (["--format", "structured", "decompose", _EX3_16],
               ["decompose", _EX3_16]),
    "hilbert_rees": (["hilbert", "--rees", _EX3_16],
                     ["hilbert", str(FIXTURES / "wedge.cone")]),
    "usage_error": (["symbolic", "--k", "three", _EX2_10], ["symbolic", _EX2_10]),
}


@pytest.mark.parametrize("pair", sorted(_LEAK_PAIRS))
def test_parser_state_does_not_leak_between_calls(capsys, monkeypatch, pair):
    monkeypatch.delenv("IDEALKIT_FORMAT", raising=False)
    first, second = _LEAK_PAIRS[pair]
    got = [_in_process(capsys, first), _in_process(capsys, second)]
    assert got == [_fresh_process(first), _fresh_process(second)]
    if pair == "usage_error":
        assert got[0] == (64, "")
    if pair == "symbolic_k":
        assert "k=1" in got[1][1] and "k=2" not in got[1][1]


@pytest.mark.parametrize("argv", [
    ["symbolic", "--k", "three", _EX2_10],
    ["decompose", "--bogus", _EX3_16],
    [],
    ["hilbert", "--max-lattice-points", "-1", str(FIXTURES / "wedge.cone")],
    ["covers", "--max-vertices", "-1", str(FIXTURES / "fig1.digraph")],
    ["symbolic", "--max-generators", "-1", _EX2_10],
], ids=["bad_value", "unknown_flag", "no_command", "negative_lattice_cap",
        "negative_vertex_cap", "negative_generator_cap"])
def test_usage_errors_exit_64(capsys, argv):
    # 64 is EX_USAGE of sysexits.h; 2 stays reserved for resource caps
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 64 and out.out == ""
    assert out.err.startswith("usage: idealkit") and "error:" in out.err


def test_non_integer_cap_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--max-lattice-points", "abc", str(FIXTURES / "wedge.cone")])
    out = capsys.readouterr()
    assert exc.value.code == 64 and out.out == ""
    assert "argument --max-lattice-points: invalid int value: 'abc'" in out.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["covers", "--help"])
    assert exc.value.code == 0 and "--max-vertices" in capsys.readouterr().out


def test_parser_built_at_most_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "idealkit":  # the top level, not a subparser
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(20):
        code, _, _ = run(capsys, "hilbert", FIXTURES / "wedge.cone")
        assert code == 0
    assert len(built) <= 1


def test_determinism_byte_identical(capsys):
    _, first, _ = run(capsys, "hilbert", "--simis", FIXTURES / "ex2_22.ideal")
    _, second, _ = run(capsys, "hilbert", "--simis", FIXTURES / "ex2_22.ideal")
    assert first == second


def test_exit_code_domain_errors(capsys, tmp_path):
    code, _, err = run(capsys, "decompose", tmp_path / "missing.ideal")
    assert code == 1 and err
    # embedded primes violate the Simis cone hypothesis
    code, _, err = run(capsys, "simis", FIXTURES / "ex2_12.ideal")
    assert code == 1 and "embedded" in err
    bad = tmp_path / "bad.ideal"
    bad.write_text("x1*x2\nx2^\n")
    code, _, err = run(capsys, "decompose", bad)
    assert code == 1 and "line 2" in err


def test_exit_code_resource_cap(capsys):
    code, _, err = run(capsys, "hilbert", "--simis",
                       "--max-lattice-points", "1", FIXTURES / "ex2_22.ideal")
    assert code == 2 and "budget" in err


def test_closure_lattice_point_cap(capsys):
    # closure spends the same parallelepiped budget as hilbert
    code, _, err = run(capsys, "closure", "--max-lattice-points", "1",
                       FIXTURES / "ex2_22.ideal")
    assert code == 2 and "budget" in err


def test_closure_within_lattice_point_cap(capsys):
    # fig1's Rees cone needs at most 50 parallelepiped points
    code, capped, _ = run(capsys, "closure", "--max-lattice-points", "50",
                          FIXTURES / "fig1.ideal")
    assert code == 0
    assert capped == run(capsys, "closure", FIXTURES / "fig1.ideal")[1]


def test_k_validation(capsys):
    code, _, err = run(capsys, "symbolic", "--k", "0", FIXTURES / "ex2_10.ideal")
    assert code == 1 and "k" in err


@pytest.mark.parametrize("variant", ["min", "ass"])
def test_symbolic_extra_matches_divisibility_definition(capsys, variant):
    # extra: the minimal symbolic generators that no ordinary generator divides
    kept = dropped = 0
    for path in sorted(FIXTURES.glob("*.ideal")):
        code, out, _ = run(capsys, "--format", "structured", "symbolic",
                           "--k", "3", "--variant", variant, path)
        assert code == 0
        for power in json.loads(out)["powers"]:
            want = [g for g in power["symbolic"]
                    if not any(all(a <= b for a, b in zip(o, g))
                               for o in power["ordinary"])]
            assert power["extra"] == want, (path.name, power["k"])
            kept += len(want)
            dropped += len(power["symbolic"]) - len(want)
    assert kept and dropped


_MALFORMED = {
    "sections_disagree.cone": ("hilbert", "# rays\n1 0\n# inequalities\n-1 0\n"),
    "repeated_var.ideal": ("decompose", "# vars: x x\nx\n"),
    "weight_string.digraph": (
        "prt", '{"vertices": [{"id": "a", "weight": "z"}], "arcs": []}'),
    "weight_list.digraph": (
        "prt", '{"vertices": [{"id": "a", "weight": [1]}], "arcs": []}'),
    "vertices_int.digraph": ("prt", '{"vertices": 5, "arcs": []}'),
    "arcs_int.digraph": ("prt", '{"vertices": [{"id": "a"}], "arcs": 7}'),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_files_exit_1_without_traceback(capsys, tmp_path, name):
    command, text = _MALFORMED[name]
    path = tmp_path / name
    path.write_text(text)
    code, _, err = run(capsys, command, path)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("weight", ["2.7", "true", '"3"', "2.0", "null"])
def test_non_integer_json_weight_exits_1(capsys, tmp_path, weight):
    path = tmp_path / "w.digraph"
    path.write_text('{"vertices": [{"id": "a"}, {"id": "b", "weight": %s}], '
                    '"arcs": [["a", "b"]]}' % weight)
    code, out, err = run(capsys, "digraph-ideal", path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "vertex #1 has a non-integer weight" in err
    assert "Traceback" not in err
    path.write_text(path.read_text().replace(weight, "3"))
    assert run(capsys, "digraph-ideal", path)[:2] == (0, "(a*b^3)\n")


# ---------------------------------------------------------------------------
# fuzz: a few byte edits to well-formed files

_FUZZ_INPUTS = [
    (["decompose"], (FIXTURES / name).read_bytes())
    for name in ("fig1.ideal", "ex2_10.ideal", "ex3_16.ideal")
] + [
    (["prt", "--max-vertices", "12"], (FIXTURES / name).read_bytes())
    for name in ("fig1.digraph", "ex3_13.digraph")
] + [
    (["hilbert", "--max-lattice-points", "10000"], text)
    for text in ((FIXTURES / "wedge.cone").read_bytes(),
                 b"# rays\n1 0 0\n1 1 0\n0 1 2\n0 0 1\n"
                 b"# inequalities\n1 0 0\n0 1 0\n0 0 1\n")
]
_EDIT_BYTES = b' \n#-*^>=:,{}[]"0123456789x\xc3\xff'


@st.composite
def _mutated_input(draw):
    argv, data = draw(st.sampled_from(_FUZZ_INPUTS))
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        byte = draw(st.sampled_from(_EDIT_BYTES))
        if op == "insert":
            data.insert(pos, byte)
        elif pos < len(data) and op == "delete":
            del data[pos]
        elif pos < len(data):
            data[pos] = byte
    return argv, bytes(data)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(job=_mutated_input())
def test_cli_survives_mutated_files(tmp_path_factory, job):
    argv, data = job
    path = tmp_path_factory.getbasetemp() / "fuzz.input"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + [str(path)])
    assert code in (0, 1, 2)
    assert code == 0 or err.getvalue().startswith("error:")
