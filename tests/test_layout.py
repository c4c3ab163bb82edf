"""src/ holds only what a run calls: every function defined in
src/decminimax/ is entered by a handful of command-line runs, so a helper
that only tests use lives in tests/conftest.py instead. And each module
keeps its private names: no module of src/ reads another's. No module of
src/ or tests/ imports a name it never reads."""

import ast
import sys
from pathlib import Path

import yaml

import decminimax
from decminimax import cli

from conftest import DIVERGENT, PYTHON_CELLS

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(decminimax.__file__).resolve().parent

# Called by tests and by perfbench's trace, but by no run. It stays in src/
# until the benchmark stops wrapping maximizer_oracle (ROADMAP item 1).
ALLOWED = {("problems.py", "maximizer_oracle")}


def defined_functions():
    """(file name, qualified name) -> first line of every def in src/, the
    first decorator's line for a decorated one, as its code object has."""
    found = {}

    def visit(file, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[file, prefix + child.name] = first
                visit(file, child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(file, child, prefix + child.name + ".")
            else:
                visit(file, child, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(path.name, ast.parse(path.read_text()), "")
    return found


def write_yaml(path, raw):
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def cli_runs(tmp_path):
    """The argument lists of the runs whose calls are recorded."""
    runs = []
    for name in ("ring_quadratic_page.yaml", "sinpl_storm.yaml"):
        raw = yaml.safe_load((ROOT / "scripts" / "configs" / name).read_text())
        raw["T"] = 30
        runs.append(["run", "--config", write_yaml(tmp_path / name, raw)])
    storm = write_yaml(tmp_path / "storm.yaml", {
        "topology": {"kind": "random", "K": 6, "edge_prob": 0.5, "seed": 1},
        "strategy": "extra",
        "problem": {"kind": "quadratic", "d1": 2, "d2": 1, "sigma": 0.5},
        "schedule": {"mode": "storm_extra", "shrink_to_valid": True},
        "T": 30, "seeds": [0, 1]})
    runs.append(["run", "--config", storm])
    # seeds 2, 4 and 5 diverge, so the failure path runs
    runs.append(["run", "--config",
                 write_yaml(tmp_path / "diverge.yaml", DIVERGENT)])
    # est_err columns near 1e300, which Python's "%.17g" formats
    runs.append(["run", "--config", write_yaml(
        tmp_path / "huge.yaml", dict(PYTHON_CELLS, T=3, seeds=[0]))])
    runs.append(["sweep", "--config", storm, "--vary", "schedule.c_mu=1,0.5"])
    for i, argv in enumerate(runs):
        argv += ["--out", str(tmp_path / f"out{i}")]
    runs.append(["schedule", "--mode", "page_online", "--T", "1000",
                 "--K", "8", "--lam", "0.9"])
    return runs


def test_every_src_function_is_entered_by_a_run(tmp_path, capsys):
    runs = cli_runs(tmp_path)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(runs), capsys.readouterr().err
    assert "seed(s) diverged ([2, 4, 5])" in capsys.readouterr().err

    entered = {(Path(name).resolve(), line) for name, line in entered}
    defs = defined_functions()
    assert ALLOWED <= set(defs), "an allowed name is no longer defined"
    missed = {key for key, line in defs.items()
              if (SRC / key[0], line) not in entered}
    assert missed - ALLOWED == set(), "called by no run; move it to the tests"
    assert missed >= ALLOWED, "a run now calls an allowed name; unlist it"


def private_reads(tree):
    """The private names a module reads from another: each _name a relative
    import binds, and each module._name read through an imported module
    (dunder names are not private)."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                found += [f"{node.module}.{a.name}" for a in node.names
                          if private(a.name)]
            modules |= {a.asname or a.name for a in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_name():
    found = {path.name: private_reads(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}


def unread_imports(tree):
    """The names a module imports and never reads (a `from __future__`
    import is a compiler switch, not a name)."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return sorted(bound - {node.id for node in ast.walk(tree)
                           if isinstance(node, ast.Name)})


def test_no_module_imports_a_name_it_never_reads():
    # the package's __init__ imports its public names to export them
    paths = [path for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"] + sorted(ROOT.glob("tests/*.py"))
    found = {path.name: unread_imports(ast.parse(path.read_text()))
             for path in paths}
    assert {name: names for name, names in found.items() if names} == {}
