"""Package-wide lints: every public export has a caller in `src/` or
`benchmarks/` (a caller in `tests/` does not count), only `volume.py` reads
or writes raw arrays and JSON or turns a record into JSON text (so recorded
fields are compared by one rule), one function runs
`cg_solve`, one sampler function `adam_step` and one function constructs
`CTOperator` (`config.build_operator`), no class but `DenoiserPrior` defines
`denoise` or `input_vjp` (a prior implements only `denoise_and_vjp`),
`samplers.py` imports nothing from
`priors.py` (so no sampler path depends on which prior it holds), no module
imports `scipy.sparse`, only `radon.py` names its compiled `_sparsetools`,
and README's config key table lists exactly the fields of `RunConfig`."""

import ast
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from nerdct.config import RunConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nerdct"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}
FORMAT_CALLS = {"tofile", "fromfile", "json.dump", "json.dumps", "json.load"}


def nodes(path):
    return ast.walk(ast.parse(path.read_text()))


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def used_names(path):
    """Names a file reads: bare, imported by name, or as `<package module>.name`.

    Comments, strings and other objects' attributes (`np.dot`) do not count,
    and neither does a name's own `def` or `class`.
    """
    used = set()
    for node in nodes(path):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES):
            used.add(node.attr)
    return used


def test_every_export_is_used_outside_its_own_tests():
    """Callers are the files of `src/` and `benchmarks/`, not of `tests/`."""
    callers = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    callers += sorted((ROOT / "benchmarks").glob("*.py"))
    used = set().union(*(used_names(p) for p in callers))
    unused = sorted(exported_names() - used)
    assert not unused, f"exported but used only by their own tests: {unused}"


def attribute_calls(path):
    """Methods a file calls: `.name`, and `obj.name` when obj is a bare name."""
    called = set()
    for node in nodes(path):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            called.add(node.func.attr)
            if isinstance(node.func.value, ast.Name):
                called.add(f"{node.func.value.id}.{node.func.attr}")
    return called


def test_only_volume_module_does_file_format_io():
    owner = PACKAGE / "volume.py"
    assert FORMAT_CALLS <= attribute_calls(owner)
    offenders = {p.name: sorted(attribute_calls(p) & FORMAT_CALLS)
                 for p in sorted(PACKAGE.glob("*.py")) if p != owner}
    offenders = {name: calls for name, calls in offenders.items() if calls}
    assert not offenders, f"raw-array/JSON IO or JSON text outside volume.py: {offenders}"


def calling_functions(path, name):
    """`module.function` for each function whose own body calls `name` or
    `obj.name`; a call inside a nested def counts for the nested def."""
    callers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                callers.add(f"{path.stem}.{owner}")
            visit(child, owner)

    visit(ast.parse(path.read_text()), "<module>")
    return callers


def test_one_function_runs_cg_solve():
    # Every CG solve in the samplers is the one normal-equation solve.
    callers = set().union(*(calling_functions(p, "cg_solve")
                            for p in sorted(PACKAGE.glob("*.py"))))
    assert len(callers) == 1, sorted(callers)


def test_only_the_prior_base_defines_denoise_and_input_vjp():
    # Every prior gets its value and its VJP from its one fused call.
    definers = sorted(
        f"{p.stem}.{node.name}.{item.name}"
        for p in sorted(PACKAGE.glob("*.py")) for node in nodes(p)
        if isinstance(node, ast.ClassDef) and node.name != "DenoiserPrior"
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name in ("denoise", "input_vjp"))
    assert not definers, definers


def test_one_function_constructs_ct_operator():
    # simulate and reconstruct build the projector the same way.
    callers = set().union(*(calling_functions(p, "CTOperator")
                            for p in sorted(PACKAGE.glob("*.py"))))
    assert callers == {"config.build_operator"}, sorted(callers)


def test_one_sampler_function_runs_adam_step():
    # nerd-a, sitcom and nerd-p share one Adam inner loop.
    callers = calling_functions(PACKAGE / "samplers.py", "adam_step")
    assert len(callers) == 1, sorted(callers)


def test_samplers_import_nothing_from_priors():
    # Samplers reach the prior only through its denoise and denoise_and_vjp.
    offenders = [ast.unparse(node) for node in nodes(PACKAGE / "samplers.py")
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and "priors" in ast.unparse(node)]
    assert not offenders, offenders


def imported_modules(path):
    """Absolute module names a file imports, `from a import b` giving `a.b`."""
    names = set()
    for node in nodes(path):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_no_module_imports_scipy_sparse():
    # radon.py loads scipy's compiled sparsetools extension directly;
    # importing scipy.sparse would pull in ~300 modules and ~20 MB.
    offenders = {p.name: sorted(name for name in imported_modules(p)
                                if name == "scipy.sparse"
                                or name.startswith("scipy.sparse."))
                 for p in sorted(PACKAGE.glob("*.py"))}
    offenders = {name: names for name, names in offenders.items() if names}
    assert not offenders, f"scipy.sparse imports: {offenders}"
    namers = sorted(p.name for p in PACKAGE.glob("*.py")
                    if "_sparsetools" in p.read_text())
    assert namers == ["radon.py"], namers


def fresh_output(code):
    """Stripped stdout of `code` run in a new interpreter that imports src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return done.stdout.strip()


def test_import_loads_no_scipy_sparse():
    code = ("import sys, nerdct; print(sorted(m for m in sys.modules if m in "
            "('scipy.sparse', 'numpy.f2py', 'numpy.testing')))")
    assert fresh_output(code) == "[]"


def test_scipy_sparse_imported_after_nerdct_is_whole():
    # nerdct's private copy of the extension must not stand in for scipy's.
    code = ("import nerdct, numpy as np, scipy.sparse as sp; "
            "m = sp.csr_array(np.array([[1.0, 2.0], [0.0, 3.0]])); "
            "print(sp._sparsetools.__name__, (m @ np.ones(2)).tolist(), "
            "m.T.tocsr().toarray().tolist())")
    assert fresh_output(code) == (
        "scipy.sparse._sparsetools [3.0, 3.0] [[1.0, 0.0], [2.0, 3.0]]")


def readme_config_keys():
    """Key names in README's *Config keys* table: its backticked words outside
    parentheses, so value notes such as (`gmm`/`conv`) are left out."""
    section = (ROOT / "README.md").read_text().split("### Config keys", 1)[1]
    keys = set()
    for line in section.split("\n#", 1)[0].splitlines():
        cells = line.split("|")
        if len(cells) == 4:
            text, count = cells[2], 1
            while count:  # innermost parentheses first
                text, count = re.subn(r"\([^()]*\)", "", text)
            keys.update(re.findall(r"`(\w+)`", text))
    return keys


def test_readme_config_keys_match_run_config():
    assert readme_config_keys() == {f.name for f in fields(RunConfig)}
