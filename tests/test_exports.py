"""Package-wide lints: every public export has a caller in another module of
`src/` or in `benchmarks/` (a caller in `tests/` or in the export's own
module does not count; value types a public call returns or takes are
allowlisted), no `assert` statement is in `src/` (invariants raise typed
errors, which still fire under `python -O`), only `volume.py` reads
or writes raw arrays and JSON or turns a record into JSON text (so recorded
fields are compared by one rule), two functions run
`cg_solve`, one sampler function `adam_step` and one function constructs
`CTOperator` (`config.build_operator`), no class but `DenoiserPrior` defines
`denoise` or `input_vjp` (a prior implements only `denoise_and_vjp`),
every defaulted parameter of a public function or method in `src/` is
passed, other than as its default's own expression, by some call in `src/`
or `benchmarks/` (a default nothing overrides is a constant, not a
parameter) and left out by some call (a default every
caller overrides is not a default), `samplers.py` imports nothing from
`priors.py` (so no sampler path depends on which prior it holds), no module
imports `scipy.sparse`, only `radon.py` names its compiled `_sparsetools`,
the sparse products `csr_matvecs` and `csc_matvecs` run only in
`CTOperator.forward_columns` and `adjoint_columns` (one kernel path for
both layouts), every public method of a public class in `src/` is read as
an attribute in `src/` or `benchmarks/` (no method that only tests call),
no loop of `Sampler._dds_estimate` and no function nested in it copies or
reshapes (`dds` keeps its iterates in the projector's column layout for the
whole step), README's config key table lists exactly the fields of
`RunConfig`, README's minimal `run.cfg` builds a valid `RunConfig`, and
README's library example runs as written."""

import ast
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from nerdct.config import RunConfig, build_run_config, parse_config_text

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nerdct"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}
FORMAT_CALLS = {"tofile", "fromfile", "json.dump", "json.dumps", "json.load"}


def nodes(path):
    return ast.walk(ast.parse(path.read_text()))


def exports():
    """{exported name: the package module that defines it}."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module
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


# Exports that no other module or benchmark uses, and why.
UNCALLED_EXPORTS = {
    # Returned or taken by a public call.
    "RunConfig", "Report", "ViewStats", "TraceRecord", "CGResult", "Ellipsoid",
    "SHEPP_LOGAN_ELLIPSOIDS", "ProjectionGeometry",
}


def test_every_export_is_used_outside_its_own_tests():
    """Callers are the files of `src/` other than the export's own module,
    and of `benchmarks/`; not of `tests/`."""
    sources = {p.stem: used_names(p) for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    benchmarks = set().union(*(used_names(p)
                               for p in sorted((ROOT / "benchmarks").glob("*.py"))))
    exported = exports()
    assert UNCALLED_EXPORTS <= exported.keys()
    unused = sorted(
        name for name, module in exported.items()
        if name not in UNCALLED_EXPORTS and name not in benchmarks
        and not any(name in used for stem, used in sources.items() if stem != module))
    assert not unused, f"exported but used only by their own module and tests: {unused}"


def test_no_assert_statement_in_src():
    offenders = [f"{p.name}:{node.lineno}" for p in sorted(PACKAGE.glob("*.py"))
                 for node in nodes(p) if isinstance(node, ast.Assert)]
    assert not offenders, offenders


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


# Defaulted parameters that no call in src/ or benchmarks/ passes, and why.
UNPASSED_DEFAULTS = {
    # The console entry point reads sys.argv; tests pass argv to drive it.
    "cli.main.argv",
    # The analytic phantom tests project ellipsoid sets other than the
    # default one.
    "phantom.shepp_logan_3d.ellipsoids",
}


def defaulted_parameters(path):
    """(label, call name, position, keyword, default) of each defaulted
    parameter of a public module-level function or method, or of a public
    class's `__init__`, whose calls name the class.  The position counts
    the arguments a call writes, so a method's `self` or `cls` is not
    counted; keyword-only parameters have position None.  The default is
    its expression's node."""

    def params(fn, label, call_name, bound):
        args = fn.args
        positional = args.posonlyargs + args.args
        for arg, default in zip(positional[len(positional) - len(args.defaults):],
                                args.defaults):
            yield (f"{label}.{arg.arg}", call_name,
                   positional.index(arg) - bound, arg.arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{label}.{arg.arg}", call_name, None, arg.arg, default

    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from params(node, f"{path.stem}.{node.name}", node.name, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            label = f"{path.stem}.{node.name}"
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    yield from params(item, label, node.name, 1)
                elif not item.name.startswith("_"):
                    yield from params(item, f"{label}.{item.name}", item.name, 1)


def passes(call, position, keyword):
    """Whether `call` passes the parameter; `*args` or `**kwargs` may."""
    return (any(k.arg in (keyword, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (position is not None and len(call.args) > position))


def overrides(call, position, keyword, default):
    """Whether `call` passes the parameter something other than the
    expression of its own default."""
    given = [k.value for k in call.keywords if k.arg == keyword]
    if position is not None and len(call.args) > position:
        given.append(call.args[position])
    return passes(call, position, keyword) and not any(
        ast.dump(value) == ast.dump(default) for value in given)


def defaults_and_calls():
    """The defaulted parameters of `src/`, and {call name: calls} in `src/`
    and `benchmarks/`."""
    sources = sorted(PACKAGE.glob("*.py"))
    calls = {}
    for path in sources + sorted((ROOT / "benchmarks").glob("*.py")):
        for node in nodes(path):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return [param for p in sources for param in defaulted_parameters(p)], calls


def test_every_defaulted_parameter_is_passed_by_a_caller():
    # A call that passes the default's own expression overrides nothing.
    defaulted, calls = defaults_and_calls()
    assert UNPASSED_DEFAULTS <= {label for label, *_ in defaulted}
    unpassed = sorted(
        label for label, name, position, keyword, default in defaulted
        if label not in UNPASSED_DEFAULTS
        and not any(overrides(c, position, keyword, default)
                    for c in calls.get(name, [])))
    assert not unpassed, f"defaults that no caller overrides: {unpassed}"


# Defaulted parameters that every call in src/ and benchmarks/ passes, and why.
ALWAYS_PASSED_DEFAULTS = {
    # A library run may have no ground truth; the CLI passes None for a
    # phantom of another shape, so every call states whether it has one.
    "samplers.Sampler.ground_truth",
}


def test_every_defaulted_parameter_is_left_out_by_a_caller():
    # The mirror of the lint above, which alone judges a name no call uses.
    defaulted, calls = defaults_and_calls()
    assert ALWAYS_PASSED_DEFAULTS <= {label for label, *_ in defaulted}
    always = {label for label, name, position, keyword, _ in defaulted
              if name in calls and all(passes(c, position, keyword) for c in calls[name])}
    stale = sorted(ALWAYS_PASSED_DEFAULTS - always)
    assert not stale, f"allowlisted as always passed, but some call leaves out: {stale}"
    overridden = sorted(always - ALWAYS_PASSED_DEFAULTS)
    assert not overridden, f"defaults that every caller overrides: {overridden}"


def test_two_functions_run_cg_solve():
    # Every CG solve in the samplers is one of the two normal-equation
    # solves: dds's x-update and nerd-p's w block.
    callers = set().union(*(calling_functions(p, "cg_solve")
                            for p in sorted(PACKAGE.glob("*.py"))))
    assert callers == {"samplers._dds_estimate", "samplers._primal_step"}, sorted(callers)


def test_one_function_runs_each_sparse_product():
    # forward and adjoint are volume-layout wrappers of the column products.
    for kernel, owner in (("csr_matvecs", "radon.forward_columns"),
                          ("csc_matvecs", "radon.adjoint_columns")):
        callers = set().union(*(calling_functions(p, kernel)
                                for p in sorted(PACKAGE.glob("*.py"))))
        assert callers == {owner}, (kernel, sorted(callers))


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


# Public methods that nothing in src/ or benchmarks/ reads, and why.
UNREAD_METHODS = {
    # The benchmark tracer wraps it by name, as a string; it goes with the
    # tracer's change to the fused call (ROADMAP item 3).
    "priors.DenoiserPrior.input_vjp",
}


def test_every_public_method_is_read_outside_tests():
    sources = sorted(PACKAGE.glob("*.py"))
    read = {node.attr for p in sources + sorted((ROOT / "benchmarks").glob("*.py"))
            for node in nodes(p) if isinstance(node, ast.Attribute)}
    methods = {f"{p.stem}.{cls.name}.{item.name}": item.name
               for p in sources for cls in ast.parse(p.read_text()).body
               if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
               for item in cls.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not item.name.startswith("_")}
    unread = {label for label, name in methods.items() if name not in read}
    stale = sorted(UNREAD_METHODS - unread)
    assert not stale, f"allowlisted as unread, but read or gone: {stale}"
    offenders = sorted(unread - UNREAD_METHODS)
    assert not offenders, f"public methods that only tests call: {offenders}"


COPY_CALLS = {"ascontiguousarray", "copy", "reshape"}


def test_dds_step_makes_no_layout_copy_per_iteration():
    # x, z and w stay (nz, ny*nx) transposes of column arrays, so only the
    # denoised start and the returned volume change layout.  A nested def
    # is the CG operator, which runs once per CG step.
    tree = ast.parse((PACKAGE / "samplers.py").read_text())
    sampler = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "Sampler")
    estimate = next(item for item in sampler.body
                    if isinstance(item, ast.FunctionDef) and item.name == "_dds_estimate")
    repeated = [node for node in ast.walk(estimate) if node is not estimate and isinstance(
        node, (ast.For, ast.While, ast.FunctionDef))]
    assert repeated, "_dds_estimate has no loop"
    offenders = sorted({
        f"line {call.lineno}: {ast.unparse(call.func)}"
        for node in repeated for call in ast.walk(node)
        if isinstance(call, ast.Call) and COPY_CALLS & {
            getattr(call.func, "id", None), getattr(call.func, "attr", None)}})
    assert not offenders, f"copies inside _dds_estimate's loops: {offenders}"


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


def test_readme_run_cfg_example_builds():
    # Every key it sets must still exist and pass validation.
    section = (ROOT / "README.md").read_text().split("A minimal `run.cfg`:", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    values = parse_config_text(block)
    assert "method" in values and "volume_path" in values, sorted(values)
    build_run_config(values, {})


def test_readme_library_example_runs():
    # Run verbatim, with warnings as errors, in a new interpreter.
    section = (ROOT / "README.md").read_text().split("## Library usage", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = fresh_output("import warnings\nwarnings.simplefilter('error')\n" + block)
    assert math.isfinite(float(out)), out
