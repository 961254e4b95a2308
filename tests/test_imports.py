"""Package structure: the modules of ``feigenbaum`` import each other
without a cycle, so each one loads after everything it uses, and none
imports a name it never uses; every public name has a reader outside
the unit tests; every layer the benchmark traces exists; importing the
package and building a grid do no more work than they need."""

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import feigenbaum as fb

PACKAGE = pathlib.Path(fb.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _package_module(node):
    """Stem of the package module an ImportFrom names ("__init__" for the
    package itself), or None outside the package."""
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != "feigenbaum":
            return None
        return parts[1] if len(parts) > 1 else "__init__"
    return node.module.split(".")[0] if node.module else "__init__"


def _imported_modules(path):
    """Stems of the package modules the file imports ("__init__" for the
    package itself), wherever the import sits: function-level imports
    count too, because they only postpone a cycle to the first call."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            module = _package_module(node)
            if module is None:
                continue
            if module != "__init__":
                out.add(module)
                continue
            for alias in node.names:
                is_module = (PACKAGE / (alias.name + ".py")).exists()
                out.add(alias.name if is_module else "__init__")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "feigenbaum":
                    out.add(parts[1] if len(parts) > 1 else "__init__")
    return out


def test_package_import_graph_is_acyclic():
    graph = {path.stem: _imported_modules(path) for path in PACKAGE.glob("*.py")}
    state = {}  # module -> "open" while on the search path, "done" after

    def visit(module, trail):
        state[module] = "open"
        for dep in sorted(graph.get(module, ())):
            if state.get(dep) == "open":
                cycle = trail[trail.index(dep):] + [dep]
                raise AssertionError("import cycle: " + " -> ".join(cycle))
            if dep not in state:
                visit(dep, trail + [dep])
        state[module] = "done"

    for module in sorted(graph):
        if module not in state:
            visit(module, [module])


def test_no_module_imports_an_unused_name():
    """Every name a module imports is read somewhere in it.  The package's
    ``__init__`` is exempt: its imports are the public namespace."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in imported.items() if name not in read]
    assert not unused, "unused imports: " + ", ".join(unused)


def _exports():
    """Public name of the package -> the module ``__init__`` imports it from."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name: _package_module(node) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _reads(path, exports):
    """(module, name) pairs of package names the file reads: names it
    imports from a package module, attributes it reads off a package
    module or off the package (whose names resolve through ``exports``),
    and, in a package module, its own top-level names loaded outside
    their own definition.  A local variable that shares a top-level
    name's spelling in its module still counts as a read of it."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}  # local name -> the package module it stands for
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_module(node) is not None:
            module = _package_module(node)
            for alias in node.names:
                if module == "__init__" and (PACKAGE / (alias.name + ".py")).exists():
                    bound[alias.asname or alias.name] = alias.name
                elif module == "__init__":
                    out.add((exports.get(alias.name), alias.name))
                else:
                    out.add((module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "feigenbaum" and (alias.asname or len(parts) == 1):
                    bound[alias.asname or "feigenbaum"] = \
                        parts[1] if len(parts) > 1 else "__init__"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            module = bound[node.value.id]
            out.add((exports.get(node.attr) if module == "__init__" else module, node.attr))
    if path.parent == PACKAGE:
        for top in tree.body:
            own = getattr(top, "name", None)
            out.update((path.stem, node.id) for node in ast.walk(top)
                       if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                       and node.id != own)
    return out


def test_every_public_name_has_a_reader_besides_the_unit_tests():
    """Each public top-level function and class of a package module is
    read by a package module (``__init__``, whose imports are the public
    namespace, does not count), by the benchmark under ``perfbench/``,
    or by the acceptance tests and their fixtures."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
    readers = modules + sorted((ROOT / "perfbench").glob("*.py")) + [
        ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"]
    exports = _exports()
    read = set().union(*(_reads(path, exports) for path in readers))
    unread = ["%s.%s" % (path.stem, node.name)
              for path in modules for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and (path.stem, node.name) not in read]
    assert not unread, "public names no reader outside the unit tests reads: " + \
        ", ".join(unread)


def test_every_traced_target_resolves():
    """Each (module, attribute path) that ``perfbench/tracing.py`` wraps
    names an attribute of the package, so a rename cannot break
    ``perfbench/run.py --trace 1``."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for _, module, path, _ in tracing.TARGETS:
        owner = importlib.import_module("feigenbaum." + module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append("%s.%s" % (module, path))
    assert not missing, "traced targets missing from the package: " + ", ".join(missing)


def _fresh_interpreter(code):
    """Standard output of ``code`` run by a new interpreter that imports
    the package from this tree."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    return proc.stdout.split()


def test_import_loads_no_array_or_symbolic_package():
    loaded = _fresh_interpreter(
        "import sys, feigenbaum\n"
        "print(*[m for m in ('numpy', 'scipy', 'sympy') if m in sys.modules])")
    assert loaded == []


def test_cold_grid_build_fills_only_the_node_tables():
    filled = _fresh_interpreter(
        "import sys, feigenbaum as fb\n"
        "fb.build_basis(fb.BasisSpec(fb.BasisKind.CHEB_GRID, 16), fb.PrecisionCtx(64))\n"
        "caches = {id(f): f for name, mod in list(sys.modules.items())\n"
        "          if name.startswith('feigenbaum') for f in vars(mod).values()\n"
        "          if hasattr(f, 'cache_info')}\n"
        "print(*sorted(f.__module__ + '.' + f.__qualname__ for f in caches.values()\n"
        "              if f.cache_info().currsize))")
    assert filled == ["feigenbaum.chebyshev._tables"]


def test_cold_coefficient_build_fills_only_the_node_tables_and_the_basis_cache():
    filled = _fresh_interpreter(
        "import sys, feigenbaum as fb\n"
        "spec = fb.BasisSpec(fb.BasisKind.RATIONAL_NODE_MONOMIAL, 15, ((0, 1), (1, 0)))\n"
        "fb.build_basis(spec, fb.PrecisionCtx(64))\n"
        "caches = {id(f): f for name, mod in list(sys.modules.items())\n"
        "          if name.startswith('feigenbaum') for f in vars(mod).values()\n"
        "          if hasattr(f, 'cache_info')}\n"
        "print(*sorted(f.__module__ + '.' + f.__qualname__ for f in caches.values()\n"
        "              if f.cache_info().currsize))")
    assert filled == ["feigenbaum.bases._coefficient_basis", "feigenbaum.chebyshev._tables"]
