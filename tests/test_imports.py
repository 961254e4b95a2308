"""Package structure: the modules of ``feigenbaum`` import each other
without a cycle, so each one loads after everything it uses."""

import ast
import pathlib

import feigenbaum as fb

PACKAGE = pathlib.Path(fb.__file__).parent


def _imported_modules(path):
    """Stems of the package modules the file imports ("__init__" for the
    package itself), wherever the import sits: function-level imports
    count too, because they only postpone a cycle to the first call."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "feigenbaum":
                    continue
                module = parts[1] if len(parts) > 1 else None
            else:
                module = node.module.split(".")[0] if node.module else None
            if module is not None:
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
