"""Module layering of the package, read from its source with `ast`.

`spectral` is the one module that calls an eigensolver or splits a matrix
into sectors, and it imports no other package module, so every other module
can import it.  Package imports sit at module level, where an import cycle
shows; none hides inside a function.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "agsplab"
SOLVERS = {"eigh", "eigvalsh", "eigsh"}
# Kernels that only `spectral` defines (module level).
SPECTRAL_KERNELS = {"parity_sectors", "top_singular_value", "flip_sum_norm", "operator_schmidt_rank", "numerical_rank"}

MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def imported_modules(node: ast.AST) -> list[str]:
    """Package modules named by one import statement: `from .x import`, `from . import x`, or the `agsplab.` forms."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names if alias.name.startswith("agsplab.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    path = (node.module or "").split(".")
    if node.level == 0:
        if path[0] != "agsplab":
            return []
        path = path[1:]
    return path[:1] if path and path[0] else [alias.name for alias in node.names]


def package_imports(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    return [(name, node) for node in ast.walk(tree) for name in imported_modules(node)]


def test_modules_are_found():
    assert {"spectral", "hamiltonian", "agsp", "entanglement", "truncation", "effective"} <= set(MODULES)


def test_package_imports_are_module_level():
    nested = [
        f"{module}:{node.lineno}"
        for module, tree in MODULES.items()
        for name, node in package_imports(tree)
        if node not in tree.body
    ]
    assert nested == []


def test_no_import_cycle():
    graph = {module: {name for name, _ in package_imports(tree) if name in MODULES} for module, tree in MODULES.items()}
    done, path = set(), []

    def visit(module):
        if module in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(module) :] + [module]))
        if module in done:
            return
        path.append(module)
        for target in sorted(graph[module]):
            visit(target)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_spectral_imports_no_package_module():
    assert package_imports(MODULES["spectral"]) == []


def test_entanglement_does_not_import_truncation():
    assert "truncation" not in {name for name, _ in package_imports(MODULES["entanglement"])}


def test_eigensolvers_are_called_in_spectral_only():
    calls = [
        f"{module}:{node.lineno}"
        for module, tree in MODULES.items()
        if module != "spectral"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) in SOLVERS or getattr(node.func, "id", None) in SOLVERS)
    ]
    assert calls == []


def test_sector_and_norm_kernels_are_defined_in_spectral_only():
    defined = {
        f"{module}.{node.name}"
        for module, tree in MODULES.items()
        if module != "spectral"
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in SPECTRAL_KERNELS
    }
    assert defined == set()
    spectral = {node.name for node in MODULES["spectral"].body if isinstance(node, ast.FunctionDef)}
    assert SPECTRAL_KERNELS <= spectral
