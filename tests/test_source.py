"""Source checks on the package itself."""

import ast
from pathlib import Path

import bianchi

# argument preconditions a caller can break; python -O may strip these, every
# other invariant raises (InvariantError for the load-bearing ones)
ASSERT_ALLOWED = {
    "boundary.cusp_label",
    "boundary.true_boundary_matrix",
    "linalg.SparseMat.__mul__",
    "linalg.SparseMat.__add__",
    "linalg.SparseMat.__sub__",
    "linalg.charpoly",
    "symbols.SymbolSpace.poly_symbol_vector",
}


def asserts_by_scope(tree, prefix):
    # (qualified name of the innermost enclosing def, line) per assert
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}")
            else:
                if isinstance(child, ast.Assert):
                    out.append((scope, child.lineno))
                walk(child, scope)

    walk(tree, prefix)
    return out


def test_no_assert_outside_the_allowlist():
    found = []
    for path in sorted(Path(bianchi.__file__).parent.glob("*.py")):
        found += asserts_by_scope(ast.parse(path.read_text(), str(path)), path.stem)
    stray = [f"{scope} (line {line})" for scope, line in found if scope not in ASSERT_ALLOWED]
    assert stray == [], "use InvariantError or ValueError, python -O strips assert"
    # every allowlisted precondition is still found: the scan sees methods
    # and the list carries no stale names
    assert {scope for scope, _ in found} == ASSERT_ALLOWED

