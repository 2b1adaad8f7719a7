"""Source checks on the package itself."""

import ast
from pathlib import Path

import bianchi

# argument preconditions a caller can break; python -O may strip these, every
# other invariant raises (InvariantError for the load-bearing ones)
ASSERT_ALLOWED: set[str] = set()

# the generator layout is one formula at every weight (SymbolSpace.generator
# and symbol_vector), so a comparison on the weight is a decision about the
# space, named here with its reason
WEIGHT_BRANCH_ALLOWED = {
    # argument checks and the choice of build (the two differ in stage 1 and
    # in how they write word rows; the quotient map and the Hecke action
    # read one form at every weight)
    "symbols.SymbolSpace.__init__",
    # the expansion is weight 2 only
    "fourier.functional_slash",
    "fourier.fourier_coefficients",
}

# the process-lifetime caches: each holds its keys and results until exit, so
# a new one must be named here
UNBOUNDED_CACHES_ALLOWED = {
    "symbols._symbol_space",
    "quadints._omega_roots_mod",
    "quadints.primes_above",
    "quadints.hnf_module",
    "quadints.residues_mod",
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


def weight_compares(tree, prefix):
    # (qualified name of the innermost enclosing def, line) per comparison
    # that reads a weight name or a .weight attribute
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}")
            else:
                if isinstance(child, ast.Compare) and any(
                        _named(n, "weight") for n in ast.walk(child)):
                    out.append((scope, child.lineno))
                walk(child, scope)

    walk(tree, prefix)
    return out


def _named(node, name):
    # node is the bare name or a module.name attribute
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def unbounded_caches(tree, prefix):
    # qualified name per lru_cache(maxsize=None) call (a decorator's is the
    # function it wraps) and per functools.cache decorator
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
                out.extend(inner for dec in child.decorator_list if _named(dec, "cache"))
                walk(child, inner)
            else:
                if isinstance(child, ast.Call) and _named(child.func, "lru_cache"):
                    sizes = child.args[:1] + [k.value for k in child.keywords
                                              if k.arg == "maxsize"]
                    if any(isinstance(a, ast.Constant) and a.value is None for a in sizes):
                        out.append(scope)
                walk(child, scope)

    walk(tree, prefix)
    return out


def calls_by_scope(tree, prefix, name):
    # (qualified name of the innermost enclosing def, line) per call of the
    # bare name or of a module.name attribute
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}")
            else:
                if isinstance(child, ast.Call) and _named(child.func, name):
                    out.append((scope, child.lineno))
                walk(child, scope)

    walk(tree, prefix)
    return out


def module_scope_imports(tree, package):
    # line of each import of package or one of its submodules that runs when
    # the module is imported: anywhere but inside a function body
    out = []

    def walk(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            if any(n == package or n.startswith(package + ".") for n in names):
                out.append(child.lineno)
            walk(child)

    walk(tree)
    return out


def package_trees():
    for path in sorted(Path(bianchi.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def test_no_unbounded_cache_outside_the_allowlist():
    found = [name for stem, tree in package_trees() for name in unbounded_caches(tree, stem)]
    assert sorted(found) == sorted(UNBOUNDED_CACHES_ALLOWED), \
        "a new lru_cache(maxsize=None) keeps its entries for the life of the process"


def test_unbounded_cache_scan_sees_every_form():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def a(x): ...\n"
        "@functools.lru_cache(None)\n"
        "def b(x): ...\n"
        "@cache\n"
        "def c(x): ...\n"
        "@lru_cache(maxsize=64)\n"
        "def bounded(x): ...\n"
        "class K:\n"
        "    @functools.cache\n"
        "    def d(self): ...\n"
        "e = lru_cache(maxsize=None)(len)\n")
    assert unbounded_caches(tree, "m") == ["m.a", "m.b", "m.c", "m.K.d", "m"]


def test_no_assert_outside_the_allowlist():
    found = []
    for stem, tree in package_trees():
        found += asserts_by_scope(tree, stem)
    stray = [f"{scope} (line {line})" for scope, line in found if scope not in ASSERT_ALLOWED]
    assert stray == [], "use InvariantError or ValueError, python -O strips assert"
    # every allowlisted precondition is still found: the scan sees methods
    # and the list carries no stale names
    assert {scope for scope, _ in found} == ASSERT_ALLOWED



def test_no_weight_branch_outside_the_allowlist():
    found = []
    for stem, tree in package_trees():
        found += weight_compares(tree, stem)
    stray = [f"{scope} (line {line})" for scope, line in found
             if scope not in WEIGHT_BRANCH_ALLOWED]
    assert stray == [], "decode generators with SymbolSpace.generator, at every weight"
    assert {scope for scope, _ in found} == WEIGHT_BRANCH_ALLOWED


def test_weight_branch_scan_sees_every_form():
    tree = ast.parse(
        "if weight == 2: pass\n"
        "def f(space, weight):\n"
        "    wt2 = space.weight == 2\n"
        "    assert 2 < self.weight <= 6\n"
        "    return [g for g in gens if weight != 2]\n"
        "class K:\n"
        "    def g(self, weight):\n"
        "        deg = self.weight - 2\n"
        "        if deg == 0 or weights == 2 or space.weights < 2: pass\n"
        "        return weight % 2 and (lambda: 4 > max(weight, 2))()\n")
    assert weight_compares(tree, "m") == [("m", 1), ("m.f", 3), ("m.f", 4), ("m.f", 5),
                                          ("m.K.g", 10)]


def test_quotient_map_built_only_through_its_range_check():
    # QuotientMap.build checks that no image can leave int64; a map made any
    # other way would skip that check
    found = [call for stem, tree in package_trees()
             for call in calls_by_scope(tree, stem, "QuotientMap")]
    assert {scope for scope, _ in found} == {"symbols.QuotientMap.build"}, found


def test_call_scan_sees_every_form():
    tree = ast.parse(
        "QuotientMap(1)\n"
        "def f():\n"
        "    return symbols.QuotientMap(2), [QuotientMap.build(3)]\n"
        "class K:\n"
        "    def g(self):\n"
        "        return (lambda: QuotientMapX(4) or QuotientMap(5))()\n")
    assert calls_by_scope(tree, "m", "QuotientMap") == [("m", 1), ("m.f", 3), ("m.K.g", 6)]


def test_no_module_scope_scipy_import():
    # scipy.special is most of the import time of bianchi.cli; only the
    # Bessel factors need it, and they import it on first use
    found = [f"{stem} (line {line})" for stem, tree in package_trees()
             for line in module_scope_imports(tree, "scipy")]
    assert found == [], "import scipy inside the function that needs it"


def test_module_scope_import_scan_sees_both_forms():
    tree = ast.parse(
        "import scipy.special\n"
        "from scipy.special import k0\n"
        "import scipyx, numpy\n"
        "from . import scipy\n"
        "class K:\n"
        "    from scipy import special\n"
        "def f():\n"
        "    import scipy\n"
        "    from scipy.special import k1\n"
        "if True:\n"
        "    import numpy, scipy as sp\n")
    assert module_scope_imports(tree, "scipy") == [1, 2, 6, 11]
