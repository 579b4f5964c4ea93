"""Layering of the package, read from the source with ``ast``.

Each concept of the construction has one owner module.  ``OWNERS`` holds
one row per rule, (name, kind, owner), checked on every module but the
owner.  A "mention" rule forbids another module to name ``name`` at all:
to import it, or to read it bare, as an attribute or under the alias of
its import.  A "call" rule forbids another module to call ``name``, by
any of those spellings, but lets it pass ``name`` on, as ``spectral`` and
``verify`` pass table builders to ``ladder``'s readers.  ``CALL_SITES``
pins each call of a few names to the scope that makes it.  Each rule is
checked to bite: a call of its name appended to the real source of each
module it covers must be the one line that breaks it.

The other rules have finders of their own.  ``verify`` holds every check
and no production module reads it, but for one commented line of
``spectral`` that re-exports ``reconstruct_operators_check`` under the
name the benchmark binds (``perfbench/layers.py``); it builds no second
model.  ``ladder._eigenvalues`` alone sums K_I lambda_I over a
multi-index.  No production module defines a top-level function or class
that only ``verify`` reads.  In ``cli`` only ``main`` prints, opens or
writes a file, and each subcommand takes its config alone.  No module
imports scipy, which is a test dependency only.
"""

import ast
import pathlib
from collections import Counter

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ou_spectral"

MODULES = tuple(sorted(path.stem for path in PACKAGE.glob("*.py")))

PRODUCTION = (
    "spectral",
    "ladder",
    "gaussian",
    "mpoly",
    "monomials",
    "linalg",
    "kernels",
    "sde_oracle",
    "hermite_form",
)


def _source(module):
    return (PACKAGE / f"{module}.py").read_text()


def _imports(module):
    """(package module imported, names, source line) for each import of
    ``module`` that reads another module of the package."""
    source = _source(module)
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ou_spectral."):
                    yield alias.name.split(".")[1], (), lines[node.lineno - 1]
        elif isinstance(node, ast.ImportFrom):
            names = tuple(alias.name for alias in node.names)
            name = node.module or ""
            if node.level == 0 and not name.startswith("ou_spectral"):
                continue
            if name in ("", "ou_spectral"):
                # from . import verify
                for sub in names:
                    yield sub, (), lines[node.lineno - 1]
            else:
                yield name.split(".")[-1], names, lines[node.lineno - 1]


def test_reader_sees_relative_and_absolute_imports():
    found = {target for target, _, _ in _imports("spectral")}
    assert {"linalg", "ladder", "mpoly"} <= found


def test_verify_imports_nothing_from_spectral():
    assert [line for target, _, line in _imports("verify") if target == "spectral"] == []


@pytest.mark.parametrize("module", PRODUCTION)
def test_no_production_module_imports_verify(module):
    bad = []
    for target, names, line in _imports(module):
        if target != "verify":
            continue
        binding = module == "spectral" and names == ("reconstruct_operators_check",)
        if not (binding and "#" in line):
            bad.append(line)
    assert bad == []


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _resolver(tree):
    """``_name`` of a node, with a name bound by ``import ... as`` read as
    the name it imports."""
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname
    }

    def named(node):
        name = _name(node)
        return aliases.get(name, name)

    return named


def _mentions(source, name):
    """Source lines that name ``name``: import it, or read it bare, as an
    attribute or under the alias of its import."""
    tree = ast.parse(source)
    lines = source.splitlines()
    named = _resolver(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            found = node.name == name
        elif isinstance(node, (ast.Name, ast.Attribute)):
            found = named(node) == name
        else:
            continue
        if found:
            yield lines[node.lineno - 1].strip()


def _scoped_calls(source, name):
    """(dotted name of the enclosing classes and functions, source line) of
    each call of a function named ``name``, bare, as an attribute or under
    the alias of its import."""
    tree = ast.parse(source)
    lines = source.splitlines()
    named = _resolver(tree)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and named(child.func) == name:
                yield ".".join(scope), lines[child.lineno - 1].strip()
            yield from visit(child, scope)

    yield from visit(tree, ())


def test_prune_call_finder_sees_scopes_and_spellings():
    source = """
x = prune(c, eps)
class MPoly:
    def _store(self, c, eps):
        return f(mpoly.prune(c, eps))
def g(c):
    def h():
        return prune(c, 0.0)
    return pruned(c)
"""
    assert list(_scoped_calls(source, "prune")) == [
        ("", "x = prune(c, eps)"),
        ("MPoly._store", "return f(mpoly.prune(c, eps))"),
        ("g.h", "return prune(c, 0.0)"),
    ]


def test_cholesky_call_finder_sees_scopes_and_spellings():
    source = """
from numpy.linalg import cholesky as chol
L = np.linalg.cholesky(S)
def _spd_factor(S, name):
    return np.linalg.cholesky(S)
class GaussianDensity:
    def __post_init__(self):
        L = chol(self.cov)
        M = scipy.linalg.cholesky(B, lower=True)
LB = cholesky_factor(B)
"""
    assert list(_scoped_calls(source, "cholesky")) == [
        ("", "L = np.linalg.cholesky(S)"),
        ("_spd_factor", "return np.linalg.cholesky(S)"),
        ("GaussianDensity.__post_init__", "L = chol(self.cov)"),
        ("GaussianDensity.__post_init__", "M = scipy.linalg.cholesky(B, lower=True)"),
    ]


# One row per owner rule: (name, "mention" or "call", owner module).
OWNERS = (
    # The model cache: one entry per builder and arguments, read by one rule.
    ("_grown", "mention", "ladder"),
    ("_op_cache", "mention", "ladder"),
    # The slot layout of a gather table.
    ("_table", "mention", "ladder"),
    # The inputs of the one formula of each weight (``_drift``, ``_ladder_weights``).
    ("Sigma_inv", "mention", "ladder"),
    ("forward_drift", "mention", "ladder"),
    # The raising rule of the modes.
    ("parent", "mention", "monomials"),
    # The gather-table builders, which only ``ladder._table`` calls and keeps.
    ("operator_table", "call", "ladder"),
    ("_generator_table", "call", "ladder"),
    ("_ladder_table", "call", "ladder"),
    # The two eigenfunction tables, the ladder's and the Hermite closed
    # form's, which only ``ladder._grown`` calls, as its ``build``.
    ("_eigentable", "call", "ladder"),
    ("_hermite_table", "call", "ladder"),
    # 2^|K| K! (``mode_normalization``) and C(n + d, n) (``index_size``).
    ("factorial", "call", "monomials"),
    ("comb", "call", "monomials"),
    # One closed-form table per model and side (``_hermite_table``).
    ("hermite_products", "call", "hermite_form"),
)


def _breaches(source, module="", names=None):
    """Source lines of ``module``'s ``source`` that break the owner rule of
    a name in ``names``, of every name by default."""
    for name, kind, owner in OWNERS:
        if owner == module or (names is not None and name not in names):
            continue
        if kind == "mention":
            yield from _mentions(source, name)
        else:
            yield from (line for _, line in _scoped_calls(source, name))


def _owned(*names):
    """A test that each module but the owner of ``names`` breaks none of their rules."""
    (owner,) = {owner for name, _, owner in OWNERS if name in names}

    @pytest.mark.parametrize("module", [m for m in MODULES if m != owner])
    def test(module):
        assert list(_breaches(_source(module), module, names)) == []

    return test


test_only_ladder_names_grown = _owned("_grown")
test_only_ladder_reads_an_eigenfunction_table = _owned("_eigentable", "_hermite_table")
test_only_ladder_reads_the_model_cache = _owned("_op_cache")
test_only_ladder_reads_the_slots_of_a_table = _owned("_table")
test_only_ladder_reads_the_weight_inputs = _owned("Sigma_inv", "forward_drift")
test_only_monomials_reads_parent = _owned("parent")
test_only_ladder_builds_operator_tables = _owned(
    "operator_table", "_generator_table", "_ladder_table"
)
test_only_monomials_calls_factorial = _owned("factorial")
test_only_monomials_calls_comb = _owned("comb")
test_only_hermite_form_builds_a_hermite_closed_form = _owned("hermite_products")


# Spellings of owned names; each line's comment names the rule of each breach on it.
SPELLINGS = """
from .ladder import _grown as grown, _ladder_table as lt  # _grown
from ou_spectral.ladder import _table as slots  # _table
from .hermite_form import _hermite_table as closed
from .monomials import graded_index, parent  # parent
from .ladder import forward_drift as drift  # forward_drift
import math as m
from math import factorial as fact
a = operator_table(n, 3, D=D, B=B) + lt(model, op, I, 3)  # operator_table _ladder_table
b = ladder._generator_table(model, "forward", 3)  # _generator_table
c = grown(model, _ladder_table, ("raise_forward", 0), 3)  # _grown
d = _matrix(model, _ladder_table, args, 3) + _block(raw, "sim")
e = ladder._grown(model, _eigentable, ("forward",), 3)  # _grown
f = ladder._eigentable(model, "adjoint", 3) + closed(model, side, 2)  # _eigentable _hermite_table
g = _eigenfunctions(model, side, 3, hermite_form._hermite_table)
model._op_cache[key] = getattr(model, "_op_cache")  # _op_cache
src = ladder._table(model, build, args, 3) + slots  # _table _table
I, P = parent(K)  # parent
steps = list(map(monomials.parent, modes)) + idx.runs  # parent
N = lad.forward_drift(model) @ model.Sigma_inv + model.Sigma_inverse  # forward_drift Sigma_inv
Q = drift(model)  # forward_drift
h = math.factorial(k) * m.factorial(k) + fact(k)  # factorial factorial factorial
i = math.comb(n, k) + mpoly.hermite_products(V, 3)  # comb hermite_products
build = hermite_products
j = _grown, model._grown_count, "_grown"  # _grown
"""


def _spelled(*names):
    """Whether the rules of ``names`` break each line of ``SPELLINGS`` as
    often as its comment names one of them."""
    lines = [line.strip() for line in SPELLINGS.splitlines()]
    marked = Counter(
        line for line in lines for rule in line.partition("#")[2].split() if rule in names
    )
    return Counter(_breaches(SPELLINGS, names=names)) == marked


def test_mention_finder_sees_bare_attribute_and_aliased_names():
    assert _spelled("_grown")


def test_call_finder_sees_bare_and_attribute_calls():
    assert _spelled("factorial", "comb", "hermite_products")


def test_table_build_reader_sees_calls_and_cached_builds():
    # A builder passed to ``_grown`` breaks its rule; one passed to
    # ``_matrix``, and ``_block``, a helper of ``cli``, break none.
    assert _spelled("_grown", "operator_table", "_generator_table", "_ladder_table")


def test_eigentable_read_finder_sees_bare_attribute_and_imported_spellings():
    assert _spelled("_grown", "_eigentable", "_hermite_table")


def test_cache_reader_sees_reads_and_writes():
    assert _spelled("_op_cache")


def test_slot_read_finder_sees_imports_and_attributes():
    assert _spelled("_table")


def test_parent_read_finder_sees_imports_calls_and_references():
    assert _spelled("parent")


def test_mention_finder_sees_every_spelling_of_the_weight_inputs():
    assert _spelled("Sigma_inv", "forward_drift")


# The exact call sites, (module, dotted scope), one per call, of each
# name whose every caller is pinned.
CALL_SITES = {
    # One unit-free check and factoring of every SPD matrix: B, Sigma and
    # each covariance, which ``GaussianDensity`` factors once and keeps.
    "cholesky": [("linalg", "_spd_factor")],
    "_spd_factor": [
        ("gaussian", "GaussianDensity.__post_init__"),
        ("ladder", "OUModel.__post_init__"),
        ("linalg", "solve_lyapunov"),
    ],
    # ``MPoly._store``, the name's subject, was the last caller.
    "prune": [],
    # One reader per argument kind: the points of a grid, read by its two
    # entries, one point, read by the two one-point entries, and a Gaussian
    # density, read by every call that takes one, in ``gaussian``; a
    # polynomial, read by every call that takes a bare one, in ``mpoly``.
    "_points": [
        ("gaussian", "GaussianDensity.pdf_grid"),
        ("spectral", "evaluate_grid_complex"),
    ],
    "_point": [
        ("gaussian", "GaussianDensity.pdf"),
        ("spectral", "evaluate_complex"),
    ],
    "_density_for": [
        ("gaussian", "ForwardFunction.__post_init__"),
        ("gaussian", "expectation"),
        ("sde_oracle", "simulate"),
        ("spectral", "expand_gaussian"),
        ("spectral", "exact_gaussian_propagate"),
    ],
    "_poly_for": [
        ("gaussian", "ForwardFunction.__post_init__"),
        ("gaussian", "expectation"),
        ("gaussian", "inner_product"),
        ("ladder", "apply_adjoint"),
        ("ladder", "lower_adjoint"),
        ("ladder", "raise_adjoint"),
    ],
    # One whitening loop, read by the density of a grid and by grid
    # evaluation.
    "_whitened_blocks": [
        ("gaussian", "GaussianDensity.pdf_grid"),
        ("spectral", "_fill_grid"),
    ],
    # One reader of an order argument, in ``monomials``, for every public
    # call that takes one.
    "_max_order": [
        ("spectral", "expand_gaussian"),
        ("spectral", "solve_inhomogeneous"),
        ("verify", "biorthogonality_suite"),
        ("verify", "eigen_residual_suite"),
        ("verify", "hermite_suite"),
        ("verify", "ladder_suite"),
    ],
}


def _off_site(module, name, source):
    """Call sites of ``name`` in ``module``'s ``source`` beyond those
    pinned, one per extra call, and pinned sites that it lacks."""
    found = Counter((module, scope) for scope, _ in _scoped_calls(source, name))
    pinned = Counter(site for site in CALL_SITES[name] if site[0] == module)
    return sorted(((found - pinned) + (pinned - found)).elements())


def test_cov_factoring_finder_sees_every_spelling():
    # A second factoring through ``_spd_factor``, in a new scope or in a
    # pinned one, is as off-site as a bare ``cholesky``.
    source = """
L = np.linalg.cholesky(model.f0.cov)
def simulate(model, F0):
    L0 = _spd_factor(F0.cov, "cov")
    return linalg._spd_factor(model.B, "B")
class OUModel:
    def __post_init__(self):
        self.B_factor = _spd_factor(self.B, "B")
        L0 = _spd_factor(self.f0.cov, "cov")
"""
    assert _off_site("sde_oracle", "cholesky", source) == [("sde_oracle", "")]
    assert _off_site("ladder", "_spd_factor", source) == [
        ("ladder", "OUModel.__post_init__"), *[("ladder", "simulate")] * 2
    ]
    assert _off_site("ladder", "_spd_factor", "") == [("ladder", "OUModel.__post_init__")]


def test_only_spd_factor_calls_cholesky():
    assert [site for m in MODULES for site in _off_site(m, "cholesky", _source(m))] == []


@pytest.mark.parametrize("module", MODULES)
def test_only_gaussian_factors_a_covariance(module):
    assert _off_site(module, "_spd_factor", _source(module)) == []


@pytest.mark.parametrize("module", MODULES)
def test_only_mpoly_store_prunes(module):
    # No module defines, imports or calls ``prune``.
    source = _source(module)
    assert "prune" not in {getattr(node, "name", None) for node in ast.walk(ast.parse(source))}
    assert _off_site(module, "prune", source) == []


def test_points_are_checked_once_where_they_enter():
    assert [site for m in MODULES for site in _off_site(m, "_points", _source(m))] == []


def test_a_point_is_checked_once_where_it_enters():
    assert [site for m in MODULES for site in _off_site(m, "_point", _source(m))] == []


def test_a_grid_is_whitened_by_one_loop():
    assert [site for m in MODULES for site in _off_site(m, "_whitened_blocks", _source(m))] == []


def test_an_order_is_read_once_where_it_enters():
    assert [site for m in MODULES for site in _off_site(m, "_max_order", _source(m))] == []


def _asks(module, source, cls):
    """(module, dotted scope) of each ``isinstance`` call in ``source``
    whose line names ``cls``."""
    return [(module, scope) for scope, line in _scoped_calls(source, "isinstance") if cls in line]


def test_a_density_is_checked_once_where_it_enters():
    # ``_density_for`` is the one place that asks whether an argument is a
    # ``GaussianDensity``.
    assert [site for m in MODULES for site in _off_site(m, "_density_for", _source(m))] == []
    asks = [ask for m in MODULES for ask in _asks(m, _source(m), "GaussianDensity")]
    assert asks == [("gaussian", "_density_for")]


def test_a_polynomial_is_checked_once_where_it_enters():
    # No module but ``mpoly``, whose ``_poly_for`` reads every polynomial
    # argument, asks whether an argument is an ``MPoly``.
    assert [site for m in MODULES for site in _off_site(m, "_poly_for", _source(m))] == []
    assert [ask for m in MODULES if m != "mpoly" for ask in _asks(m, _source(m), "MPoly")] == []


@pytest.mark.parametrize("module", MODULES)
def test_kind_rules_find_an_ask_appended_to_each_module(module):
    # Neither kind rule can go vacuous: an ``isinstance`` of its class
    # appended to a module's real source is found in its scope.
    for cls in ("GaussianDensity", "MPoly"):
        source = _source(module) + f"\n\ndef _injected(x):\n    return isinstance(x, {cls})\n"
        assert _asks(module, source, cls)[-1] == (module, "_injected"), cls


@pytest.mark.parametrize("module", MODULES)
def test_every_rule_finds_a_call_appended_to_each_module(module):
    # No rule can go vacuous: a call of its name, appended to the real
    # source of each module but its owner, is the one line that breaks it.
    for name, _, owner in OWNERS:
        source = _source(module) + f"\n\ndef _injected(lib, x):\n    return lib.{name}(x)\n"
        if owner != module:
            assert list(_breaches(source, module, {name})) == [f"return lib.{name}(x)"], name
    for name in CALL_SITES:
        source = _source(module) + f"\n\ndef _injected(lib, x):\n    return lib.{name}(x)\n"
        assert _off_site(module, name, source) == [(module, "_injected")], name


def _scipy_imports(source):
    """Source lines of ``source`` that import scipy or a module of it."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            yield lines[node.lineno - 1].strip()


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_scipy(module):
    # numpy is the one run-time dependency; scipy is a test reference only.
    assert list(_scipy_imports(_source(module))) == []


SCIPY_SPELLINGS = (
    "import scipy",
    "import scipy.linalg as sl",
    "import numpy, scipy.sparse",
    "from scipy.linalg import expm",
    "from scipy import linalg",
)


@pytest.mark.parametrize("module", MODULES)
def test_scipy_rule_finds_an_import_appended_to_each_module(module):
    # The rule cannot go vacuous: each spelling of a scipy import, appended
    # to a module's real source, is the one line that breaks it, and a
    # module whose name only starts with "scipy" is not read as scipy.
    for spelling in SCIPY_SPELLINGS:
        source = _source(module) + f"\n\ndef _injected():\n    {spelling}\n"
        assert list(_scipy_imports(source)) == [spelling], spelling
    assert list(_scipy_imports("import scipyx\nfrom .scipy import y\n")) == []


def test_verify_builds_no_second_model():
    # The suites check the tables of the model they are given; the Hermite
    # suite maps them to canonical coordinates instead of rebuilding the
    # model there.
    source = _source("verify")
    assert [*_scoped_calls(source, "build_model"), *_scoped_calls(source, "to_canonical")] == []


def _eigenvalue_sums(source):
    """Names of the functions that may form the sum sum_I K_I lambda_I:
    each reads the drift eigenvalues (an attribute ``values`` of one
    ``eig``) together with rows of multi-indices (an attribute
    ``exponents`` or ``modes``), or zips the eigenvalues with something."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        values, rows, zipped = False, False, False
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                values |= sub.attr == "values" and _name(sub.value) == "eig"
                rows |= sub.attr in ("exponents", "modes")
            elif isinstance(sub, ast.Call) and _name(sub.func) == "zip":
                zipped |= any(
                    isinstance(arg, ast.Attribute) and arg.attr == "values"
                    and _name(arg.value) == "eig"
                    for arg in sub.args
                )
        if (values and rows) or zipped:
            yield node.name


def test_eigenvalue_sum_finder_sees_every_spelling():
    source = """
def matmul(model, idx):
    return idx.exponents @ model.eig.values
def summed(model, idx):
    lams = model.eig.values
    return (idx.exponents * lams).sum(axis=1)
def python_sum(model, K):
    return sum(k * lam for k, lam in zip(K, model.eig.values))
def one_mode(model, I, R):
    return model.eig.values[I] * R
"""
    assert list(_eigenvalue_sums(source)) == ["matmul", "summed", "python_sum"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "ladder"])
def test_only_ladder_sums_eigenvalues_over_a_multi_index(module):
    # lambda_K has one formula, ``ladder._eigenvalues``; every other module
    # reads its vector.
    assert list(_eigenvalue_sums(_source(module))) == []


def _bound_names():
    """First components of the names that ``perfbench/layers.py`` binds in
    ``FUNCTIONS``: ``MPoly.__init__`` binds ``MPoly``, ``*simulate``
    binds ``simulate``."""
    path = PACKAGE.parents[1] / "perfbench" / "layers.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and _name(node.targets[0]) == "FUNCTIONS":
            return {func.lstrip("*").split(".")[0] for _, func in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/layers.py binds no FUNCTIONS")


def _verify_only(sources, bound=()):
    """(module, name) of each top-level function or class of a module of
    ``PRODUCTION`` whose only reader among ``sources`` (module name to
    source) is ``verify``.  A module reads a name when it names it as a
    bare name, an attribute or an import; a name in ``bound`` counts as
    read from outside the package."""
    readers = {name: {"outside"} for name in bound}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            name = node.name if isinstance(node, ast.alias) else _name(node)
            if name:
                readers.setdefault(name, set()).add(module)
    for module in PRODUCTION:
        for node in ast.parse(sources.get(module, "")).body:
            defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if defines and readers.get(node.name) == {"verify"}:
                yield module, node.name


def test_verify_only_finder_sees_imports_attributes_and_bindings():
    sources = {
        "gaussian": """
def checked(): pass
def inner(): pass
def outer(): return inner()
def exported(): pass
def traced(): pass
class Report: pass
""",
        "mpoly": "def unread(): pass",
        "verify": """
from .gaussian import checked, exported, inner, traced
from . import gaussian
r = gaussian.Report()
""",
        "__init__": "from .gaussian import exported",
    }
    assert list(_verify_only(sources, bound={"traced"})) == [
        ("gaussian", "checked"),
        ("gaussian", "Report"),
    ]


def test_no_production_module_keeps_verify_only_code():
    # Aim 2: code that only a check reads lives in ``verify``.  A name that
    # ``__init__`` exports, or that the benchmark binds, counts as read.
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert list(_verify_only(sources, _bound_names())) == []


# Calls that print to a stream, open a file or write to one.
EMITTERS = ("dump", "open", "print", "write", "write_bytes", "write_text", "writelines")


def _emits(source):
    """(dotted scope, source line) of each call in ``source`` that prints,
    opens a file or writes, bare or as an attribute."""
    for name in EMITTERS:
        yield from _scoped_calls(source, name)


def _parameters(source):
    """Name and parameter names, ``*args`` and ``**kw`` included, of each
    top-level function of ``source`` whose name starts with ``cmd_``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_"):
            a = node.args
            names = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
            names += [f"*{a.vararg.arg}"] if a.vararg else []
            names += [f"**{a.kwarg.arg}"] if a.kwarg else []
            yield node.name, names


def test_emit_finder_sees_prints_opens_and_writes():
    source = """
print("x")
def cmd_a(cfg):
    print(cfg, file=sys.stderr)
    sys.stdout.write("y")
def cmd_b(cfg, args, *rest, out=None, **kw):
    with open(p, "w") as fh:
        fh.writelines(rows)
    pathlib.Path(p).write_text(t)
    json.dump(obj, fh)
def main():
    def later():
        return io.open(p).read()
    return printed(x)
"""
    assert sorted(_emits(source)) == [
        ("", 'print("x")'),
        ("cmd_a", "print(cfg, file=sys.stderr)"),
        ("cmd_a", 'sys.stdout.write("y")'),
        ("cmd_b", "fh.writelines(rows)"),
        ("cmd_b", "json.dump(obj, fh)"),
        ("cmd_b", "pathlib.Path(p).write_text(t)"),
        ("cmd_b", 'with open(p, "w") as fh:'),
        ("main.later", "return io.open(p).read()"),
    ]
    assert list(_parameters(source)) == [
        ("cmd_a", ["cfg"]),
        ("cmd_b", ["cfg", "args", "out", "*rest", "**kw"]),
    ]


def test_cli_main_is_the_one_emitter():
    # Each subcommand returns its exit code, stdout lines, JSON record and
    # CSV rows from its config alone; ``main`` writes them, after all are
    # computed and encoded, so a failure leaves stdout empty.
    source = (PACKAGE / "cli.py").read_text()
    calls = list(_emits(source))
    assert calls and {scope for scope, _ in calls} == {"main"}, calls
    commands = dict(_parameters(source))
    assert len(commands) == 5
    assert {name: ["cfg"] for name in commands} == commands
