"""Import layering of the package, read from the source with ``ast``.

``verify`` holds every check and reads the production modules; none of
them reads it.  The one exception is a commented line of ``spectral``
that re-exports ``reconstruct_operators_check`` under the name the
benchmark binds (``perfbench/layers.py``).  ``ladder`` alone builds the
gather tables of its operators, each through its one builder
``operator_table``, and reads them, and alone reads and writes the
model's cache; every other module reads them through it.  Outside
``ladder`` no module imports ``_table`` or ``_block``, so none knows the
slot layout of a table, and outside ``gaussian`` no module
Cholesky-factors a ``cov``: each Gaussian is factored once, and keeps its
factor.  No module defines or calls ``prune``: no numeric step drops a
coefficient for being small, and ``prune_eps`` is only the threshold by
which ``mpoly.render`` hides dust.
``ladder`` alone reads an eigenfunction table, the ladder's or the
Hermite closed form's, off the cache: every other module reads both
through ``_eigenfunctions`` and ``_eigenfunction``.
``ladder`` alone names ``_grown``, the cache's one reader, so no other
module keeps an entry of its own.  ``ladder._eigenvalues`` alone sums
K_I lambda_I over a multi-index, so lambda_K has one formula, and
``monomials`` alone calls ``math.factorial``, so 2^|K| K! has one
(``mode_normalization``).  ``hermite_form`` alone builds a Hermite
closed form (``mpoly.hermite_products``), and ``verify`` builds no
second model (``build_model``, ``to_canonical``): it checks the model's
own tables.  ``monomials`` alone reads ``parent``: every recursion
over the modes raises along ``GradedIndex.runs``.  No production module
defines a top-level function or class that only ``verify`` reads: check
code lives in ``verify``.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ou_spectral"

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


def _imports(module):
    """(package module imported, names, source line) for each import of
    ``module`` that reads another module of the package."""
    path = PACKAGE / f"{module}.py"
    lines = path.read_text().splitlines()
    for node in ast.walk(ast.parse(path.read_text())):
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


# The one builder of the operator gather tables, ``operator_table``, and
# the model-level builders that call it and that only ``ladder._table``
# calls and keeps.
TABLE_BUILDERS = {"operator_table", "_generator_table", "_ladder_table"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _table_builds(source):
    """Source lines that call a table builder, or pass one to
    ``_grown``."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        called = _name(node.func)
        if called in TABLE_BUILDERS or (
            called == "_grown" and any(_name(arg) in TABLE_BUILDERS for arg in node.args)
        ):
            yield lines[node.lineno - 1].strip()


def test_table_build_reader_sees_calls_and_cached_builds():
    source = """
from .ladder import _grown, _ladder_table, operator_table
from . import ladder
a = operator_table(n, 3, D=D, B=B)
b = ladder._generator_table(model, "forward", 3)
c = _grown(model, _ladder_table, ("raise_forward", 0), 3)
d = _table(model, _ladder_table, args, 3)
e = ladder.operator_table(n, 3, a=a, w=w)
"""
    assert list(_table_builds(source)) == [
        "a = operator_table(n, 3, D=D, B=B)",
        'b = ladder._generator_table(model, "forward", 3)',
        'c = _grown(model, _ladder_table, ("raise_forward", 0), 3)',
        "e = ladder.operator_table(n, 3, a=a, w=w)",
    ]


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "ladder")
)
def test_only_ladder_builds_operator_tables(module):
    assert list(_table_builds((PACKAGE / f"{module}.py").read_text())) == []


# The builders of the two eigenfunction tables, the ladder's and the
# Hermite closed form's, which ``ladder._eigenfunctions`` and
# ``_eigenfunction`` take as their ``build``.
EIGEN_BUILDERS = {"_eigentable", "_hermite_table"}


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


def _eigentable_reads(source):
    """Source lines that pass an eigenfunction table builder to
    ``_grown``, each name read through the aliases of its import."""
    tree = ast.parse(source)
    lines = source.splitlines()
    named = _resolver(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and named(node.func) == "_grown":
            args = [*node.args, *(keyword.value for keyword in node.keywords)]
            if any(named(arg) in EIGEN_BUILDERS for arg in args):
                yield lines[node.lineno - 1].strip()


def test_eigentable_read_finder_sees_bare_attribute_and_imported_spellings():
    source = """
from .ladder import _eigentable, _grown
from .ladder import _grown as grown
from .hermite_form import _hermite_table as closed_form
a = _grown(model, _eigentable, ("forward",), 3)
b = ladder._grown(model, hermite_form._hermite_table, (side,), k)
c = grown(model, closed_form, ("adjoint",), 2)
d = _grown(model, build=ladder._eigentable, args=(side,), degree=2)
e = _grown(model, _generator_table, ("forward",), 4)
f = ladder._eigenfunctions(model, "forward", 3, _hermite_table)
"""
    assert list(_eigentable_reads(source)) == [
        'a = _grown(model, _eigentable, ("forward",), 3)',
        "b = ladder._grown(model, hermite_form._hermite_table, (side,), k)",
        'c = grown(model, closed_form, ("adjoint",), 2)',
        "d = _grown(model, build=ladder._eigentable, args=(side,), degree=2)",
    ]


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "ladder")
)
def test_only_ladder_reads_an_eigenfunction_table(module):
    # ``ladder._eigenfunctions`` and ``_eigenfunction`` read both tables by
    # one rule, the leading block of the table kept at the top order.
    assert list(_eigentable_reads((PACKAGE / f"{module}.py").read_text())) == []


def _cache_uses(source):
    """Source lines that read or write an attribute ``_op_cache``."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "_op_cache":
            yield lines[node.lineno - 1].strip()


def test_cache_reader_sees_reads_and_writes():
    source = """
got = model._op_cache.get(key)
model._op_cache[key] = got
keys = list(getattr(model, "_op_cache"))
"""
    assert sorted(_cache_uses(source)) == [
        "got = model._op_cache.get(key)",
        "model._op_cache[key] = got",
    ]


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "ladder")
)
def test_only_ladder_reads_the_model_cache(module):
    # ``ladder._grown`` is the one reader of the cache, with one rule for
    # every entry: kept at the highest degree asked, read as leading rows.
    assert list(_cache_uses((PACKAGE / f"{module}.py").read_text())) == []


# Names that expose the slot layout of a gather table: its rows
# (``_table``) and a bare scatter of its slots (``_block``).  Every other
# module reads a table through ``ladder._image`` and ``ladder._matrix``.
SLOT_READERS = {"_table", "_block"}


def _slot_reads(source):
    """Source lines that import a slot reader from ``ladder``, or read one
    as an attribute of it."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("ladder"):
            found = SLOT_READERS & {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            found = node.attr in SLOT_READERS and _name(node.value) == "ladder"
        else:
            continue
        if found:
            yield lines[node.lineno - 1].strip()


def test_slot_read_finder_sees_imports_and_attributes():
    source = """
from .ladder import _image, _table
from ou_spectral.ladder import _block
from . import ladder
src = ladder._block(a, b, c)
ok = ladder._matrix(model, build, args, 3)
"""
    assert list(_slot_reads(source)) == [
        "from .ladder import _image, _table",
        "from ou_spectral.ladder import _block",
        "src = ladder._block(a, b, c)",
    ]


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "ladder")
)
def test_only_ladder_reads_the_slots_of_a_table(module):
    assert list(_slot_reads((PACKAGE / f"{module}.py").read_text())) == []


def _cov_factorings(source):
    """Source lines that Cholesky-factor an attribute ``cov``:
    ``cholesky(g.cov)`` under any module path."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name(node.func) == "cholesky" and node.args:
            if isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "cov":
                yield lines[node.lineno - 1].strip()


def test_cov_factoring_finder_sees_every_spelling():
    source = """
L = np.linalg.cholesky(model.f0.cov)
L0 = cholesky(F0.cov)
LB = np.linalg.cholesky(model.B)
L = np.linalg.cholesky(cov)
"""
    assert list(_cov_factorings(source)) == [
        "L = np.linalg.cholesky(model.f0.cov)",
        "L0 = cholesky(F0.cov)",
    ]


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "gaussian")
)
def test_only_gaussian_factors_a_covariance(module):
    # ``GaussianDensity`` factors its cov once and keeps L as ``factor``.
    assert list(_cov_factorings((PACKAGE / f"{module}.py").read_text())) == []


def _prune_calls(source):
    """(dotted name of the enclosing classes and functions, source line) of
    each call of a function named ``prune``, bare or as an attribute."""
    lines = source.splitlines()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and _name(child.func) == "prune":
                yield ".".join(scope), lines[child.lineno - 1].strip()
            yield from visit(child, scope)

    yield from visit(ast.parse(source), ())


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
    assert list(_prune_calls(source)) == [
        ("", "x = prune(c, eps)"),
        ("MPoly._store", "return f(mpoly.prune(c, eps))"),
        ("g.h", "return prune(c, 0.0)"),
    ]


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_only_mpoly_store_prunes(module):
    # No module defines or calls ``prune``: ``MPoly._store``, the name's
    # subject, was its last caller.
    source = (PACKAGE / f"{module}.py").read_text()
    defined = [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "prune"
    ]
    assert defined == []
    calls = list(_prune_calls(source))
    assert [scope for scope, _ in calls] == [], calls


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


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "ladder")
)
def test_only_ladder_sums_eigenvalues_over_a_multi_index(module):
    # lambda_K has one formula, ``ladder._eigenvalues``; every other module
    # reads its vector.
    assert list(_eigenvalue_sums((PACKAGE / f"{module}.py").read_text())) == []


def _calls(source, names):
    """Source lines that call a function named in ``names``, bare, as an
    attribute or under the alias of its import."""
    tree = ast.parse(source)
    lines = source.splitlines()
    named = _resolver(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and named(node.func) in names:
            yield lines[node.lineno - 1].strip()


def test_call_finder_sees_bare_and_attribute_calls():
    source = """
from .ladder import build_model
from .hermite_form import to_canonical as canonical
import math as m
from math import factorial as fact
model = build_model(A, B)
model_c, tr = hermite_form.to_canonical(model)
model_d, tr = canonical(model)
table = mpoly.hermite_products(V, 3)
build = build_model
n = model.to_canonical_count
a = math.factorial(k) * m.factorial(k) + factorial(k)
b = fact(k)
c = math.comb(n, k)
"""
    assert list(_calls(source, {"build_model", "to_canonical"})) == [
        "model = build_model(A, B)",
        "model_c, tr = hermite_form.to_canonical(model)",
        "model_d, tr = canonical(model)",
    ]
    assert list(_calls(source, {"hermite_products"})) == ["table = mpoly.hermite_products(V, 3)"]
    assert sorted(_calls(source, {"factorial"})) == [
        "a = math.factorial(k) * m.factorial(k) + factorial(k)"
    ] * 3 + ["b = fact(k)"]


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "monomials")
)
def test_only_monomials_calls_factorial(module):
    # 2^|K| K! has one formula, ``monomials.mode_normalization``, whose
    # vector every reader takes from the index (``GradedIndex.normalizations``).
    assert list(_calls((PACKAGE / f"{module}.py").read_text(), {"factorial"})) == []


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


def test_mention_finder_sees_bare_attribute_and_aliased_names():
    source = """
from .ladder import _grown as grown
from . import ladder as lad
a = _grown(model, build, args, 3)
b = lad._grown(model, build, args, 3)
c = grown(model, build, args, 3)
d = ladder._grown
e = model._grown_count
f = "_grown"
"""
    assert sorted(_mentions(source, "_grown")) == [
        "a = _grown(model, build, args, 3)",
        "b = lad._grown(model, build, args, 3)",
        "c = grown(model, build, args, 3)",
        "d = ladder._grown",
        "from .ladder import _grown as grown",
    ]


@pytest.mark.parametrize("module", sorted(m for m in PRODUCTION if m != "ladder"))
def test_only_ladder_names_grown(module):
    # ``ladder._grown`` is the model cache's one reader, and ``ladder`` its
    # one caller: every other module reads the cache through ``ladder``'s
    # readers, and keeps nothing there of its own.
    assert list(_mentions((PACKAGE / f"{module}.py").read_text(), "_grown")) == []


def _parent_reads(source):
    """Source lines that read ``monomials.parent``: import it, call it or
    pass it on, bare or as an attribute of ``monomials``."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("monomials"):
            found = "parent" in {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            found = node.id == "parent" and isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.Attribute):
            found = node.attr == "parent" and _name(node.value) == "monomials"
        else:
            continue
        if found:
            yield lines[node.lineno - 1].strip()


def test_parent_read_finder_sees_imports_calls_and_references():
    source = """
from .monomials import graded_index, parent
I, P = parent(K)
steps = list(map(parent, modes))
J, Q = monomials.parent(K)
path = node.parent
parent = None
runs = idx.runs
"""
    assert sorted(_parent_reads(source)) == [
        "I, P = parent(K)",
        "J, Q = monomials.parent(K)",
        "from .monomials import graded_index, parent",
        "steps = list(map(parent, modes))",
    ]


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "monomials")
)
def test_only_monomials_reads_parent(module):
    # ``monomials.parent`` states the raising rule once; every recursion
    # reads it as row slices (``GradedIndex.runs``).
    assert list(_parent_reads((PACKAGE / f"{module}.py").read_text())) == []


def test_verify_builds_no_second_model():
    # The suites check the tables of the model they are given; the Hermite
    # suite maps them to canonical coordinates instead of rebuilding the
    # model there.
    source = (PACKAGE / "verify.py").read_text()
    assert list(_calls(source, {"build_model", "to_canonical"})) == []


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "hermite_form")
)
def test_only_hermite_form_builds_a_hermite_closed_form(module):
    # One closed-form table per model and side (``hermite_form._hermite_table``),
    # which the Hermite suite and grid evaluation both read.
    assert list(_calls((PACKAGE / f"{module}.py").read_text(), {"hermite_products"})) == []


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
