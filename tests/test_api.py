"""Every module's ``__all__`` lists exactly the public names it defines,
and code outside the tests reaches each of them."""

import ast
import importlib
import inspect
import pathlib

import pytest

MODULES = ("engine", "pspin", "conditions", "stats", "measures", "ehrenfest", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_public_definitions(name):
    module = importlib.import_module(f"extremalclock.{name}")
    unresolved = [n for n in module.__all__ if not hasattr(module, n)]
    assert not unresolved, f"{name}.__all__ names what the module lacks: {unresolved}"
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == defined


ROOT = pathlib.Path(__file__).resolve().parents[1]

# public names that only tests reach, each kept as the reference a test needs
TEST_REFERENCES = {
    "measures.sup_path": "the point-by-point reference test_measures compares "
                         "sample_sup_levels against",
}


def _reaching_sources():
    """Every file whose code counts as reaching a public name."""
    yield from sorted((ROOT / "src").rglob("*.py"))
    yield from sorted((ROOT / "demos").glob("*.py"))
    yield from sorted((ROOT / "tools").glob("*.py"))
    yield from sorted(p for p in (ROOT / "perfbench").glob("*.py")
                      if not p.name.startswith("test_"))
    yield ROOT / "tests" / "test_acceptance.py"


def _identifiers(node) -> set:
    """Names read in ``node``: bare names and attribute names, not imports."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_name_is_reached_outside_the_tests():
    # per file, the identifiers of each top-level statement, with the name
    # that statement defines, so a name's own body does not reach it
    uses = []
    for path in _reaching_sources():
        for stmt in ast.parse(path.read_text(), str(path)).body:
            defines = getattr(stmt, "name", None)
            uses.append((path.resolve(), defines, _identifiers(stmt)))
    unreached = []
    for name in MODULES:
        module = importlib.import_module(f"extremalclock.{name}")
        home = pathlib.Path(module.__file__).resolve()
        for public in module.__all__:
            if f"{name}.{public}" in TEST_REFERENCES:
                continue
            if not any(public in ids and not (path == home and defines == public)
                       for path, defines, ids in uses):
                unreached.append(f"{name}.{public}")
    assert not unreached, f"public names only tests reach: {unreached}"
    for ref in TEST_REFERENCES:  # an exemption goes with its name
        name, public = ref.split(".")
        assert public in importlib.import_module(f"extremalclock.{name}").__all__, ref
