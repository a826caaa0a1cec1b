"""Every module's ``__all__`` lists exactly the public names it defines."""

import importlib
import inspect

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
