import importlib
import pkgutil

import pytest

import robkf

MODULES = [info.name for info in pkgutil.iter_modules(robkf.__path__)]
PUBLIC = ["model", "divergence", "riccati", "contraction", "filters", "errors"]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"robkf.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_package_reexports_exactly_the_public_modules_names():
    assert sorted(PUBLIC + ["_linalg", "cli"]) == sorted(MODULES)
    names = {entry for name in PUBLIC
             for entry in importlib.import_module(f"robkf.{name}").__all__}
    assert len(set(robkf.__all__)) == len(robkf.__all__)
    assert set(robkf.__all__) == names | {"__version__"}
    for entry in robkf.__all__:
        assert hasattr(robkf, entry), entry
