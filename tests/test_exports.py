"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import pytest

import infomargin

MODULES = ["infomargin"] + [
    f"infomargin.{info.name}" for info in pkgutil.iter_modules(infomargin.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ lists undefined names {missing}"
