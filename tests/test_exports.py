"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import zvar

MODULES = ["zvar"] + [f"zvar.{m.name}" for m in pkgutil.iter_modules(zvar.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_modules_are_found():
    assert {"zvar.quad", "zvar.taper", "zvar.zeval", "zvar.cov", "zvar.verify"} <= set(MODULES)
