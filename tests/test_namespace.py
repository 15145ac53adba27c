"""The package namespace: every public name resolves on first use to
the object its submodule defines."""

import importlib
import sys
import types

import pytest

import loggas

NAMES = [name for name in loggas.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", NAMES)
def test_name_is_its_module_attribute(name):
    value = getattr(loggas, name)
    assert value.__module__.startswith("loggas.")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_star_import_matches_getattr():
    namespace = {}
    exec("from loggas import *", namespace)
    assert set(loggas.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(loggas, name) for name in loggas.__all__)
    assert namespace["__version__"] == loggas.__version__


def test_dir_lists_every_name():
    assert set(loggas.__all__) <= set(dir(loggas))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        loggas.no_such_name
    assert not hasattr(loggas, "no_such_name")


def test_submodule_import_yields_the_module():
    from loggas import kernel_oracle
    assert isinstance(kernel_oracle, types.ModuleType)
    assert kernel_oracle is sys.modules["loggas.kernel_oracle"]
