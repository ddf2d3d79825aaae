"""The examples in the module docstrings are tests too."""

import doctest
import importlib
import pkgutil

import pytest

import safelc

MODULES = ["safelc"] + sorted(
    f"safelc.{m.name}" for m in pkgutil.iter_modules(safelc.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module)
    assert result.failed == 0
