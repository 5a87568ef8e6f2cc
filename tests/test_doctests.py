"""The examples in the package's docstrings run and hold."""

import doctest
import importlib
import pkgutil

import pytest

import adlv

MODULES = sorted(m.name for m in pkgutil.iter_modules(adlv.__path__, "adlv."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name
