"""Every exported name resolves, so ``from sweepvi import *`` keeps working."""

import importlib
import pkgutil

import pytest

import sweepvi

MODULES = ["sweepvi"] + [f"sweepvi.{m.name}" for m in pkgutil.iter_modules(sweepvi.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_an_attribute_of_its_module(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
