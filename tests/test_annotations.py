"""Every public annotation names something its module can resolve, so that
``typing.get_type_hints`` works on the whole public API."""

import importlib
import pkgutil
import typing

import hyperpoly


def _public_modules():
    for info in pkgutil.iter_modules(hyperpoly.__path__):
        if not info.name.startswith("_"):
            module = importlib.import_module(f"hyperpoly.{info.name}")
            if hasattr(module, "__all__"):
                yield module


def _functions(cls):
    for value in vars(cls).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        elif isinstance(value, property):
            value = value.fget
        if callable(value) and hasattr(value, "__code__"):
            yield value


def test_public_annotations_resolve():
    checked = 0
    for module in _public_modules():
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj):
                continue
            typing.get_type_hints(obj)
            checked += 1
            if isinstance(obj, type):
                for fn in _functions(obj):
                    typing.get_type_hints(fn)
                    checked += 1
    assert checked > 50
