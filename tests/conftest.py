"""Shared field fixtures for the test suite."""

from __future__ import annotations

import pytest

from ulrich_forge import FieldSpec


@pytest.fixture
def q():
    return FieldSpec.rationals()


@pytest.fixture
def qi():
    return FieldSpec.gaussian_rationals()


@pytest.fixture
def f13():
    return FieldSpec.prime(13)


@pytest.fixture
def f101():
    return FieldSpec.prime(101)


@pytest.fixture
def e13():
    return FieldSpec.quadratic(13)


@pytest.fixture
def count_scalars(monkeypatch):
    """A function that starts collecting every ``Scalar`` the library makes.

    A scalar is made by one of two routes: the validating
    ``Scalar(field, a, b)``, and ``field.arith.box``, which writes a
    canonical raw value through ``fields._boxed`` without calling
    ``__init__``.  The returned list gets the parts (field, a, b) of
    every scalar made by either route from the call on.
    """
    from ulrich_forge import fields

    def start():
        built = []
        init, boxed = fields.Scalar.__init__, fields._boxed

        def counting_init(self, field, a, b=0):
            built.append((field, a, b))
            init(self, field, a, b)

        def counting_boxed(field, a, b):
            built.append((field, a, b))
            return boxed(field, a, b)

        monkeypatch.setattr(fields.Scalar, "__init__", counting_init)
        monkeypatch.setattr(fields, "_boxed", counting_boxed)
        return built

    return start
