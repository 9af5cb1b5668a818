"""Tests for the exception hierarchy contract."""

from __future__ import annotations

import pytest

from repro.errors import (
    EmptyWindowError,
    InvalidGeometryError,
    InvalidParameterError,
    InvariantViolationError,
    ReproError,
    WindowOrderError,
)


@pytest.mark.parametrize(
    "exc",
    [
        InvalidGeometryError,
        InvalidParameterError,
        WindowOrderError,
        EmptyWindowError,
        InvariantViolationError,
    ],
)
def test_all_errors_derive_from_repro_error(exc):
    assert issubclass(exc, ReproError)
    assert issubclass(exc, Exception)


def test_single_except_clause_catches_library_failures():
    from repro.core.geometry import Rect

    with pytest.raises(ReproError):
        Rect(5, 0, 0, 0)


def test_library_never_wraps_type_errors():
    """Genuine bugs (wrong types) must propagate as-is, not be masked."""
    from repro.core.planesweep import plane_sweep_topk

    with pytest.raises(TypeError):
        plane_sweep_topk([], "a")  # type: ignore[arg-type]
