"""Scalar function handles used as kernel hyper-parameters.

Warping maps, mixture coefficients and length-scale fields are all plain
scalar functions of a scalar input.  A ``FunctionHandle`` wraps the callable
together with its description; built-in handles are constructed from a
small registry of named forms so experiment configs can be serialised to
and from JSON.  Each form is a plain function whose annotated signature is
its description: ``make_function`` checks a description against it and the
form returns only the callable.
"""

from __future__ import annotations

import inspect
import math
import numbers
import typing
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SCALAR_TYPES = (float, int, bool, str)


def scalar_problem(value, kind: type) -> str | None:
    """Why ``value`` does not fit a field of type ``kind`` in ``SCALAR_TYPES``,
    or None.  float takes any finite real number and int any integral one,
    never a bool: bool subclasses int, but true/false in a config is not a
    number, and JSON's NaN and Infinity are no parameter value."""
    admits = {float: numbers.Real, int: numbers.Integral}.get(kind, kind)
    if isinstance(value, admits) and (kind is bool or not isinstance(value, bool)):
        if kind is float and not isinstance(value, numbers.Integral) and not math.isfinite(value):
            return f"expected a finite float, got {value!r}"
        return None
    return f"expected {kind.__name__}, got {value!r}"


class FunctionSpecError(ValueError):
    """Raised for malformed or non-serialisable function descriptions;
    ``key`` names the parameter at fault, when there is one."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class FunctionHandle:
    """A deterministic scalar function with its description.

    ``fn`` must accept floats and numpy arrays elementwise.  ``label`` names
    the function in messages: the registry kind for built-ins.  ``params``
    holds the registry description for built-ins (empty for ad-hoc
    callables, which then cannot be serialised).  Equality compares the
    description (label and params), not callable identity.
    """

    fn: Callable = field(compare=False)
    label: str = ""
    params: dict = field(default_factory=dict)

    def __call__(self, x):
        return self.fn(x)

    def to_params(self) -> dict:
        if not self.params:
            raise FunctionSpecError(
                f"function {self.label!r} was built from a raw callable and "
                "cannot be serialised; use a registry form"
            )
        return dict(self.params)


def _poly2(a: float, b: float, c: float) -> Callable:
    return lambda u: (a * np.asarray(u, dtype=float) + b) ** 2 + c


def _poly2_sin(a: float, b: float, c: float) -> Callable:
    def fn(u):
        u = np.asarray(u, dtype=float)
        return (a * u + b) ** 2 + np.sin(u) + c

    return fn


def _indicator(
    lo: float, hi: float, scale: float, include_lo: bool = True, include_hi: bool = True
) -> Callable:
    def fn(u):
        u = np.asarray(u, dtype=float)
        left = u >= lo if include_lo else u > lo
        right = u <= hi if include_hi else u < hi
        return scale * (left & right).astype(float)

    return fn


def _piecewise_poly2(
    split: float, a1: float, b1: float, c1: float, a2: float, b2: float, c2: float
) -> Callable:
    def fn(u):
        u = np.asarray(u, dtype=float)
        return np.where(
            u < split,
            (a1 * u + b1) ** 2 + c1,
            (a2 * u + b2) ** 2 + c2,
        )

    return fn


def _sine(freq: float = 1.0, amp: float = 1.0) -> Callable:
    return lambda u: amp * np.sin(freq * np.asarray(u, dtype=float))


def _constant(value: float) -> Callable:
    def fn(u):
        u = np.asarray(u, dtype=float)
        return np.full_like(u, float(value))

    return fn


def _identity() -> Callable:
    return lambda u: np.asarray(u, dtype=float)


_REGISTRY: dict[str, Callable[..., Callable]] = {
    "poly2": _poly2,
    "poly2_sin": _poly2_sin,
    "indicator": _indicator,
    "piecewise_poly2": _piecewise_poly2,
    "sine": _sine,
    "constant": _constant,
    "identity": _identity,
}


def make_function(params: dict) -> FunctionHandle:
    """Build a FunctionHandle from its registry description.

    ``params`` is a mapping with a ``kind`` key naming the form plus the
    form's own parameters; unknown kinds, unknown keys and missing keys are
    rejected, and each parameter must fit the scalar type its form
    annotates.  The handle's ``params`` list every argument in signature
    order, defaults filled in.
    """
    kind = params.get("kind") if isinstance(params, dict) else None
    if not isinstance(kind, str) or kind not in _REGISTRY:
        raise FunctionSpecError(f"function kind must be one of {sorted(_REGISTRY)}: {params!r}")
    form = _REGISTRY[kind]
    kwargs = {k: v for k, v in params.items() if k != "kind"}
    hints = typing.get_type_hints(form)
    for key, value in kwargs.items():
        if hints.get(key) in SCALAR_TYPES and (problem := scalar_problem(value, hints[key])):
            raise FunctionSpecError(f"{kind!r} parameter {key!r}: {problem}", key)
    try:
        bound = inspect.signature(form).bind(**kwargs)
    except TypeError as exc:
        raise FunctionSpecError(f"bad parameters for {kind!r}: {exc}") from exc
    bound.apply_defaults()
    return FunctionHandle(
        fn=form(**bound.arguments), label=kind, params={"kind": kind, **bound.arguments}
    )


def piecewise_linear(mesh: np.ndarray, values: np.ndarray, label: str = "") -> FunctionHandle:
    """Piecewise-linear interpolant of mesh values, constant beyond the ends.

    Used to extend layer samples held on a grid to arbitrary query points;
    not serialisable.
    """
    mesh = np.asarray(mesh, dtype=float)
    values = np.asarray(values, dtype=float)
    if mesh.shape != values.shape or mesh.ndim != 1:
        raise FunctionSpecError("mesh and values must be 1-D arrays of equal length")
    return FunctionHandle(
        fn=lambda u: np.interp(np.asarray(u, dtype=float), mesh, values),
        label=label or "piecewise-linear",
    )
