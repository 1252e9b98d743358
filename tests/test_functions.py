import math

import numpy as np
import pytest

from gpconv.functions import (
    FunctionSpecError,
    make_function,
    piecewise_linear,
)


class TestRegistry:
    def test_poly2(self):
        fn = make_function({"kind": "poly2", "a": 0.5, "b": 1.0, "c": 0.5})
        np.testing.assert_allclose(fn(2.0), (0.5 * 2 + 1) ** 2 + 0.5)
        np.testing.assert_allclose(fn(np.array([0.0, 2.0])), [1.5, 4.5])

    def test_poly2_sin(self):
        fn = make_function({"kind": "poly2_sin", "a": 1.0, "b": -3.0, "c": 4.0})
        u = 1.7
        np.testing.assert_allclose(fn(u), (u - 3) ** 2 + math.sin(u) + 4)

    def test_indicator_boundaries(self):
        closed = make_function(
            {"kind": "indicator", "lo": 0.0, "hi": 2.0, "scale": 0.5,
             "include_lo": True, "include_hi": True}
        )
        open_ = make_function(
            {"kind": "indicator", "lo": 1.0, "hi": 4.0, "scale": 0.5,
             "include_lo": False, "include_hi": False}
        )
        np.testing.assert_allclose(closed(np.array([0.0, 2.0, 2.1])), [0.5, 0.5, 0.0])
        np.testing.assert_allclose(open_(np.array([1.0, 1.5, 4.0])), [0.0, 0.5, 0.0])

    def test_piecewise_poly2_split(self):
        fn = make_function(
            {"kind": "piecewise_poly2", "split": 2.5,
             "a1": 0.2, "b1": 0.1, "c1": 0.0, "a2": 1.0, "b2": 0.1, "c2": 0.0}
        )
        np.testing.assert_allclose(fn(1.0), (0.2 + 0.1) ** 2)
        np.testing.assert_allclose(fn(3.0), (3.0 + 0.1) ** 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FunctionSpecError):
            make_function({"kind": "spline"})
        with pytest.raises(FunctionSpecError):
            make_function({"a": 1.0})

    def test_bad_parameters_rejected(self):
        with pytest.raises(FunctionSpecError):
            make_function({"kind": "poly2", "a": 1.0, "b": 0.0, "c": 0.0, "zz": 1})

    @pytest.mark.parametrize(
        "params, key",
        [
            ({"kind": "poly2", "a": "x", "b": 0.0, "c": 0.0}, "a"),
            ({"kind": "poly2", "a": 1.0, "b": True, "c": 0.0}, "b"),
            ({"kind": "sine", "freq": [2.0]}, "freq"),
            (
                {"kind": "indicator", "lo": 0.0, "hi": 1.0, "scale": 1.0, "include_lo": 1},
                "include_lo",
            ),
        ],
    )
    def test_parameter_types_checked(self, params, key):
        with pytest.raises(FunctionSpecError, match=f"parameter '{key}'") as caught:
            make_function(params)
        assert caught.value.key == key

    def test_description_must_be_an_object(self):
        with pytest.raises(FunctionSpecError, match="kind must be one of"):
            make_function(5)

    def test_round_trip_params(self):
        params = {"kind": "sine", "freq": 2.0, "amp": 1.0}
        assert make_function(params).to_params() == params

    def test_raw_callable_not_serialisable(self):
        from gpconv.functions import FunctionHandle

        handle = FunctionHandle(fn=lambda u: u, label="ad hoc")
        with pytest.raises(FunctionSpecError):
            handle.to_params()

    def test_determinism(self):
        fn = make_function({"kind": "poly2_sin", "a": 1.0, "b": -3.0, "c": 4.0})
        x = np.linspace(0, 5, 64)
        assert np.array_equal(fn(x), fn(x))


class TestPiecewiseLinear:
    def test_interpolates_and_clamps(self):
        mesh = np.array([0.0, 1.0, 2.0])
        vals = np.array([0.0, 2.0, 0.0])
        fn = piecewise_linear(mesh, vals)
        np.testing.assert_allclose(fn(0.5), 1.0)
        np.testing.assert_allclose(fn(-1.0), 0.0)  # constant extension
        np.testing.assert_allclose(fn(5.0), 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(FunctionSpecError):
            piecewise_linear(np.array([0.0, 1.0]), np.array([1.0]))


@pytest.mark.parametrize(
    "params, expected",
    [
        ({"kind": "poly2", "c": 3.0, "b": 2.0, "a": 1.0},
         {"kind": "poly2", "a": 1.0, "b": 2.0, "c": 3.0}),
        ({"kind": "poly2_sin", "b": -3.0, "a": 1.0, "c": 4.0},
         {"kind": "poly2_sin", "a": 1.0, "b": -3.0, "c": 4.0}),
        ({"kind": "indicator", "scale": 0.5, "hi": 2.0, "lo": 0.0},
         {"kind": "indicator", "lo": 0.0, "hi": 2.0, "scale": 0.5,
          "include_lo": True, "include_hi": True}),
        ({"kind": "indicator", "include_hi": False, "lo": 0.0, "hi": 2.0, "scale": 0.5},
         {"kind": "indicator", "lo": 0.0, "hi": 2.0, "scale": 0.5,
          "include_lo": True, "include_hi": False}),
        ({"kind": "piecewise_poly2", "c2": 0.0, "b2": 0.1, "a2": 1.0, "c1": 0.0,
          "b1": 0.1, "a1": 0.2, "split": 2.5},
         {"kind": "piecewise_poly2", "split": 2.5, "a1": 0.2, "b1": 0.1, "c1": 0.0,
          "a2": 1.0, "b2": 0.1, "c2": 0.0}),
        ({"kind": "sine"}, {"kind": "sine", "freq": 1.0, "amp": 1.0}),
        ({"kind": "sine", "amp": 2.0}, {"kind": "sine", "freq": 1.0, "amp": 2.0}),
        ({"kind": "constant", "value": 1.5}, {"kind": "constant", "value": 1.5}),
        ({"kind": "identity"}, {"kind": "identity"}),
    ],
)
def test_round_trip_fills_defaults_in_signature_order(params, expected):
    handle = make_function(params)
    assert list(handle.to_params().items()) == list(expected.items())
    assert handle.label == params["kind"]
    assert make_function(handle.to_params()) == handle


def test_missing_parameter_rejected():
    with pytest.raises(FunctionSpecError, match="missing a required argument: 'b'"):
        make_function({"kind": "poly2", "a": 1.0, "c": 0.0})
