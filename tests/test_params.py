import math

import numpy as np
import pytest

from ksring.field import GridSpec, PeriodicField
from ksring.params import FieldErrors, ModelParams, SolverConfig, TimeGrid, positive_radius


@pytest.mark.parametrize(
    "make, names",
    [
        (lambda: ModelParams(delta=0.0, alpha=1.0, v_c=-1.0, R0=math.nan), ["delta", "alpha", "v_c", "R0"]),
        (lambda: ModelParams(delta=4.0, alpha=0.5, v_c=0.1, R0=6.0), ["alpha"]),
        (lambda: TimeGrid(k=0.0, N=0), ["k", "N"]),
        (lambda: TimeGrid.from_horizon(-1.0, 0.0), ["T", "k"]),
        (lambda: TimeGrid.from_horizon(0.5, 0.3), ["T"]),
        (lambda: TimeGrid.from_horizon(0.5, 1.0), ["T"]),
        (lambda: TimeGrid.from_horizon(math.inf, 0.1), ["T"]),
        (lambda: SolverConfig(newton_iters=0, reference_tol=0.0), ["newton_iters", "reference_tol"]),
        (lambda: GridSpec(7), ["J"]),
        (lambda: PeriodicField([0.0] * 6), ["J"]),
    ],
)
def test_containers_name_every_failing_field(make, names):
    with pytest.raises(FieldErrors) as exc:
        make()
    assert [name for name, _ in exc.value.problems] == names
    assert isinstance(exc.value, ValueError)
    assert str(exc.value) == "; ".join(f"{name}: {message}" for name, message in exc.value.problems)



@pytest.mark.parametrize("name", ["delta", "alpha", "v_c", "R0"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_model_params_refuse_non_finite_fields(name, value):
    fields = dict(delta=4.0, alpha=1.5, v_c=0.001, R0=6.0) | {name: value}
    with pytest.raises(FieldErrors) as exc:
        ModelParams(**fields)
    assert exc.value.problems == [(name, f"must be finite, got {value}")]


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_reference_tol_must_be_finite(tol):
    with pytest.raises(FieldErrors) as exc:
        SolverConfig(reference_tol=tol)
    assert exc.value.problems == [("reference_tol", f"must be finite, got {tol}")]


@pytest.mark.parametrize("k", [math.inf, math.nan])
def test_time_step_must_be_finite(k):
    with pytest.raises(FieldErrors) as exc:
        TimeGrid(k=k, N=1)
    assert exc.value.problems == [("k", f"must be finite, got {k}")]


@pytest.mark.parametrize("T, k, name, value", [
    (0.5, math.inf, "k", math.inf),
    (0.5, math.nan, "k", math.nan),
    (0.5, -math.inf, "k", -math.inf),
    (math.inf, 0.1, "T", math.inf),
    (math.nan, 0.1, "T", math.nan),
    (-math.inf, 0.1, "T", -math.inf),
])
def test_from_horizon_names_a_non_finite_field(T, k, name, value):
    # k is held to TimeGrid's own checks before N = T/k is formed
    with pytest.raises(FieldErrors) as exc:
        TimeGrid.from_horizon(T, k)
    assert exc.value.problems == [(name, f"must be finite, got {value}")]


def test_from_horizon_names_both_fields_by_their_first_failing_check():
    with pytest.raises(FieldErrors) as exc:
        TimeGrid.from_horizon(math.nan, 0.0)
    assert exc.value.problems == [("T", "must be finite, got nan"), ("k", "must be > 0, got 0.0")]


@pytest.mark.parametrize(
    "make, name, value",
    [
        (lambda: GridSpec(32.0), "J", 32.0),
        (lambda: TimeGrid(k=0.05, N=10.0), "N", 10.0),
        (lambda: SolverConfig(newton_iters=2.5), "newton_iters", 2.5),
        (lambda: SolverConfig(newton_iters=np.float64(3.0)), "newton_iters", np.float64(3.0)),
    ],
)
def test_counts_must_be_integers(make, name, value):
    # a float count is refused where it enters, not later by NumPy or range()
    with pytest.raises(FieldErrors) as exc:
        make()
    assert exc.value.problems == [(name, f"must be an integer, got {value!r}")]


def test_numpy_integer_counts_are_counts():
    assert GridSpec(np.int64(32)).h == GridSpec(32).h
    assert TimeGrid(k=0.05, N=np.int64(10)).T == TimeGrid(k=0.05, N=10).T
    assert SolverConfig(newton_iters=np.int32(2)) == SolverConfig(newton_iters=2)


def test_counts_are_bounded_where_every_index_is_an_exact_double():
    assert GridSpec(2**53).J == 2**53 and TimeGrid(k=1.0, N=2**52).N == 2**52
    assert TimeGrid.from_horizon(2.0**52, 1.0).N == 2**52
    for make, name in [
        (lambda: GridSpec(2**53 + 2), "J"),
        (lambda: TimeGrid(k=1.0, N=2**52 + 1), "N"),
        (lambda: TimeGrid.from_horizon(1.0, 1e-300), "T"),  # named before the grid is built
    ]:
        with pytest.raises(FieldErrors) as exc:
            make()
        assert [n for n, _ in exc.value.problems] == [name]
        assert "must be at most 2**5" in str(exc.value)


@pytest.mark.parametrize("R", [0.0, -1.0, math.nan, np.array([1.0, 0.0]), np.array([[1.0, 2.0], [3.0, math.nan]])])
def test_positive_radius_rejects_nonpositive_radii(R):
    # the one "R must be > 0" check; radius_rate, at_radius, neutral_delta and
    # spectral_report each call it, and their own tests pass it these radii
    with pytest.raises(ValueError, match=r"^R must be > 0, got "):
        positive_radius(R)


@pytest.mark.parametrize("R", [1e-300, 6.0, math.inf, np.float64(2.0), np.array([1.0, 2.0])])
def test_positive_radius_accepts_positive_radii(R):
    assert positive_radius(R) is None
