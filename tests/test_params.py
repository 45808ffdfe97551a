import math

import pytest

from ksring.field import GridSpec, PeriodicField
from ksring.params import FieldErrors, ModelParams, SolverConfig, TimeGrid


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
