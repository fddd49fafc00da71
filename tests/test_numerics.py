import numpy as np
import pytest

from adamxlab import FeasibleBox, as_vector, project_box


def test_box_requires_matching_shapes():
    with pytest.raises(ValueError):
        FeasibleBox(lower=np.array([0.0, 0.0]), upper=np.array([1.0]))


def test_box_requires_lower_below_upper():
    with pytest.raises(ValueError):
        FeasibleBox(lower=np.array([1.0]), upper=np.array([0.0]))


def test_cube_constructor():
    box = FeasibleBox.cube(-1.0, 1.0, 3)
    assert box.dim == 3
    assert box.diameter == 2.0
    np.testing.assert_array_equal(box.center(), np.zeros(3))


def test_diameter_is_largest_side():
    box = FeasibleBox(lower=np.array([0.0, -3.0]), upper=np.array([1.0, 4.0]))
    # sides are 1 and 7, the sup-norm diameter is the larger one
    assert box.diameter == 7.0


def test_contains():
    box = FeasibleBox.cube(-1.0, 1.0, 2)
    assert box.contains(np.array([0.5, -1.0]))
    assert not box.contains(np.array([0.5, -1.0000001]))


def test_projection_clips_coordinatewise():
    box = FeasibleBox(lower=np.array([-1.0, 0.0]), upper=np.array([1.0, 2.0]))
    out = project_box(np.array([-5.0, 3.0]), box)
    np.testing.assert_array_equal(out, np.array([-1.0, 2.0]))


def test_projection_identity_inside():
    box = FeasibleBox.cube(-1.0, 1.0, 2)
    x = np.array([0.25, -0.75])
    np.testing.assert_array_equal(project_box(x, box), x)


def test_projection_idempotent_and_feasible_seeded():
    rng = np.random.default_rng(7)
    box = FeasibleBox(lower=-rng.uniform(0.5, 2.0, size=4),
                      upper=rng.uniform(0.5, 2.0, size=4))
    for _ in range(200):
        x = rng.normal(scale=5.0, size=4)
        p = project_box(x, box)
        assert box.contains(p)
        np.testing.assert_array_equal(project_box(p, box), p)


def linf_norm(v):
    """Largest absolute coordinate."""
    return float(np.max(np.abs(as_vector(v))))


def test_linf_norm():
    assert linf_norm(np.array([1.0, -3.0, 2.0])) == 3.0
    assert linf_norm(np.zeros(2)) == 0.0

