"""The public names of ``adamxlab``: each one has a caller in the package."""

import ast
from pathlib import Path

import adamxlab

SRC = Path(adamxlab.__file__).parent


def used_names():
    """Every name the package's modules, less ``__init__``, read as a bare
    name or an attribute."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_in_the_package():
    public = set(adamxlab.__all__) - {"__version__"}
    assert sorted(public - used_names()) == []


def test_every_built_in_problem_has_a_kernel_gradient_source():
    # without one a named run could not take the run kernel: the synthetic and
    # quadratic problems hand it a column of c_t rows, the logistic problem a
    # float oracle
    synthetic, quadratic, logistic = (adamxlab.synthetic_problem(),
                                      adamxlab.quadratic_problem(0, 3),
                                      adamxlab.toy_training_problem(0))
    assert synthetic.affine_grad[0] == 0.0 and synthetic.grad_floats is None
    assert quadratic.affine_grad[0] == 1.0 and quadratic.grad_floats is None
    assert callable(logistic.grad_floats) and logistic.affine_grad is None
