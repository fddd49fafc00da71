"""The public names of ``adamxlab``: each one has a caller in the package."""

import ast
from dataclasses import fields
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
    # a problem has one gradient callable, grad, and may add a column: the
    # synthetic and quadratic problems hand the run kernel their c_t rows,
    # and it calls the logistic problem's grad
    names = [f.name for f in fields(adamxlab.ProblemInstance) if "grad" in f.name]
    assert names == ["grad", "affine_grad"]
    synthetic, quadratic, logistic = (adamxlab.synthetic_problem(),
                                      adamxlab.quadratic_problem(0, 3),
                                      adamxlab.toy_training_problem(0))
    assert synthetic.affine_grad[0] == 0.0 and quadratic.affine_grad[0] == 1.0
    assert callable(logistic.grad) and logistic.affine_grad is None
