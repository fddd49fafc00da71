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


def test_every_built_in_problem_has_a_float_oracle():
    # without one a named run takes the step loop, 2-5x slower a step at small d
    for problem in (adamxlab.synthetic_problem(), adamxlab.quadratic_problem(0, 3),
                    adamxlab.toy_training_problem(0)):
        assert callable(problem.grad_floats), problem.name
