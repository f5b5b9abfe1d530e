"""Every ``__all__`` entry of the package and of each module names an attribute, once, and has a job."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import simplexgrad

MODULES = ["simplexgrad"] + [f"simplexgrad.{m.name}" for m in pkgutil.iter_modules(simplexgrad.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), sorted(e for e in exported if exported.count(e) > 1)
    assert [e for e in exported if not hasattr(module, e)] == []


# Public names that no package module uses, each kept on purpose as a reference or a documented capability
REFERENCE_ONLY = {
    "monomial_ball_integral": "exact oracle the quadrature rules are tested against",
    "abs_monomial_ball_integral": "exact oracle for |x|-moments, which the rules are tested against",
    "grid_gram": "closed-form Gram the walk's Gram is checked against",
    "grid_gram_inverse": "closed-form inverse Gram that dense_limit_matrix is checked against",
    "grid_jacobian": "Jacobian of the polar map, for the Jacobian-weighted Riemann-sum and weighted-Gram tests",
    "taylor_diagnostics": "the README's split T = v + w (+ z) of the moment vector",
    "make_affine": "the seeded draw that the registry's float.hex affine coefficients reproduce",
}


def _loaded_names() -> set[str]:
    """Every name that a package module other than ``__init__`` loads, bare or as an attribute."""
    loaded = set()
    for path in Path(simplexgrad.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_public_name_has_a_job_in_the_package():
    loaded = _loaded_names()
    assert [name for name in simplexgrad.__all__ if name not in loaded and name not in REFERENCE_ONLY] == []
    # the reference-only names are public and still have no job; one that gets a job leaves the dict
    assert sorted(set(REFERENCE_ONLY) - set(simplexgrad.__all__)) == []
    assert sorted(set(REFERENCE_ONLY) & loaded) == []
