"""Every public function and class of the package has a caller, and
every private one has a use.

A public name counts as called when it appears in the package's code
outside its own def or class line, anywhere in the benchmark scripts
(which look some names up by string), or in PAPER_CHECKS, which maps
each paper-verification name that only tests call to a test that calls
it.  A private module-level function, class or constant must appear in
the package's code besides its definition.  Docstrings and comments of
the package do not count as callers.
"""

import ast
import collections
import inspect
import io
import re
import tokenize
from pathlib import Path

import pytest

from inandout import bodies, cli, diagnostics, planner, sampler, specfun

ROOT = Path(__file__).resolve().parent.parent
MODULES = (bodies, cli, diagnostics, planner, sampler, specfun)

# paper-verification names that only tests call -> a test that calls them
PAPER_CHECKS = {
    "run_in_and_out": "tests/test_sampler.py::test_frozen_trajectory",
    "failure_rate_by_iteration":
        "tests/test_acceptance.py::test_criterion_5_end_to_end_annulus",
    "failure_rate_slope": "tests/test_acceptance.py::test_criterion_5_end_to_end_annulus",
    "with_growth": "tests/test_acceptance.py::test_criterion_3_certificate_algebra",
    "check_gamma_ratio_bound": "tests/test_acceptance.py::test_criterion_2_special_functions",
    "gaussian_concentration_bound":
        "tests/test_acceptance.py::test_criterion_2_special_functions",
    "renyi_error_bound": "tests/test_planner.py::test_renyi_error_bound_meets_budget",
    "expected_total_trials_bound":
        "tests/test_planner.py::test_expected_total_trials_bound_value",
}


def public_names():
    """(module, name) of each function and class a module defines and exports."""
    return [(m, name) for m in MODULES for name, obj in vars(m).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == m.__name__]


def package_code_names() -> collections.Counter:
    """How often each identifier appears in the package's code, leaving
    out each def and class name."""
    names = collections.Counter()
    for path in PACKAGE_FILES:
        previous = None
        source = io.StringIO(path.read_text(encoding="utf-8"))
        for tok in tokenize.generate_tokens(source.readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                names[tok.string] += 1
            previous = tok.string
    return names


def private_definitions() -> list:
    """(module, name, is_constant) of each private module-level function,
    class and assigned name of the package; dunder names are left out."""
    found = []
    for path in PACKAGE_FILES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [(node.name, False)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [(n.id, True) for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name)]
            else:
                continue
            found += [(path.stem, name, constant) for name, constant in defined
                      if name.startswith("_") and not name.startswith("__")]
    return found


PUBLIC = public_names()
PACKAGE_FILES = sorted((ROOT / "src" / "inandout").glob("*.py"))
CODE_NAMES = package_code_names()
PRIVATE = private_definitions()
BENCH_TEXT = "\n".join(p.read_text(encoding="utf-8")
                       for p in sorted((ROOT / "bench").glob("*.py")))


@pytest.mark.parametrize("module,name", PUBLIC,
                         ids=[f"{m.__name__.split('.')[-1]}.{n}" for m, n in PUBLIC])
def test_public_name_has_a_caller(module, name):
    assert (name in CODE_NAMES
            or re.search(rf"\b{name}\b", BENCH_TEXT)
            or name in PAPER_CHECKS), (
        f"{module.__name__}.{name} is called only by tests: delete it, or map it "
        f"to the paper check that uses it in PAPER_CHECKS")


@pytest.mark.parametrize("name", sorted(PAPER_CHECKS))
def test_paper_check_entry_names_a_test_that_calls_it(name):
    assert name in {n for _, n in PUBLIC}
    path, test = PAPER_CHECKS[name].split("::")
    source = (ROOT / path).read_text(encoding="utf-8")
    funcs = {node.name: node for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef)}
    assert test in funcs, f"{path} has no test {test}"
    assert re.search(rf"\b{name}\b", ast.get_source_segment(source, funcs[test]))


@pytest.mark.parametrize("module,name", [(m, n) for m, n, _ in PRIVATE],
                         ids=[f"{m}.{n}" for m, n, _ in PRIVATE])
def test_private_name_is_used(module, name):
    # an assignment's own target is one of the counted names; a def or
    # class name is not
    definitions = sum(c for _, n, c in PRIVATE if n == name)
    assert CODE_NAMES[name] > definitions, (
        f"{module}.{name} is named nowhere in the package besides its definition: "
        f"delete it")
