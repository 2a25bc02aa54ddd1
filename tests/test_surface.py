"""Every public function and class of the package has a caller.

A name counts as called when it appears in the package's code outside
its own def or class line, anywhere in the benchmark scripts (which look
some names up by string), or in PAPER_CHECKS, which maps each
paper-verification name that only tests call to a test that calls it.
Docstrings and comments of the package do not count as callers.
"""

import ast
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


def package_code_names() -> set:
    """Identifiers in the package's code, leaving out each def and class name."""
    names = set()
    for path in sorted((ROOT / "src" / "inandout").glob("*.py")):
        previous = None
        source = io.StringIO(path.read_text(encoding="utf-8"))
        for tok in tokenize.generate_tokens(source.readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                names.add(tok.string)
            previous = tok.string
    return names


PUBLIC = public_names()
CODE_NAMES = package_code_names()
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
