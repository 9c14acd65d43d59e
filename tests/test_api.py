"""The public names of each module, pinned as sets.

Adding or removing a public name changes this file, so the change shows in
review.  ``memcost.errors`` and ``memcost.numerics`` declare no ``__all__``;
the package namespace re-exports every error class.
"""

import ast
import importlib
import inspect
from pathlib import Path

import memcost
from memcost import errors

PUBLIC = {
    "cli": {"OutputTable", "main", "parse_grid"},
    "cost_engine": {
        "BoundConstants", "CostPoint", "LimitReduction", "Regime", "RhoSolution", "ThresholdReport",
    },
    "deformed": {
        "DeformedReduction", "PopulationSpectrum", "load_population_spectrum", "parse_population_spectrum",
    },
    "finite_n_lab": {
        "DesignSample", "EntryDist", "ExperimentConfig", "Readings", "bai_yin_check",
        "esd_from_design", "kolmogorov_distance", "sample_design", "summarize_trials",
        "trial_metrics", "trial_seed",
    },
    "oracle": {
        "DesignOracle", "build_estimator", "mp_integrate", "pred_error_direct",
        "train_error_direct", "verify_checks",
    },
    "spectra": {"MPLaw", "mp_cdf", "mp_shrinkage", "mp_stieltjes_neg"},
}


def test_each_module_exports_its_pinned_names():
    assert sum(len(names) for names in PUBLIC.values()) == 34
    for name, names in PUBLIC.items():
        exported = importlib.import_module(f"memcost.{name}").__all__
        assert len(exported) == len(set(exported)), name
        assert set(exported) == names, name


def test_the_package_imports_only_public_names():
    tree = ast.parse(Path(memcost.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        for alias in node.names:
            if node.module == "errors":
                assert issubclass(getattr(errors, alias.name), errors.MemcostError)
            else:
                assert alias.name in PUBLIC[node.module], f"{node.module}.{alias.name}"
    error_classes = {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, errors.MemcostError)
    }
    assert error_classes <= set(vars(memcost))


def test_the_limit_reduction_is_the_package_entry_point():
    from memcost import cost_engine

    assert memcost.LimitReduction is cost_engine.LimitReduction
    assert not [name for name in cost_engine.__all__ if inspect.isfunction(getattr(cost_engine, name))]


def _imported_names(module: str) -> list:
    """Every name an import statement anywhere in ``memcost/<module>.py`` imports, as module.name."""
    tree = ast.parse(Path(memcost.__file__).with_name(f"{module}.py").read_text(encoding="utf-8"))
    return [
        f"{getattr(node, 'module', None) or ''}.{alias.name}"
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
    ]


def test_the_limit_law_imports_nothing_from_the_deformed_law():
    # deformed imports cost_engine, so the anisotropic limit lands on DeformedReduction
    imported = _imported_names("cost_engine")
    assert imported and not [name for name in imported if "deformed" in name.split(".")]


def test_the_deformed_law_imports_nothing_from_numpy():
    # deformed needs only the standard library; apportion_atoms builds the arrays it reads
    imported = _imported_names("deformed")
    assert imported and not [name for name in imported if "numpy" in name.split(".")]
