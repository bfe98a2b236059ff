"""The package namespace: each module's ``__all__`` is the public API."""

import importlib
import subprocess
import sys

import pytest

import hidesign
from hidesign.exactnum import QuadExt, RationalPoly

MODULES = ("bounds", "designs", "exactnum", "orthopoly", "tightness")

# every name the package exported while it kept its own import list, but for the
# two scipy Bessel wrappers, which a decimal series in bounds replaced
EARLIER_EXPORTS = """
AsymptoteReport BoundReport asymptotic_bound bound_table fisher_bound format_bound tight_inner_product
InnerProductSet InvalidPointSetError KernelCertificate PointSet eval_h4_basis_sum generate
harmonic_index_spectrum inner_product_set lift_design list_generators separated_component_sums
verify_harmonic_index verify_spherical_design
IncompatibleRadicandError QuadExt RationalPoly fraction_free_rank poly_gcd squarefree_part sturm_count_roots
KernelSpec MinimumReport dim_harmonic q_eval q_min q_roots
EmbedResult GraphFormatError MusinReduction ScanRecord TightnessDossier TwoDistGraph es_embeddable
es_matrices lrs_check musin_reduce read_adjacency_json read_graph6 scan_graph_corpus tightness_dossier
""".split()


@pytest.mark.parametrize("module", MODULES)
def test_every_module_name_is_exported(module):
    mod = importlib.import_module(f"hidesign.{module}")
    for name in mod.__all__:
        assert getattr(hidesign, name) is getattr(mod, name), name


def test_earlier_exports_still_resolve():
    assert len(EARLIER_EXPORTS) == len(set(EARLIER_EXPORTS)) == 47
    for name in EARLIER_EXPORTS:
        assert hasattr(hidesign, name), name
    for name in ("bessel_j", "bessel_first_zero"):
        assert not hasattr(hidesign, name) and not hasattr(hidesign.orthopoly, name), name


def test_duplicate_entry_points_are_gone():
    assert not hasattr(hidesign, "Rational")
    assert not hasattr(QuadExt, "to_dict") and not hasattr(QuadExt, "from_dict")
    assert not hasattr(RationalPoly, "eval_float")


# the names the package bound while it star-imported each module: its module
# attributes, its submodules and every module's __all__
DUNDERS = ("__builtins__ __cached__ __doc__ __file__ __loader__ __name__ __package__ "
           "__path__ __spec__ __version__").split()


def exported() -> set:
    return {*MODULES, *(name for m in MODULES for name in importlib.import_module(f"hidesign.{m}").__all__)}


def fresh(code: str) -> str:
    """The last stdout line of ``code`` run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_namespace_is_pinned():
    names = exported()
    assert len(names) == 60 and set(EARLIER_EXPORTS) < names
    assert sorted(hidesign.__all__) == sorted(names) and len(hidesign.__all__) == len(names)
    assert fresh("import hidesign; print(dir(hidesign))") == str(sorted({*DUNDERS, *names}))
    assert fresh("import hidesign.cli; print(dir(hidesign))") == str(sorted({*DUNDERS, *names, "cli"}))
    star = {}
    exec("from hidesign import *", star)
    assert set(star) - {"__builtins__"} == names
    assert all(star[name] is getattr(hidesign, name) for name in names)


def test_import_registers_the_modules_without_running_them():
    # numpy loads with designs or a float kernel, and neither runs on import
    code = ("import sys, hidesign; "
            "print(sorted(m for m in sys.modules if m.startswith('hidesign.')), 'numpy' in sys.modules)")
    assert fresh(code) == f"{[f'hidesign.{m}' for m in MODULES]} False"


@pytest.mark.parametrize("probe", ["hasattr(hidesign, 'cli')", "hasattr(hidesign, '_recurrence')",
                                   "getattr(hidesign, '__wrapped__', 0)", "hasattr(hidesign, 'q_eval.x')"])
def test_submodule_and_private_names_load_nothing(probe):
    # the import system asks hasattr(hidesign, 'cli') before importing hidesign.cli
    assert fresh(f"import sys, hidesign; print(bool({probe}), 'numpy' in sys.modules)") == "False False"


def test_from_import_of_the_cli_loads_no_numpy():
    assert fresh("import sys; from hidesign import cli; cli.build_parser(); print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("name", ["QuadExt", "q_eval", "tightness_dossier", "fisher_bound"])
def test_names_of_numpy_free_modules_load_no_numpy(name):
    # a name lookup runs exactnum, orthopoly, bounds and tightness before designs
    assert fresh(f"import sys, hidesign; hidesign.{name}; print('numpy' in sys.modules)") == "False"


def test_scalar_kernel_value_runs_with_numpy_blocked():
    code = ("import sys; sys.modules['numpy'] = None; import hidesign; "
            "print(hidesign.q_eval(hidesign.KernelSpec(5, 10), 0.3).hex())")
    assert fresh(code) == "0x1.4e93a8eacdf92p+4"
