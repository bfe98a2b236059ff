"""The package namespace: each module's ``__all__`` is the public API."""

import importlib

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
