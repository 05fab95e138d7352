"""GemmSpec validation and polyhedral views."""

import pytest

from repro.core.options import ELEMENTWISE_FUNCS, CompilerOptions
from repro.core.spec import GemmSpec
from repro.errors import ConfigurationError


def test_defaults():
    spec = GemmSpec()
    assert spec.param_names() == ("M", "N", "K")
    assert spec.loop_dims() == ("i", "j", "k")
    assert not spec.is_batched


def test_batched_views():
    spec = GemmSpec(batch_param="BS")
    assert spec.loop_dims() == ("b", "i", "j", "k")
    assert spec.param_names() == ("BS", "M", "N", "K")
    assert spec.statement_space().rank == 4


def test_distinct_names_enforced():
    with pytest.raises(ConfigurationError):
        GemmSpec(a_name="X", b_name="X")
    with pytest.raises(ConfigurationError):
        GemmSpec(m_param="P", n_param="P")
    with pytest.raises(ConfigurationError):
        GemmSpec(batch_param="M")


def test_both_fusions_rejected():
    with pytest.raises(ConfigurationError):
        GemmSpec(prologue_func="quant", epilogue_func="relu")


def test_domain_counts():
    spec = GemmSpec()
    assert spec.domain().count({"M": 3, "N": 2, "K": 2}) == 12
    batched = GemmSpec(batch_param="BS")
    assert batched.domain().count({"BS": 2, "M": 2, "N": 2, "K": 2}) == 16


def test_accesses_roles():
    accesses = GemmSpec().accesses()
    writes = [a for a in accesses if a.is_write]
    assert len(writes) == 1 and writes[0].array == "C"
    names = sorted({a.array for a in accesses})
    assert names == ["A", "B", "C"]


def test_transposed_dims():
    spec = GemmSpec(trans_a=True, trans_b=True)
    assert spec.a_dims() == ("K", "M")
    assert spec.b_dims() == ("N", "K")
    assert spec.c_dims() == ("M", "N")
    # Subscripts follow the storage layout.
    a_access = next(a for a in spec.accesses() if a.array == "A")
    assert [str(e) for e in a_access.map.exprs] == ["k", "i"]


def test_flops():
    assert GemmSpec().flops(2, 3, 4) == 48.0
    assert GemmSpec().flops(2, 3, 4, batch=2) == 96.0


def test_options_variant_names():
    assert CompilerOptions.baseline().variant_name() == "dma-only"
    assert CompilerOptions.with_asm().variant_name() == "+asm"
    assert CompilerOptions.with_rma().variant_name() == "+rma"
    assert CompilerOptions.full().variant_name() == "+hiding"


def test_options_validation():
    with pytest.raises(ConfigurationError):
        CompilerOptions(fusion="sideways")
    with pytest.raises(ConfigurationError):
        CompilerOptions(prologue_func="nope")
    assert "quant" in ELEMENTWISE_FUNCS


def test_options_with_override():
    options = CompilerOptions.full().with_(batch=True)
    assert options.batch and options.use_asm
