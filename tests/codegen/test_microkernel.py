"""The micro-kernel contract (§7.2) and element-wise registry."""

import numpy as np
import pytest

from repro.codegen.elementwise import available_functions, get_elementwise
from repro.codegen.backend import resolve_kernel
from repro.codegen.microkernel import AsmMicroKernel, NaiveKernel
from repro.core.options import CompilerOptions
from repro.errors import ConfigurationError, ExecutionError
from repro.sunway.arch import SW26010PRO, TOY_ARCH


def test_asm_kernel_accumulates():
    kernel = AsmMicroKernel(TOY_ARCH)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 4))
    b = rng.standard_normal((4, 8))
    c = rng.standard_normal((8, 8))
    c0 = c.copy()
    kernel.execute(c, a, b, alpha=2.0)
    assert np.allclose(c, c0 + 2.0 * a @ b)


def test_shape_contract_enforced():
    kernel = AsmMicroKernel(TOY_ARCH)
    with pytest.raises(ExecutionError, match="contract"):
        kernel.execute(np.zeros((8, 8)), np.zeros((4, 8)), np.zeros((4, 8)), 1.0)


def test_kernel_names_embed_shape():
    assert AsmMicroKernel(SW26010PRO).name == "asm_dgemm_64x64x32"
    assert NaiveKernel(SW26010PRO).name == "naive_dgemm_64x64x32"


def test_naive_is_much_slower():
    asm = AsmMicroKernel(SW26010PRO).seconds_per_call
    naive = NaiveKernel(SW26010PRO).seconds_per_call
    assert naive > 20 * asm


def test_get_kernel_dispatch():
    asm = resolve_kernel(SW26010PRO, CompilerOptions())
    naive = resolve_kernel(SW26010PRO, CompilerOptions(kernel_backend="naive"))
    assert isinstance(asm, AsmMicroKernel)
    assert isinstance(naive, NaiveKernel)


# -- element-wise registry -------------------------------------------------------


def test_registry_contents():
    funcs = available_functions()
    assert {"quant", "relu", "sigmoid", "tanh", "identity"} <= set(funcs)


def test_unknown_function_raises():
    with pytest.raises(ConfigurationError):
        get_elementwise("frobnicate")


@pytest.mark.parametrize("name", ["quant", "relu", "sigmoid", "tanh", "identity"])
def test_functions_are_deterministic_and_shaped(name):
    fn = get_elementwise(name).numpy_fn
    x = np.linspace(-2, 2, 17)
    assert (fn(x) == fn(x)).all()
    assert fn(x).shape == x.shape


def test_quant_snaps_to_sixteenths():
    fn = get_elementwise("quant").numpy_fn
    y = fn(np.array([0.03, 0.97, -0.53]))
    assert np.allclose(y * 16, np.round(y * 16))


def test_relu_clamps():
    fn = get_elementwise("relu").numpy_fn
    assert (fn(np.array([-1.0, 2.0])) == [0.0, 2.0]).all()


def test_c_templates_format():
    for func in available_functions().values():
        rendered = func.c_template.format(x="C[i][j]")
        assert "C[i][j]" in rendered


def test_rates_positive():
    for func in available_functions().values():
        assert func.cpe_rate > 0 and func.mpe_rate > 0
