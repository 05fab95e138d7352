"""The kernel backend layer (:mod:`repro.codegen.backend`).

Covers the registry, the vendor backend's bit-exact equivalence with the
pre-refactor asm kernel, the parametric generator's legality
checks and cost model, and ``resolve_kernel`` as the single entry point
the pipeline/lowering/executor share.
"""

import numpy as np
import pytest

from repro.codegen.backend import (
    DEFAULT_BACKEND,
    GeneratedMicroKernel,
    ParametricKernelBackend,
    VendorKernelBackend,
    backend_names,
    get_backend,
    resolve_kernel,
    select_register_block,
)
from repro.codegen.microkernel import AsmMicroKernel, NaiveKernel
from repro.core.options import CompilerOptions, TileConfig
from repro.errors import ConfigurationError
from repro.sunway.arch import SW26010, SW26010PRO, MicroKernelShape


class TestRegistry:
    def test_both_backends_registered(self):
        assert set(backend_names()) >= {"vendor", "parametric"}

    def test_default_is_vendor(self):
        assert DEFAULT_BACKEND == "vendor"
        assert get_backend(None).name == "vendor"
        assert get_backend().name == "vendor"

    def test_lookup_by_name(self):
        assert isinstance(get_backend("vendor"), VendorKernelBackend)
        assert isinstance(get_backend("parametric"), ParametricKernelBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_backend("no-such-backend")


class TestVendorBackend:
    def test_bit_exact_with_pre_refactor_get_kernel(self):
        """The default path must not change at all: same class, same
        name, same cost as the pre-backend asm kernel selection."""
        shape = SW26010PRO.micro_kernel
        old = AsmMicroKernel(SW26010PRO)
        new = get_backend("vendor").generate(
            shape, SW26010PRO.simd_doubles, SW26010PRO
        )
        assert type(new) is AsmMicroKernel
        assert new.name == old.name == "asm_dgemm_64x64x32"
        assert new.seconds_per_call == old.seconds_per_call

    def test_accepts_non_contract_shapes(self):
        """The tuner compiles non-default shapes under vendor names; the
        vendor backend must keep admitting them."""
        kernel = get_backend("vendor").generate(
            MicroKernelShape(32, 128, 16), SW26010PRO.simd_doubles, SW26010PRO
        )
        assert kernel.name == "asm_dgemm_32x128x16"


class TestParametricBackend:
    def test_generates_at_contract_shape(self):
        kernel = get_backend("parametric").generate(
            SW26010PRO.micro_kernel, SW26010PRO.simd_doubles, SW26010PRO
        )
        assert isinstance(kernel, GeneratedMicroKernel)
        assert kernel.name == "gen_dgemm_64x64x32"

    def test_generated_kernel_is_numerically_exact(self):
        shape = MicroKernelShape(16, 16, 8)
        kernel = get_backend("parametric").generate(
            shape, SW26010PRO.simd_doubles, SW26010PRO
        )
        rng = np.random.default_rng(0)
        a = rng.random((16, 8))
        b = rng.random((8, 16))
        c = rng.random((16, 16))
        expected = c + 0.5 * (a @ b)
        kernel.execute(c, a, b, 0.5)
        np.testing.assert_array_equal(c, expected)

    def test_generated_kernel_slower_than_vendor_at_contract(self):
        """The per-register-block overhead keeps the vendor object the
        measured optimum at its own shape (§7.2 survives)."""
        shape = SW26010PRO.micro_kernel
        vendor = get_backend("vendor").generate(
            shape, SW26010PRO.simd_doubles, SW26010PRO
        )
        generated = get_backend("parametric").generate(
            shape, SW26010PRO.simd_doubles, SW26010PRO
        )
        assert generated.seconds_per_call > vendor.seconds_per_call
        # ... but only by the modelled overhead, not grossly.
        assert generated.seconds_per_call < 1.10 * vendor.seconds_per_call

    def test_register_block_fits_register_file(self):
        rm, rn_vecs = select_register_block(
            SW26010PRO.micro_kernel, SW26010PRO
        )
        assert (rm, rn_vecs) == (8, 2)
        assert rm * rn_vecs + rn_vecs + 2 <= SW26010PRO.vector_registers

    def test_refuses_non_simd_multiple_nt(self):
        reason = get_backend("parametric").supports(
            MicroKernelShape(64, 36, 32), SW26010PRO
        )
        assert reason is not None and "SIMD" in reason

    def test_refuses_shallow_reduction(self):
        reason = get_backend("parametric").supports(
            MicroKernelShape(64, 64, 1), SW26010PRO
        )
        assert reason is not None

    def test_refuses_spm_overflow(self):
        reason = get_backend("parametric").supports(
            MicroKernelShape(64, 64, 32).__class__(256, 256, 128), SW26010
        )
        assert reason is not None and "SPM" in reason

    def test_generate_raises_configuration_error_on_refusal(self):
        with pytest.raises(ConfigurationError, match="cannot generate"):
            get_backend("parametric").generate(
                MicroKernelShape(64, 36, 32), SW26010PRO.simd_doubles,
                SW26010PRO,
            )

    def test_source_is_self_contained_simd_c(self):
        kernel = get_backend("parametric").generate(
            SW26010PRO.micro_kernel, SW26010PRO.simd_doubles, SW26010PRO
        )
        source = kernel.source()
        assert "gen_dgemm_64x64x32" in source
        assert "doublev8" in source


class TestResolveKernel:
    def test_default_options_yield_vendor_kernel(self):
        kernel = resolve_kernel(SW26010PRO, CompilerOptions())
        assert type(kernel) is AsmMicroKernel

    def test_no_asm_bypasses_backends(self):
        kernel = resolve_kernel(SW26010PRO, CompilerOptions.baseline())
        assert type(kernel) is NaiveKernel

    def test_backend_option_selects_generator(self):
        options = CompilerOptions(kernel_backend="parametric")
        kernel = resolve_kernel(SW26010PRO, options)
        assert isinstance(kernel, GeneratedMicroKernel)

    def test_tile_config_steers_shape(self):
        options = CompilerOptions(tile_config=TileConfig(32, 32, 16))
        kernel = resolve_kernel(SW26010PRO, options)
        assert kernel.shape == MicroKernelShape(32, 32, 16)

    def test_explicit_shape_wins(self):
        kernel = resolve_kernel(
            SW26010PRO, CompilerOptions(), MicroKernelShape(32, 64, 16)
        )
        assert kernel.shape == MicroKernelShape(32, 64, 16)

    def test_unknown_backend_name_rejected_at_option_construction(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            CompilerOptions(kernel_backend="bogus")
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            CompilerOptions(kernel_backend=None)

    def test_kernel_backend_is_the_one_kernel_field(self):
        """``naive``/``vendor``/``parametric`` spell the whole kernel
        choice; ``use_asm`` is read off it and cannot be set."""
        assert CompilerOptions().kernel_backend == DEFAULT_BACKEND
        for name, asm in (
            ("naive", False), ("vendor", True), ("parametric", True)
        ):
            assert CompilerOptions(kernel_backend=name).use_asm is asm
        with pytest.raises(TypeError, match="use_asm"):
            CompilerOptions(use_asm=False)
