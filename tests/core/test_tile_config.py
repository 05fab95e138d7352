"""TileConfig: validation, normalisation in reconcile_options, and its
effect on plans, variant names and cache keys."""

import pytest

from repro.core import CompilerOptions, GemmSpec
from repro.core.options import TILE_ALIGN, TileConfig
from repro.core.passes import reconcile_options
from repro.core.tile_model import plan_for_kernel
from repro.errors import ConfigurationError
from repro.service import cache_key
from repro.sunway.arch import SW26010PRO, TOY_ARCH


# -- validation --------------------------------------------------------------


@pytest.mark.parametrize("bad", [(0, 64, 32), (64, -4, 32), (64, 64, 30)])
def test_tiles_must_be_positive_multiples_of_align(bad):
    with pytest.raises(ConfigurationError, match=f"multiple of {TILE_ALIGN}"):
        TileConfig(*bad)


def test_k_strip_is_derived_not_pinned():
    """The strip-mine factor follows from the RMA mode; a tile carries
    only its three sizes."""
    with pytest.raises(TypeError, match="k_strip"):
        TileConfig(64, 64, 32, k_strip=8)
    assert plan_for_kernel(
        SW26010PRO, CompilerOptions.full().with_(tile_config=TileConfig(32, 32, 16))
    ).strip_factor == SW26010PRO.mesh_rows


def test_name_encodes_all_pins():
    assert TileConfig(32, 128, 32).name() == "32x128x32"


def test_default_for_round_trips():
    cfg = TileConfig.default_for(SW26010PRO)
    assert cfg.shape() == SW26010PRO.micro_kernel
    assert cfg.is_default_for(SW26010PRO)
    assert not cfg.is_default_for(TOY_ARCH)


# -- normalisation in reconcile_options --------------------------------------


def test_default_config_collapses_to_none():
    options = CompilerOptions.full().with_(
        tile_config=TileConfig.default_for(SW26010PRO)
    )
    out = reconcile_options(GemmSpec(), options, SW26010PRO)
    assert out.tile_config is None


def test_without_arch_tiles_pass_through():
    options = CompilerOptions.full().with_(
        tile_config=TileConfig.default_for(SW26010PRO)
    )
    out = reconcile_options(GemmSpec(), options)
    assert out.tile_config is not None


# -- effect on the plan and the artifact identity ----------------------------


def test_plan_follows_the_tile_config():
    options = CompilerOptions.full().with_(
        tile_config=TileConfig(32, 128, 32)
    )
    plan = plan_for_kernel(SW26010PRO, options)
    assert (plan.mt, plan.nt, plan.kt) == (32, 128, 32)


def test_variant_name_carries_the_tile_suffix():
    options = CompilerOptions.full().with_(
        tile_config=TileConfig(32, 128, 32)
    )
    assert options.variant_name().endswith("@32x128x32")
    assert "@" not in CompilerOptions.full().variant_name()


def test_cache_key_ignores_a_restated_default():
    plain = cache_key(GemmSpec(), SW26010PRO, CompilerOptions.full())
    restated = cache_key(
        GemmSpec(),
        SW26010PRO,
        CompilerOptions.full().with_(
            tile_config=TileConfig.default_for(SW26010PRO)
        ),
    )
    assert plain == restated


def test_cache_key_separates_real_tile_configs():
    plain = cache_key(GemmSpec(), SW26010PRO, CompilerOptions.full())
    tuned = cache_key(
        GemmSpec(),
        SW26010PRO,
        CompilerOptions.full().with_(tile_config=TileConfig(32, 128, 32)),
    )
    assert plain != tuned
