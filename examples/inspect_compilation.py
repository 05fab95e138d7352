#!/usr/bin/env python3
"""Walk through the compiler's intermediate representations.

Shows what each pass of §§3-7 does to the schedule tree — the figures of
the paper, live:

1. the initial domain + band (Fig. 2b) with the dependence analysis'
   parallelism/tilability verdict;
2. after tiling and mesh binding (Fig. 4);
3. after strip-mining the reduced dimension (Fig. 6);
4. the final tree with DMA/RMA extension nodes and peeling (Figs. 9/11);
5. the generated athread C (§7).

The raw pass pipeline is the point here, so it compiles with
:class:`repro.core.pipeline.GemmCompiler` rather than the cached
``repro.api.compile``.

Run:  python examples/inspect_compilation.py [--schedule=off]
"""

import sys

from repro import CompilerOptions, GemmSpec
from repro.core.pipeline import GemmCompiler
from repro.core.decomposition import decompose
from repro.core.tile_model import plan_for_kernel, search_optimal_shape
from repro.poly.dependences import analyze_statement
from repro.sunway.arch import SW26010PRO


def headline(text: str) -> None:
    print(f"\n=== {text} " + "=" * max(0, 60 - len(text)))


def main() -> None:
    schedule = "off" if "--schedule=off" in sys.argv else "recipe"
    options = CompilerOptions.full().with_(schedule=schedule)
    spec = GemmSpec()

    headline("dependence analysis (what isl annotates, Sec. 2.2)")
    summary = analyze_statement(spec.domain(), spec.accesses(), spec.loop_dims())
    print(f"coincident (parallel) dims : "
          f"{[d for d, c in zip(summary.loop_dims, summary.coincident) if c]}")
    print(f"band permutable (tilable)  : {summary.permutable}")
    print(f"reduction dims             : {list(summary.reduction_dims)}")

    headline("analytical tile-size model (Sec. 3.1)")
    best, scores = search_optimal_shape(SW26010PRO)
    print(f"modelled optimum: {best} "
          f"(matches the vendor kernel: {best == SW26010PRO.micro_kernel})")

    headline("decomposition: tiling + mesh binding + strip-mining (Sec. 3)")
    plan = plan_for_kernel(SW26010PRO, options)
    dec = decompose(spec, plan, options)
    print(dec.root.dump())

    headline("final schedule tree with DMA/RMA and peeling (Figs. 9/11)")
    program = GemmCompiler(SW26010PRO, options).compile(spec)
    dump = program.tree_dump()
    print(dump[:3500])
    if len(dump) > 3500:
        print(f"... ({len(dump) - 3500} more characters)")

    headline("generated CPE athread C (Sec. 7)")
    source = program.cpe_source()
    print(source[:3000])
    print(f"... ({len(source.splitlines())} lines total; "
          f"MPE side has {len(program.mpe_source().splitlines())})")


if __name__ == "__main__":
    main()
