"""Golden key grouping: every spelling of a request keeps its cache key class.

Option reconciliation (:func:`repro.core.passes.reconcile_options`)
folds requests that can only produce the same kernel onto one cache key.
This test pins *which* requests share a key, over three request sets:

* the compile-grid key space — every ``(arch, backend, schedule,
  variant, tile)`` point of :mod:`perfbench.grid`, built from its C
  source the way the grid builds it;
* facade spellings — SW26010Pro/SW26010/toy × ``use_asm`` ×
  ``enable_rma`` × ``schedule`` {unset, recipe, optimize, off} ×
  ``kernel_backend`` {unset, vendor, parametric}, minus ``optimize``
  without the asm kernel (a refused combination).  ``use_asm`` is no
  option field; the ``asm=0`` requests go through the wire's
  ``use_asm`` alias (:func:`repro.serve.protocol.spec_and_options`),
  the one place that spelling is still accepted;
* ``Candidate.apply(CompilerOptions.full())`` for every autotuner
  candidate on SW26010Pro and toy.

The golden file stores request labels grouped by key class, not the keys
themselves, so a cache-schema bump leaves it valid while any change to
which spellings share an artifact fails here.  It also lists the
requests the compiler refuses.  Nothing is compiled: a request is
labelled, reconciled and hashed.

After an intentional change to the grouping, review the diff and
regenerate with::

    PYTHONPATH=src python -c \\
      "from tests.service.test_key_grouping import regenerate; regenerate()"
"""

from __future__ import annotations

import json
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

from repro.api import _coerce_options
from repro.core.options import CompilerOptions
from repro.core.passes import reconcile_options
from repro.core.spec import GemmSpec
from repro.errors import SwGemmError
from repro.frontend import extract_spec
from repro.serve.protocol import spec_and_options
from repro.service.keys import cache_key
from repro.sunway import get_arch
from repro.tune.space import enumerate_candidates

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "key_grouping.json"

FACADE_ARCHS = ("sw26010pro", "sw26010", "toy")
FACADE_SCHEDULES = (None, "recipe", "optimize", "off")
FACADE_BACKENDS = (None, "vendor", "parametric")
CANDIDATE_ARCHS = ("sw26010pro", "toy")


def _grid_request(point):
    from perfbench import grid

    arch = get_arch(point[0])
    spec, options = extract_spec(grid.SOURCES[point[3]], return_options=True)
    return spec, arch, _coerce_options(options, grid.overrides_for(point, arch))


def _facade_request(arch_name, overrides):
    return GemmSpec(), get_arch(arch_name), _coerce_options(None, overrides)


def _wire_request(params):
    spec, options, arch = spec_and_options(params)
    return spec, arch, options


def _candidate_request(arch, candidate):
    return GemmSpec(), arch, candidate.apply(CompilerOptions.full())


def _grid_requests() -> Iterator[Tuple[str, Callable]]:
    from perfbench import grid

    for point in grid.all_points():
        yield "grid/" + "/".join(point), partial(_grid_request, point)


def _facade_requests() -> Iterator[Tuple[str, Callable]]:
    for arch_name, use_asm, rma, schedule, backend in product(
        FACADE_ARCHS, (True, False), (True, False), FACADE_SCHEDULES,
        FACADE_BACKENDS,
    ):
        if schedule == "optimize" and not use_asm:
            continue
        overrides: Dict[str, object] = {"enable_rma": rma}
        if schedule is not None:
            overrides["schedule"] = schedule
        if backend is not None:
            overrides["kernel_backend"] = backend
        label = (
            f"facade/{arch_name}/asm={int(use_asm)}/rma={int(rma)}/"
            f"schedule={schedule or 'unset'}/backend={backend or 'unset'}"
        )
        if use_asm:
            yield label, partial(_facade_request, arch_name, overrides)
        else:
            params = {"arch": arch_name, "use_asm": False, **overrides}
            yield label, partial(_wire_request, params)


def _candidate_requests() -> Iterator[Tuple[str, Callable]]:
    for arch_name in CANDIDATE_ARCHS:
        arch = get_arch(arch_name)
        for candidate in enumerate_candidates(arch, CompilerOptions.full()):
            label = f"candidate/{arch_name}/{candidate.name()}"
            yield label, partial(_candidate_request, arch, candidate)


def requests() -> List[Tuple[str, Callable]]:
    """``(label, build)`` pairs; ``build()`` returns ``(spec, arch,
    options)`` or raises the compiler's refusal."""
    return [*_grid_requests(), *_facade_requests(), *_candidate_requests()]


def grouping() -> Dict[str, object]:
    """Labels grouped by reconciled cache key, the refused labels, and
    the labels whose reconciled options are not a fixed point."""
    classes: Dict[str, List[str]] = {}
    refused: List[str] = []
    unstable: List[str] = []
    for label, build in requests():
        try:
            spec, arch, options = build()
            reconciled = reconcile_options(spec, options, arch)
            key = cache_key(spec, arch, reconciled)
        except SwGemmError:
            refused.append(label)
            continue
        if reconcile_options(spec, reconciled, arch) != reconciled:
            unstable.append(label)
        classes.setdefault(key, []).append(label)
    groups = sorted(sorted(labels) for labels in classes.values())
    return {
        "requests": sum(len(g) for g in groups) + len(refused),
        "classes": groups,
        "refused": sorted(refused),
        "unstable": sorted(unstable),
    }


def regenerate() -> None:
    GOLDEN.write_text(json.dumps(grouping(), indent=1) + "\n")


def test_key_grouping_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    current = grouping()
    assert current["requests"] == golden["requests"]
    assert current["refused"] == golden["refused"]
    assert current["unstable"] == [] == golden["unstable"]
    assert len(current["classes"]) == len(golden["classes"])
    assert current["classes"] == golden["classes"]
