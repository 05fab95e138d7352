"""Mini-isl: a from-scratch polyhedral layer for the swgemm reproduction.

The paper builds its compiler on isl schedule trees (Grosser et al., TOPLAS
2015).  isl itself is a large C library; this package re-implements the
subset the paper's transformations actually exercise, with the same
vocabulary:

* :mod:`repro.poly.space` — named spaces and statement tuples;
* :mod:`repro.poly.affine` — quasi-affine expressions (integer linear
  expressions extended with ``floor(e/d)`` and ``e mod d`` terms);
* :mod:`repro.poly.iset` / :mod:`repro.poly.imap` — integer sets and
  multi-dimensional quasi-affine maps, with exact box (interval) reasoning
  used for memory-footprint computation;
* :mod:`repro.poly.dependences` — distance-vector dependence analysis that
  determines the parallelism and tilability attributes isl attaches to the
  initial band (§2.2 of the paper);
* :mod:`repro.poly.schedule_tree` — the schedule-tree IR with domain, band,
  sequence, filter, extension, mark and context nodes (Fig. 2);
* :mod:`repro.poly.astgen` — the schedule-tree → AST scanner, including the
  new AST node type introduced for DMA/RMA extensions (§7.1).
"""

from repro.poly.affine import AffExpr, FloorDiv, aff_const, aff_var
from repro.poly.space import Space
from repro.poly.iset import Constraint, IntegerSet, box_set
from repro.poly.imap import AffineMap
from repro.poly.schedule_tree import (
    BandNode,
    ContextNode,
    DomainNode,
    ExtensionNode,
    FilterNode,
    MarkNode,
    ScheduleNode,
    SequenceNode,
)

__all__ = [
    "AffExpr",
    "FloorDiv",
    "aff_const",
    "aff_var",
    "Space",
    "Constraint",
    "IntegerSet",
    "box_set",
    "AffineMap",
    "ScheduleNode",
    "DomainNode",
    "BandNode",
    "SequenceNode",
    "FilterNode",
    "ExtensionNode",
    "MarkNode",
    "ContextNode",
]
