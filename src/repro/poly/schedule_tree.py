"""Schedule trees.

The internal representation of the polyhedral model used throughout the
paper (Grosser, Verdoolaege, Cohen — "Polyhedral AST Generation Is More
Than Scanning Polyhedra").  The node types reproduce §2.2:

``DomainNode``
    Root; a group of integer sets, one per statement.
``BandNode``
    A (partial) schedule: one quasi-affine expression per statement per
    band member.  Members carry the ``coincident`` (parallelizable) and
    band-level ``permutable`` (tilable) attributes that the dependence
    analysis attaches, plus the explicit loop extent our transforms
    derive — which is what the AST generator scans.
``SequenceNode`` / ``FilterNode``
    Ordered execution of filtered statement subsets; filters may also
    carry constraints on ancestor band variables, which is how loop
    peeling (§6.2, Fig. 11) is expressed.
``ExtensionNode``
    Introduces auxiliary statements not covered by the domain — the DMA
    and RMA copy statements of §§4-5 (Fig. 9).
``MarkNode``
    Carries a string for the code generator — used to splice in the
    inline assembly micro kernel (§7.2) and to skip fused prologue
    subtrees (§7.3, Fig. 12a).
``ContextNode``
    Constraints on parameters (e.g. divisibility assumptions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ScheduleTreeError
from repro.poly.affine import AffExpr
from repro.poly.imap import AffineMap
from repro.poly.iset import Constraint, IntegerSet


class ScheduleNode:
    """Base class of all schedule-tree nodes."""

    kind = "node"

    def __init__(self, children: Optional[List["ScheduleNode"]] = None) -> None:
        self.children: List[ScheduleNode] = list(children or [])

    # -- tree structure -------------------------------------------------

    @property
    def child(self) -> "ScheduleNode":
        """The unique child (raises for sequence nodes with != 1 child)."""
        if len(self.children) != 1:
            raise ScheduleTreeError(
                f"{self.kind} node has {len(self.children)} children, expected 1"
            )
        return self.children[0]

    def set_child(self, node: "ScheduleNode") -> None:
        self.children = [node]

    def walk(self) -> Iterator["ScheduleNode"]:
        """Pre-order traversal."""
        yield self
        for c in self.children:
            yield from c.walk()

    def find_all(self, kind: type) -> List["ScheduleNode"]:
        return [n for n in self.walk() if isinstance(n, kind)]

    def find_mark(self, mark: str) -> Optional["MarkNode"]:
        for n in self.walk():
            if isinstance(n, MarkNode) and n.mark == mark:
                return n
        return None

    def replace_child(self, old: "ScheduleNode", new: "ScheduleNode") -> None:
        for i, c in enumerate(self.children):
            if c is old:
                self.children[i] = new
                return
        raise ScheduleTreeError("replace_child: old child not found")

    # -- display -----------------------------------------------------------

    def _label(self) -> str:
        return self.kind.upper()

    def dump(self, indent: int = 0) -> str:
        """Indented dump resembling the paper's schedule-tree figures."""
        lines = ["  " * indent + self._label()]
        for c in self.children:
            lines.append(c.dump(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.kind} node>"


class DomainNode(ScheduleNode):
    """Root node: one :class:`IntegerSet` per statement."""

    kind = "domain"

    def __init__(
        self,
        statements: Mapping[str, IntegerSet],
        children: Optional[List[ScheduleNode]] = None,
    ) -> None:
        super().__init__(children)
        self.statements: Dict[str, IntegerSet] = dict(statements)

    def statement_names(self) -> List[str]:
        return list(self.statements)

    def _label(self) -> str:
        body = "; ".join(str(s) for s in self.statements.values())
        return f"DOMAIN: {body}"


@dataclass
class BandMember:
    """One dimension of a band node.

    Attributes
    ----------
    var:
        The loop-variable name this member becomes in generated code
        (``"it"``, ``"ko"``, ``"Rid"``...).
    schedules:
        Per-statement quasi-affine schedule expression over the original
        statement dimensions (e.g. ``floor(k/32) - 8*floor(k/256)``).
    coincident:
        True when no dependence is carried — the member is parallel.
    extent:
        Half-open loop range ``(lo, hi)`` as affine expressions over
        parameters, derived by the transformation that created the member.
    binding:
        ``None`` for an ordinary loop, ``"mesh_row"`` / ``"mesh_col"``
        for members bound to the CPE mesh (`Rid`/`Cid`, Fig. 4b), or
        ``"batch"`` for the isolated batch dimension (Fig. 3).
    """

    var: str
    schedules: Dict[str, AffExpr]
    coincident: bool = False
    extent: Optional[Tuple[AffExpr, AffExpr]] = None
    binding: Optional[str] = None

    def schedule_for(self, stmt: str) -> AffExpr:
        try:
            return self.schedules[stmt]
        except KeyError:
            raise ScheduleTreeError(
                f"band member {self.var!r} has no schedule for statement {stmt!r}"
            ) from None


class BandNode(ScheduleNode):
    """A nest of loops described as a multi-dimensional schedule."""

    kind = "band"

    def __init__(
        self,
        members: Sequence[BandMember],
        permutable: bool = False,
        children: Optional[List[ScheduleNode]] = None,
    ) -> None:
        super().__init__(children)
        self.members: List[BandMember] = list(members)
        self.permutable = permutable

    @property
    def rank(self) -> int:
        return len(self.members)

    def member_vars(self) -> List[str]:
        return [m.var for m in self.members]

    def statements(self) -> List[str]:
        names: List[str] = []
        for m in self.members:
            for s in m.schedules:
                if s not in names:
                    names.append(s)
        return names

    def _label(self) -> str:
        parts = []
        for m in self.members:
            scheds = "; ".join(f"{s}->{e}" for s, e in sorted(m.schedules.items()))
            flags = []
            if m.coincident:
                flags.append("coincident")
            if m.binding:
                flags.append(m.binding)
            suffix = f" [{', '.join(flags)}]" if flags else ""
            parts.append(f"{m.var}: {scheds}{suffix}")
        tag = "BAND(permutable)" if self.permutable else "BAND"
        return f"{tag}: " + " | ".join(parts)


class SequenceNode(ScheduleNode):
    """Ordered execution of filter children."""

    kind = "sequence"

    def __init__(self, children: Optional[List[ScheduleNode]] = None) -> None:
        super().__init__(children)
        for c in self.children:
            if not isinstance(c, FilterNode):
                raise ScheduleTreeError("sequence children must be filter nodes")

    def append(self, node: "FilterNode") -> None:
        if not isinstance(node, FilterNode):
            raise ScheduleTreeError("sequence children must be filter nodes")
        self.children.append(node)


class FilterNode(ScheduleNode):
    """Restricts execution to a statement subset, optionally under
    constraints on ancestor band variables (used for peeling)."""

    kind = "filter"

    def __init__(
        self,
        statements: Sequence[str],
        children: Optional[List[ScheduleNode]] = None,
        constraints: Sequence[Constraint] = (),
        label: str = "",
    ) -> None:
        super().__init__(children)
        self.statements = tuple(statements)
        self.constraints = tuple(constraints)
        self.label = label

    def _label(self) -> str:
        body = ", ".join(self.statements)
        cons = (
            " : " + " and ".join(str(c) for c in self.constraints)
            if self.constraints
            else ""
        )
        tag = f" <{self.label}>" if self.label else ""
        return f"FILTER{{{body}{cons}}}{tag}"


@dataclass
class ExtensionStmt:
    """An auxiliary statement introduced by an extension node.

    ``relation`` is the affine relation of Fig. 2e / Fig. 9 — from the
    outer schedule dimensions to the promoted footprint; ``role`` names
    the communication primitive the statement will lower to
    (``dma_iget``/``dma_iput``/``rma_row_ibcast``/``rma_col_ibcast``/
    ``reply_wait``/``synch``/``compute``); ``payload`` carries the
    arguments derived by the DMA/RMA passes.
    """

    name: str
    role: str
    relation: Optional[AffineMap] = None
    payload: Dict[str, object] = field(default_factory=dict)


class ExtensionNode(ScheduleNode):
    """Introduces statements not covered by the domain node."""

    kind = "extension"

    def __init__(
        self,
        stmts: Sequence[ExtensionStmt],
        children: Optional[List[ScheduleNode]] = None,
    ) -> None:
        super().__init__(children)
        self.stmts: List[ExtensionStmt] = list(stmts)
        names = [s.name for s in self.stmts]
        if len(set(names)) != len(names):
            raise ScheduleTreeError(f"duplicate extension statements: {names}")

    def stmt(self, name: str) -> ExtensionStmt:
        for s in self.stmts:
            if s.name == name:
                return s
        raise ScheduleTreeError(f"extension has no statement {name!r}")

    def _label(self) -> str:
        body = "; ".join(
            f"{s.name}[{s.role}]" + (f" {s.relation}" if s.relation else "")
            for s in self.stmts
        )
        return f"EXTENSION: {body}"


class MarkNode(ScheduleNode):
    """A string marker for the code generator (§7.2)."""

    kind = "mark"

    def __init__(
        self,
        mark: str,
        children: Optional[List[ScheduleNode]] = None,
        payload: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(children)
        self.mark = mark
        self.payload: Dict[str, object] = dict(payload or {})

    def _label(self) -> str:
        return f"MARK: \"{self.mark}\""


class ContextNode(ScheduleNode):
    """Constraints on parameters (divisibility / positivity assumptions)."""

    kind = "context"

    def __init__(
        self,
        constraints: Sequence[Constraint] = (),
        children: Optional[List[ScheduleNode]] = None,
    ) -> None:
        super().__init__(children)
        self.constraints = tuple(constraints)

    def _label(self) -> str:
        body = " and ".join(str(c) for c in self.constraints) or "true"
        return f"CONTEXT: {body}"


# ---------------------------------------------------------------------------
# Utilities
# ---------------------------------------------------------------------------


def parent_map(root: ScheduleNode) -> Dict[int, ScheduleNode]:
    """Map ``id(child) -> parent`` for an entire tree."""
    parents: Dict[int, ScheduleNode] = {}
    for node in root.walk():
        for c in node.children:
            parents[id(c)] = node
    return parents
