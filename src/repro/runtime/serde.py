"""JSON-safe serialization of compiled programs.

The compilation service (:mod:`repro.service`) persists
:class:`~repro.runtime.program.CompiledProgram` artifacts to disk so a
kernel compiled once is never compiled again — not even by a different
process.  Artifacts must therefore survive an exact round trip through
plain JSON: the schedule tree (whose :meth:`dump` is golden-tested), the
CPE AST the executor interprets, and every constituent dataclass.

The encoding is a small tagged format:

* JSON-native scalars pass through unchanged;
* ``list`` → list of encoded items;
* ``tuple`` → ``{"$": "tuple", "v": [...]}`` (tuples matter: frozen
  dataclasses hash their tuple fields);
* ``dict`` → ``{"$": "dict", "v": [[key, value], ...]}`` preserving
  insertion order and supporting non-string keys (``AffExpr.divs`` keys
  are :class:`FloorDiv` objects);
* registered classes → ``{"$": tag, "v": {field: ...}}``.

Dataclasses register automatically from their fields; the handful of
slotted classes (:class:`AffExpr`, :class:`IntegerSet`, schedule-tree
nodes...) register explicit encode/decode pairs below.  Unknown types
fail loudly — silent ``repr`` fallbacks would poison the cache.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import SwGemmError


class SerializationError(SwGemmError):
    """Raised when an object cannot be encoded or decoded."""


#: Bump whenever the encoding (or any serialized class) changes shape;
#: the artifact store treats artifacts of other versions as misses.
SERDE_VERSION = 1

_ENCODERS: Dict[type, Tuple[str, Callable[[Any], dict]]] = {}
_DECODERS: Dict[str, Callable[[dict], Any]] = {}


def register(cls: type, tag: str, encode_fn, decode_fn) -> None:
    if tag in _DECODERS:
        raise SerializationError(f"duplicate serde tag {tag!r}")
    _ENCODERS[cls] = (tag, encode_fn)
    _DECODERS[tag] = decode_fn


def register_dataclass(cls: type, tag: str = "", upgrade=None) -> None:
    """Field-wise registration; the constructor must accept every field.

    ``upgrade`` maps a copy of the still-encoded fields of a payload
    written by an older version of ``cls`` onto the current fields.
    """
    tag = tag or cls.__name__
    names = [f.name for f in dataclass_fields(cls)]

    def enc(obj) -> dict:
        return {n: encode(getattr(obj, n)) for n in names}

    def dec(payload: dict):
        if upgrade is not None:
            payload = upgrade(dict(payload))
        return cls(**{n: decode(v) for n, v in payload.items()})

    register(cls, tag, enc, dec)


def encode(obj: Any) -> Any:
    """Encode an object into JSON-safe data."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [encode(v) for v in obj]
    if isinstance(obj, tuple):
        return {"$": "tuple", "v": [encode(v) for v in obj]}
    if isinstance(obj, dict):
        return {"$": "dict", "v": [[encode(k), encode(v)] for k, v in obj.items()]}
    entry = _ENCODERS.get(type(obj))
    if entry is None:
        raise SerializationError(
            f"no serde registration for {type(obj).__module__}."
            f"{type(obj).__qualname__}"
        )
    tag, enc = entry
    return {"$": tag, "v": enc(obj)}


def decode(data: Any) -> Any:
    """Inverse of :func:`encode`."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):
        return [decode(v) for v in data]
    if isinstance(data, dict):
        tag = data.get("$")
        if tag == "tuple":
            return tuple(decode(v) for v in data["v"])
        if tag == "dict":
            return {decode(k): decode(v) for k, v in data["v"]}
        dec = _DECODERS.get(tag)
        if dec is None:
            raise SerializationError(f"unknown serde tag {tag!r}")
        return dec(data["v"])
    raise SerializationError(f"cannot decode {data!r}")


def upgrade_candidate(fields: dict) -> dict:
    """Tuning candidates written before cache schema 8 keep their k-strip
    label on the tile; move it onto the candidate."""
    fields.setdefault("k_strip", fields["tile"]["v"].get("k_strip"))
    return fields


# ---------------------------------------------------------------------------
# Registrations
# ---------------------------------------------------------------------------


def _register_all() -> None:
    from repro.core.decomposition import Decomposition
    from repro.core.diagnostics import PassDiagnostic, PassStat
    from repro.core.dma import DmaSpec
    from repro.core.options import CompilerOptions, SchedulePolicy, TileConfig
    from repro.core.rma import RmaSpec
    from repro.core.spec import GemmSpec
    from repro.core.tile_model import BufferSpec, TilePlan
    from repro.poly import astnodes as ast
    from repro.poly.affine import AffExpr, FloorDiv
    from repro.poly.dependences import DependenceSummary, DistanceFamily
    from repro.poly.imap import AffineMap
    from repro.poly.iset import Constraint, IntegerSet
    from repro.poly.schedule_tree import (
        BandMember,
        BandNode,
        ContextNode,
        DomainNode,
        ExtensionNode,
        ExtensionStmt,
        FilterNode,
        MarkNode,
        SequenceNode,
    )
    from repro.faults import FaultPolicy, RetryPolicy
    from repro.poly.space import Space
    from repro.sunway.arch import ArchSpec, MicroKernelShape

    # -- quasi-affine layer --------------------------------------------
    register(
        AffExpr,
        "Aff",
        lambda e: {
            "coeffs": encode(e.coeffs),
            "divs": [[encode(t), c] for t, c in e.divs.items()],
            "const": e.const,
        },
        lambda p: AffExpr(
            decode(p["coeffs"]),
            {decode(t): c for t, c in p["divs"]},
            p["const"],
        ),
    )
    register(
        FloorDiv,
        "FloorDiv",
        lambda t: {"arg": encode(t.arg), "divisor": t.divisor},
        lambda p: FloorDiv(decode(p["arg"]), p["divisor"]),
    )
    register_dataclass(Space)
    register_dataclass(Constraint)
    register(
        IntegerSet,
        "IntegerSet",
        lambda s: {"space": encode(s.space), "constraints": encode(list(s.constraints))},
        lambda p: IntegerSet(decode(p["space"]), decode(p["constraints"])),
    )
    register(
        AffineMap,
        "AffineMap",
        lambda m: {
            "domain_space": encode(m.domain_space),
            "exprs": encode(list(m.exprs)),
            "range_space": encode(m.range_space),
        },
        lambda p: AffineMap(
            decode(p["domain_space"]), decode(p["exprs"]), decode(p["range_space"])
        ),
    )
    register_dataclass(DistanceFamily)
    register_dataclass(DependenceSummary)

    # -- schedule trees -------------------------------------------------
    register_dataclass(BandMember)
    register_dataclass(ExtensionStmt)

    def _children(node) -> list:
        return [encode(c) for c in node.children]

    register(
        DomainNode,
        "DomainNode",
        lambda n: {"statements": encode(n.statements), "children": _children(n)},
        lambda p: DomainNode(decode(p["statements"]), decode(p["children"])),
    )
    register(
        BandNode,
        "BandNode",
        lambda n: {
            "members": encode(n.members),
            "permutable": n.permutable,
            "children": _children(n),
        },
        lambda p: BandNode(decode(p["members"]), p["permutable"], decode(p["children"])),
    )
    register(
        SequenceNode,
        "SequenceNode",
        lambda n: {"children": _children(n)},
        lambda p: SequenceNode(decode(p["children"])),
    )
    register(
        FilterNode,
        "FilterNode",
        lambda n: {
            "statements": encode(list(n.statements)),
            "constraints": encode(list(n.constraints)),
            "label": n.label,
            "children": _children(n),
        },
        lambda p: FilterNode(
            decode(p["statements"]), decode(p["children"]),
            decode(p["constraints"]), p["label"],
        ),
    )
    register(
        ExtensionNode,
        "ExtensionNode",
        lambda n: {"stmts": encode(n.stmts), "children": _children(n)},
        lambda p: ExtensionNode(decode(p["stmts"]), decode(p["children"])),
    )
    register(
        MarkNode,
        "MarkNode",
        lambda n: {
            "mark": n.mark,
            "payload": encode(n.payload),
            "children": _children(n),
        },
        lambda p: MarkNode(p["mark"], decode(p["children"]), decode(p["payload"])),
    )
    register(
        ContextNode,
        "ContextNode",
        lambda n: {"constraints": encode(list(n.constraints)), "children": _children(n)},
        lambda p: ContextNode(decode(p["constraints"]), decode(p["children"])),
    )

    # -- loop AST --------------------------------------------------------
    for cls in (
        ast.IntLit,
        ast.DoubleLit,
        ast.VarRef,
        ast.AffRef,
        ast.BinExpr,
        ast.ArrayRef,
        ast.AddrOf,
        ast.CallExpr,
        ast.Block,
        ast.ForLoop,
        ast.IfStmt,
        ast.AssignStmt,
        ast.CommStmt,
        ast.KernelCall,
        ast.BlockOpStmt,
        ast.CommentStmt,
        ast.NaiveComputeStmt,
        ast.BufferDecl,
        ast.ReplyDecl,
        ast.CpeProgram,
    ):
        register_dataclass(cls)

    # -- compiler dataclasses --------------------------------------------
    # Payloads written before cache schema 6 (persisted tuning records,
    # older artifacts) still carry the retired latency-hiding spellings:
    # the ``enable_latency_hiding`` bit beside a ``schedule`` that could
    # be None, and ``TileConfig.buffer_depth``, which always restated
    # that bit.  Decode them onto the one ``schedule`` field.  Before
    # schema 8, ``use_asm`` beside a maybe-None ``kernel_backend`` spelt
    # the kernel, and ``TileConfig.k_strip`` could only restate the
    # derived strip: decode onto ``kernel_backend`` and drop the pin.
    # Before schema 9, ``verify`` could switch the admission pass off;
    # it never shaped code, so drop it.
    def upgrade_options(fields: dict) -> dict:
        fields.pop("verify", None)
        if fields.pop("enable_latency_hiding", True) is False:
            fields["schedule"] = encode(SchedulePolicy(mode="off"))
        if "use_asm" in fields:
            asm = fields.pop("use_asm")
            fields["kernel_backend"] = (
                (fields.get("kernel_backend") or "vendor") if asm else "naive"
            )
        return fields

    def upgrade_tile(fields: dict) -> dict:
        fields.pop("buffer_depth", None)
        fields.pop("k_strip", None)
        return fields

    # Policies written before schema 7 also carry ``allow``/``deny``
    # filters over a four-rewrite stack that still held ``retire-waits``,
    # which never applied.  Decode a legacy ``optimize`` only when its
    # filters resolve to the stack ``optimize`` runs now; any other
    # filter named a different pipeline and is refused.
    legacy_stack = (
        "split-waits", "reorder-issues", "merge-transfers", "retire-waits",
    )

    def upgrade_policy(fields: dict) -> dict:
        if "allow" not in fields:
            return fields
        allow = decode(fields.pop("allow")) or legacy_stack
        deny = decode(fields.pop("deny", None)) or ()
        if fields["mode"] == "optimize":
            from repro.schedule import REWRITES

            resolved = tuple(
                name for name in allow
                if name not in deny and name != "retire-waits"
            )
            if resolved != tuple(REWRITES):
                raise SerializationError(
                    f"legacy schedule policy runs {list(resolved)}; "
                    f"'optimize' now always runs {list(REWRITES)}"
                )
        return fields

    register_dataclass(CompilerOptions, upgrade=upgrade_options)
    register_dataclass(TileConfig, upgrade=upgrade_tile)
    register_dataclass(SchedulePolicy, upgrade=upgrade_policy)
    for cls in (
        GemmSpec,
        FaultPolicy,
        RetryPolicy,
        BufferSpec,
        TilePlan,
        DmaSpec,
        RmaSpec,
        MicroKernelShape,
        ArchSpec,
        PassDiagnostic,
        PassStat,
    ):
        register_dataclass(cls)

    # -- verification reports (PR 4) -------------------------------------
    # report.py imports nothing from the compiler or runtime layers, so
    # registering it here cannot cycle.
    from repro.verify.report import CheckResult, VerificationReport

    register_dataclass(CheckResult)
    register_dataclass(VerificationReport)

    # The decomposition's ``bands`` dict aliases nodes *inside* the tree;
    # encoding them by value would sever the aliasing, so they are stored
    # as pre-order indexes into the root's walk and re-resolved on decode.
    def enc_dec(dec_obj) -> dict:
        order = {id(n): i for i, n in enumerate(dec_obj.root.walk())}
        bands = {}
        for name, node in dec_obj.bands.items():
            if id(node) not in order:
                raise SerializationError(
                    f"band {name!r} is not part of the schedule tree"
                )
            bands[name] = order[id(node)]
        return {
            "root": encode(dec_obj.root),
            "spec": encode(dec_obj.spec),
            "plan": encode(dec_obj.plan),
            "options": encode(dec_obj.options),
            "summary": encode(dec_obj.summary),
            "reconstruction": encode(dec_obj.reconstruction),
            "bands": bands,
            "arch": encode(dec_obj.arch),
        }

    def dec_dec(p: dict):
        root = decode(p["root"])
        nodes = list(root.walk())
        return Decomposition(
            root=root,
            spec=decode(p["spec"]),
            plan=decode(p["plan"]),
            options=decode(p["options"]),
            summary=decode(p["summary"]),
            reconstruction=decode(p["reconstruction"]),
            bands={name: nodes[index] for name, index in p["bands"].items()},
            arch=decode(p["arch"]),
        )

    register(Decomposition, "Decomposition", enc_dec, dec_dec)


_register_all()
