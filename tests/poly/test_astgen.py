"""Schedule-tree → AST scanning, including peeling and guards."""

from typing import List

import pytest

from repro.errors import CodegenError
from repro.poly.affine import aff_const, aff_var
from repro.poly.astgen import AstGenerator, ScanContext
from repro.poly.astnodes import (
    Block,
    CommentStmt,
    ForLoop,
    IfStmt,
    Stmt,
    walk_stmts,
)
from repro.poly.iset import box_set, eq, le
from repro.poly.schedule_tree import (
    BandMember,
    BandNode,
    DomainNode,
    ExtensionNode,
    ExtensionStmt,
    FilterNode,
    MarkNode,
    SequenceNode,
)
from repro.poly.space import Space


class RecordingDelegate:
    """Lowers everything to comments carrying the statement name."""

    def lower_extension(self, stmt, ctx):
        return [CommentStmt(f"ext:{stmt.name}")]

    def lower_compute(self, name, ctx):
        return [CommentStmt(f"compute:{name}@depth{len(ctx.open_vars)}")]

    def lower_mark(self, mark, ctx):
        if mark.mark == "replace":
            return [CommentStmt("mark:replaced")]
        return None


def simple_domain():
    space = Space("S1", ("i",))
    return DomainNode({"S1": box_set(space, {"i": (0, aff_var("M"))})})


def band(var, hi, binding=None, children=None):
    return BandNode(
        [
            BandMember(
                var,
                {"S1": aff_var(var)},
                True,
                (aff_const(0), hi),
                binding=binding,
            )
        ],
        children=children,
    )


def comments(block: Block) -> List[str]:
    return [s.text for s in walk_stmts(block) if isinstance(s, CommentStmt)]


def generate(root, params=("M",)):
    return AstGenerator(RecordingDelegate()).generate(root, params)


def test_band_becomes_loop():
    root = simple_domain()
    root.set_child(band("i", aff_var("M")))
    ast = generate(root)
    loops = [s for s in walk_stmts(ast) if isinstance(s, ForLoop)]
    assert len(loops) == 1
    assert loops[0].var == "i"
    assert comments(ast) == ["compute:S1@depth1"]


def test_mesh_bound_member_emits_no_loop():
    root = simple_domain()
    root.set_child(band("Rid", aff_const(8), binding="mesh_row"))
    ast = generate(root)
    assert not [s for s in walk_stmts(ast) if isinstance(s, ForLoop)]
    assert comments(ast) == ["compute:S1@depth1"]


def test_missing_extent_raises():
    root = simple_domain()
    b = band("i", aff_var("M"))
    b.members[0].extent = None
    root.set_child(b)
    with pytest.raises(CodegenError):
        generate(root)


def test_sequence_preserves_order():
    root = simple_domain()
    ext = ExtensionNode(
        [ExtensionStmt("pre", "x"), ExtensionStmt("post", "x")],
        [
            SequenceNode(
                [
                    FilterNode(["pre"]),
                    FilterNode(["S1"], [band("i", aff_var("M"))]),
                    FilterNode(["post"]),
                ]
            )
        ],
    )
    root.set_child(ext)
    assert comments(generate(root)) == ["ext:pre", "compute:S1@depth1", "ext:post"]


def test_peeled_filter_restricts_loop_to_single_iteration():
    root = simple_domain()
    inner = band("i", aff_var("M"))
    filt = FilterNode(["S1"], [inner], constraints=[eq(aff_var("i"), 0)])
    root.set_child(filt)
    ast = generate(root)
    loop = next(s for s in walk_stmts(ast) if isinstance(s, ForLoop))
    assert loop.lo.aff == aff_const(0)
    assert loop.hi.aff == aff_const(1)


def test_guard_on_open_variable_becomes_if():
    # FILTER{pre : i <= M-2} *below* the band -> if (...) inside the loop.
    root = simple_domain()
    guard = le(aff_var("i"), aff_var("M") - 2)
    seq = SequenceNode(
        [
            FilterNode(["pre"], constraints=[guard]),
            FilterNode(["S1"]),
        ]
    )
    ext = ExtensionNode([ExtensionStmt("pre", "x")], [seq])
    b = band("i", aff_var("M"), children=[ext])
    root.set_child(b)
    ast = generate(root)
    ifs = [s for s in walk_stmts(ast) if isinstance(s, IfStmt)]
    assert len(ifs) == 1
    assert comments(ast) == ["ext:pre", "compute:S1@depth1"]


def test_unconsumed_constraint_raises():
    root = simple_domain()
    filt = FilterNode(["S1"], constraints=[eq(aff_var("zz"), 0)])
    root.set_child(filt)
    with pytest.raises(CodegenError):
        generate(root)


def test_mark_replacement_and_descent():
    root = simple_domain()
    replaced = MarkNode("replace", [band("i", aff_var("M"))])
    root.set_child(replaced)
    assert comments(generate(root)) == ["mark:replaced"]

    root2 = simple_domain()
    passthrough = MarkNode("other", [band("i", aff_var("M"))])
    root2.set_child(passthrough)
    assert comments(generate(root2)) == ["compute:S1@depth1"]


def test_extension_shadowing_rejected():
    root = simple_domain()
    inner_ext = ExtensionNode(
        [ExtensionStmt("pre", "x")], [SequenceNode([FilterNode(["pre"])])]
    )
    outer_ext = ExtensionNode([ExtensionStmt("pre", "x")], [inner_ext])
    root.set_child(outer_ext)
    with pytest.raises(CodegenError):
        generate(root)


def test_nested_bands_open_in_order():
    root = simple_domain()
    outer = band("a", aff_var("M"))
    inner = band("b", aff_const(4))
    outer.set_child(inner)
    root.set_child(outer)
    ast = generate(root)
    loops = [s for s in walk_stmts(ast) if isinstance(s, ForLoop)]
    assert [l.var for l in loops] == ["a", "b"]
    assert comments(ast) == ["compute:S1@depth2"]
