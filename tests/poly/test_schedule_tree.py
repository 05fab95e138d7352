"""Schedule-tree node types and tree utilities."""

import pytest

from repro.errors import ScheduleTreeError
from repro.poly.affine import aff_const, aff_var
from repro.poly.iset import box_set, eq
from repro.poly.schedule_tree import (
    BandMember,
    BandNode,
    DomainNode,
    ExtensionNode,
    ExtensionStmt,
    FilterNode,
    MarkNode,
    SequenceNode,
    parent_map,
)
from repro.poly.space import Space


def make_domain():
    space = Space("S1", ("i", "j", "k"))
    dom = box_set(
        space,
        {"i": (0, aff_var("M")), "j": (0, aff_var("N")), "k": (0, aff_var("K"))},
    )
    return DomainNode({"S1": dom})


def make_band():
    return BandNode(
        [
            BandMember("i", {"S1": aff_var("i")}, True, (aff_const(0), aff_var("M"))),
            BandMember("j", {"S1": aff_var("j")}, True, (aff_const(0), aff_var("N"))),
        ],
        permutable=True,
    )


def test_domain_statement_lookup():
    root = make_domain()
    assert root.statement_names() == ["S1"]
    assert root.statements["S1"].space.name == "S1"


def test_band_queries():
    band = make_band()
    assert band.rank == 2
    assert band.member_vars() == ["i", "j"]
    assert band.statements() == ["S1"]
    assert band.members[0].schedule_for("S1") == aff_var("i")
    with pytest.raises(ScheduleTreeError):
        band.members[0].schedule_for("S9")


def test_single_child_accessor():
    root = make_domain()
    band = make_band()
    root.set_child(band)
    assert root.child is band
    empty = SequenceNode()
    with pytest.raises(ScheduleTreeError):
        _ = empty.child


def test_sequence_requires_filters():
    with pytest.raises(ScheduleTreeError):
        SequenceNode([make_band()])
    seq = SequenceNode([FilterNode(["S1"])])
    with pytest.raises(ScheduleTreeError):
        seq.append(make_band())


def test_extension_duplicate_names_rejected():
    s1 = ExtensionStmt("getA", "dma_issue")
    with pytest.raises(ScheduleTreeError):
        ExtensionNode([s1, ExtensionStmt("getA", "dma_issue")])


def test_extension_stmt_lookup():
    node = ExtensionNode([ExtensionStmt("getA", "dma_issue")])
    assert node.stmt("getA").role == "dma_issue"
    with pytest.raises(ScheduleTreeError):
        node.stmt("getZ")


def test_walk_and_find():
    root = make_domain()
    band = make_band()
    mark = MarkNode("micro_kernel", [BandNode([], children=[])])
    band.children = [mark]
    root.set_child(band)
    kinds = [n.kind for n in root.walk()]
    assert kinds == ["domain", "band", "mark", "band"]
    assert root.find_mark("micro_kernel") is mark
    assert root.find_mark("nope") is None
    assert len(root.find_all(BandNode)) == 2


def test_parent_map():
    root = make_domain()
    band = make_band()
    root.set_child(band)
    parents = parent_map(root)
    assert parents[id(band)] is root


def test_replace_child():
    root = make_domain()
    band = make_band()
    root.set_child(band)
    other = make_band()
    root.replace_child(band, other)
    assert root.child is other
    with pytest.raises(ScheduleTreeError):
        root.replace_child(band, other)


def test_dump_contains_figure_vocabulary():
    root = make_domain()
    band = make_band()
    root.set_child(band)
    text = root.dump()
    assert "DOMAIN" in text
    assert "BAND(permutable)" in text
    assert "coincident" in text


def test_filter_constraints_in_dump():
    node = FilterNode(["S1"], constraints=[eq(aff_var("ko"), 0)])
    assert "ko" in node._label()


