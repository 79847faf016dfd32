import pytest
from hypothesis import given, settings, strategies as st

from conleylab import (algebra, blocks, complexes as cxm, flow as flm,
                       spaces as spm)
from test_flow import catalog_flows, shared_entry, small_flows, trim_loop


class BlockError(cxm.ConleyError):
    """The refusal of `section_components` on an irregular block."""


def build_block_three_trims(flow, k):
    """Reference block construction: the star growth and grazing trim of
    `build_block`, checked by the separate invariant-part trim ("fp") before
    n+ and n- are taken. Returns (n, faces, nplus, nminus), or None when the
    budget runs out."""
    kset = frozenset(k)
    region = kset
    for _ in range(6):
        region = frozenset(flow.cx.star_tops(set(region)))
        n = set(region)
        while True:
            faces = blocks._boundary_data(flow, n)
            ni, no = blocks._labels(flow, faces)
            graze = set()
            for f, (u, v) in faces.items():
                if f in ni or f in no:
                    continue
                if u not in kset:
                    graze.add(u)
            removable = graze - kset
            if not removable:
                break
            n -= removable
        if not (kset <= n):
            continue
        if any(f not in ni and f not in no for f in faces):
            continue
        if any(u in kset for f, (u, v) in faces.items()):
            continue
        if trim_loop(flow, n, "fp") != kset:
            continue
        return (n, faces, trim_loop(flow, n, "f"), trim_loop(flow, n, "p"))
    return None


def section_components(block):
    """(components of n-, components of n+), each section counted as the
    components of its boundary faces. Only regular blocks have
    well-defined sections."""
    if not block.regular:
        raise BlockError("not-regular", "sections need a regular block")
    cx = block.flow.cx
    return (len(cx.components(block.nminus_faces)),
            len(cx.components(block.nplus_faces)))


def assert_block_matches_three_trims(flow, k, label):
    want = build_block_three_trims(flow, k)
    try:
        b = blocks.build_block(flow, k)
    except blocks.NoBlockError:
        assert want is None, label
        return
    assert want == (b.n, b.faces, b.nplus, b.nminus), label


def block_for(name):
    entry = shared_entry(name)
    return blocks.build_block(entry["flow"], entry["k"]), entry


def test_circle_block():
    b, _ = block_for("example22-circle")
    assert b.regular
    assert len(b.ni) == 1 and len(b.no) == 1
    assert section_components(b) == (1, 1)
    assert blocks.conley_euler(b) == 0


def test_north_south_block_has_no_exit():
    b, _ = block_for("north-south")
    assert b.regular
    assert len(b.no) == 0
    assert section_components(b) == (0, 1)
    assert blocks.conley_euler(b) == 1


def test_torus_block_is_an_annulus_band():
    b, entry = block_for("example22-torus")
    assert b.regular
    assert section_components(b) == (1, 1)
    assert blocks.conley_euler(b) == 0
    sub = blocks.block_subcomplex(b)
    assert sub.euler() == 0
    rim = entry["flow"].cx.closure(set(b.boundary_faces()))
    co = algebra.cohomology_ranks(sub, ring="z2", rel=rim)
    ho = [h["rank"] for h in algebra.homology(sub, ring="z2")]
    assert co == [0, 1, 1] and ho == [1, 1, 0]
    assert co == list(reversed(ho))


def test_homoclinic_block_is_irregular():
    b, _ = block_for("homoclinic-sphere")
    assert not b.regular
    assert blocks.conley_euler(b) == 1
    with pytest.raises(BlockError) as ei:
        section_components(b)
    assert ei.value.code == "not-regular"


def test_genus2_blocks():
    one, _ = block_for("hypersurface-genus2")
    two, _ = block_for("hypersurface-genus2-two")
    assert one.regular and two.regular
    assert section_components(one) == (1, 1)
    assert section_components(two) == (2, 2)
    assert blocks.conley_euler(one) == -2
    assert blocks.conley_euler(two) == -2


def test_no_block_when_neighbors_never_leave():
    # a rest point next to other rest points: every neighborhood keeps
    # extra invariant cells, so no isolating block exists
    f = flm.rest_flow(spm.circle(6))
    with pytest.raises(blocks.NoBlockError) as ei:
        blocks.build_block(f, {"e:0"})
    assert ei.value.code == "no-block"


def test_block_matches_three_trim_reference_on_the_catalog():
    for name, fl, k in catalog_flows():
        if k:
            assert_block_matches_three_trims(fl, k, name)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_block_matches_three_trim_reference_on_small_flows(data):
    # k is the invariant part of the star of a random set, so it is
    # isolated in that star, though perhaps in no block within budget
    fl = data.draw(small_flows())
    seed = data.draw(st.frozensets(st.sampled_from(sorted(fl.tops)),
                                   min_size=1))
    k = trim_loop(fl, fl.cx.star_tops(seed), "fp")
    assert_block_matches_three_trims(fl, k, sorted(seed))
