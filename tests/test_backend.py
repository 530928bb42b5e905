"""Backend geometry, link validation, auto-link layout, coupling graph."""

import dataclasses
import json
import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipmap.backend import (
    ChipletBackend,
    CouplingGraph,
    InterChipLink,
    backend_to_json,
    build_backend,
)
from chipmap.errors import ValidationError
from chipmap.ir import cx
from oracles import coupling_edges, coupling_parts, links_between


def _doc(**kw) -> dict:
    doc = {"grid": [1, 2], "chiplet": [3, 3]}
    doc.update(kw)
    return doc


def draw_backend_doc(data) -> dict:
    """A small random backend document: defects, explicit and auto links."""
    rows, cols = data.draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
    w, h = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    site = st.builds(
        lambda chip, x, y: {"chip": chip, "x": x, "y": y},
        st.integers(0, rows * cols - 1), st.integers(0, w - 1), st.integers(0, h - 1),
    )
    doc = {"grid": [rows, cols], "chiplet": [w, h],
           "defects": data.draw(st.lists(site, max_size=6))}
    if cols > 1:  # one explicit link across the first vertical seam
        y = data.draw(st.integers(0, h - 1))
        doc["links"] = [{"a": {"chip": 0, "x": w - 1, "y": y},
                         "b": {"chip": 1, "x": 0, "y": y}, "eps": 0.01}]
    per_edge = data.draw(st.integers(0, 3))
    if per_edge:
        doc["auto_links"] = {"per_edge": per_edge, "eps": 0.02}
    return doc


class TestGeometry:
    def test_global_id_is_row_major_within_chip(self):
        b = build_backend({"grid": [2, 2], "chiplet": [4, 3]})
        assert b.gid(0, 0, 0) == 0
        assert b.gid(0, 1, 0) == 1
        assert b.gid(0, 0, 1) == 4
        assert b.gid(1, 0, 0) == 12
        assert b.gid(3, 3, 2) == 3 * 12 + 2 * 4 + 3

    def test_gid_coord_roundtrip(self):
        b = build_backend({"grid": [2, 2], "chiplet": [4, 3]})
        for gid in range(b.n_qubits):
            c = b.coord(gid)
            assert b.gid(c.chip, c.x, c.y) == gid
            assert b.chip_of(gid) == c.chip

    def test_grid_pos_and_chip_at_roundtrip(self):
        b = build_backend({"grid": [2, 4], "chiplet": [2, 2]})
        for chip in range(8):
            row, col = b.grid_pos(chip)
            assert b.chip_at(row, col) == chip

    def test_fields_are_frozen(self):
        b = build_backend(_doc(auto_links={"per_edge": 1, "eps": 0.1}))
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.defects = frozenset({0})
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.chip_w = 4


class TestValidation:
    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValidationError, match="power of two"):
            build_backend({"grid": [1, 3], "chiplet": [2, 2]})

    def test_non_power_of_two_override(self):
        b = build_backend({"grid": [1, 3], "chiplet": [2, 2], "allow_non_pow2": True})
        assert b.n_chiplets == 3

    def test_link_endpoints_must_sit_on_facing_edges(self):
        # horizontal neighbors: a on x = w-1, b on x = 0
        good = _doc(links=[{"a": {"chip": 0, "x": 2, "y": 1},
                            "b": {"chip": 1, "x": 0, "y": 1}, "eps": 0.001}])
        assert len(build_backend(good).links) == 1
        bad = _doc(links=[{"a": {"chip": 0, "x": 1, "y": 1},
                           "b": {"chip": 1, "x": 0, "y": 1}, "eps": 0.001}])
        with pytest.raises(ValidationError, match="facing"):
            build_backend(bad)

    def test_link_between_non_adjacent_chips_rejected(self):
        doc = {
            "grid": [1, 4],
            "chiplet": [2, 2],
            "links": [{"a": {"chip": 0, "x": 1, "y": 0},
                       "b": {"chip": 2, "x": 0, "y": 0}, "eps": 0.1}],
        }
        with pytest.raises(ValidationError, match="adjacent"):
            build_backend(doc)

    def test_qubit_carries_at_most_one_link(self):
        doc = _doc(links=[
            {"a": {"chip": 0, "x": 2, "y": 0}, "b": {"chip": 1, "x": 0, "y": 0}, "eps": 0.1},
            {"a": {"chip": 0, "x": 2, "y": 0}, "b": {"chip": 1, "x": 0, "y": 1}, "eps": 0.1},
        ])
        with pytest.raises(ValidationError, match="more than one"):
            build_backend(doc)

    def test_link_with_defective_endpoint_dropped(self, caplog):
        doc = _doc(
            links=[{"a": {"chip": 0, "x": 2, "y": 0},
                    "b": {"chip": 1, "x": 0, "y": 0}, "eps": 0.1}],
            defects=[{"chip": 1, "x": 0, "y": 0}],
        )
        with caplog.at_level(logging.WARNING):
            b = build_backend(doc)
        assert b.links == ()
        assert any("dropping link" in r.message for r in caplog.records)

    def test_negative_eps_rejected(self):
        doc = _doc(links=[{"a": {"chip": 0, "x": 2, "y": 0},
                           "b": {"chip": 1, "x": 0, "y": 0}, "eps": -1}])
        with pytest.raises(ValidationError):
            build_backend(doc)

    @pytest.mark.parametrize("eps", ["NaN", "Infinity"])
    def test_non_finite_eps_rejected(self, eps):
        text = (
            '{"grid": [1, 2], "chiplet": [3, 3], "links": [{"a": {"chip": 0, "x": 2, "y": 0}, '
            '"b": {"chip": 1, "x": 0, "y": 0}, "eps": %s}]}' % eps
        )
        with pytest.raises(ValidationError, match="finite"):
            build_backend(json.loads(text))

    @pytest.mark.parametrize(
        "eps",
        [
            math.nan,
            math.inf,
            {"base": math.nan},
            {"base": math.inf},
            {"base": 1e-3, "scale_range": [1.0, math.inf]},
            {"base": 1e-3, "scale_range": [math.nan, 2.0]},
        ],
        ids=["nan", "inf", "base-nan", "base-inf", "scale-inf", "scale-nan"],
    )
    def test_non_finite_auto_link_eps_rejected(self, eps):
        with pytest.raises(ValidationError, match="finite"):
            build_backend(_doc(auto_links={"per_edge": 1, "eps": eps}))

    def test_defect_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            build_backend(_doc(defects=[{"chip": 0, "x": 5, "y": 0}]))


class TestAutoLinks:
    def test_even_spread_positions(self):
        # 3-cell edge, 2 links: offsets int(0.5*3/2)=0 and int(1.5*3/2)=2
        b = build_backend(_doc(auto_links={"per_edge": 2, "eps": 0.5}))
        ys = sorted(b.coord(l.a).y for l in b.links)
        assert ys == [0, 2]
        for link in b.links:
            ca, cb = b.coord(link.a), b.coord(link.b)
            assert (ca.chip, cb.chip) == (0, 1)
            assert ca.x == 2 and cb.x == 0
            assert ca.y == cb.y
            assert link.eps == 0.5

    def test_single_link_centered(self):
        b = build_backend(_doc(auto_links={"per_edge": 1, "eps": 0.0}))
        assert [b.coord(l.a).y for l in b.links] == [1]

    def test_count_clipped_to_edge_length(self, caplog):
        with caplog.at_level(logging.WARNING):
            b = build_backend(_doc(auto_links={"per_edge": 9, "eps": 0.0}))
        assert len(b.links) == 3
        assert any("clipping" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        "chiplet, message",
        [([6, 6], "clipping 4 edges to 6"), ([5, 6], "clipping 4 edges to 5 or 6")],
    )
    def test_clipping_logs_one_line_per_build(self, caplog, chiplet, message):
        # the default n_inter of a generated d=3 backend overfills every 6-cell edge
        doc = {"grid": [2, 2], "chiplet": chiplet, "auto_links": {"per_edge": 8, "eps": 0.0}}
        with caplog.at_level(logging.WARNING, logger="chipmap.backend"):
            build_backend(doc)
        assert [r.getMessage() for r in caplog.records] == [
            f"auto_links: 8 links requested per edge, {message}"
        ]

    def test_vertical_edges_use_bottom_and_top_rows(self):
        b = build_backend({"grid": [2, 1], "chiplet": [3, 3],
                           "auto_links": {"per_edge": 1, "eps": 0.0}})
        (link,) = b.links
        ca, cb = b.coord(link.a), b.coord(link.b)
        assert ca.y == 2 and cb.y == 0
        assert ca.x == cb.x == 1

    def test_full_grid_edge_count(self):
        # 2x2 grid has 4 facing edges; 5-cell edges put per_edge=2 at
        # offsets 1 and 3, clear of the shared corner cells
        b = build_backend({"grid": [2, 2], "chiplet": [5, 5],
                           "auto_links": {"per_edge": 2, "eps": 0.0}})
        assert len(b.links) == 8

    def test_corner_collisions_yield_to_first_edge(self):
        # 3-cell edges put per_edge=2 at offsets 0 and 2; offset 2 is the
        # corner shared by a horizontal and a vertical edge, and only one
        # link may land on a qubit
        b = build_backend({"grid": [2, 2], "chiplet": [3, 3],
                           "auto_links": {"per_edge": 2, "eps": 0.0}})
        assert len(b.links) == 6
        endpoints = [q for l in b.links for q in (l.a, l.b)]
        assert len(endpoints) == len(set(endpoints))

    def test_scaled_eps_deterministic_and_bounded(self):
        spec = {"per_edge": 3, "eps": {"base": 1e-3, "scale_range": [1.0, 10.0], "seed": 5}}
        b1 = build_backend(_doc(auto_links=spec))
        b2 = build_backend(_doc(auto_links=spec))
        assert [l.eps for l in b1.links] == [l.eps for l in b2.links]
        assert all(1e-3 <= l.eps <= 1e-2 for l in b1.links)
        b3 = build_backend(_doc(auto_links={**spec, "eps": {**spec["eps"], "seed": 6}}))
        assert [l.eps for l in b1.links] != [l.eps for l in b3.links]

    def test_explicit_links_keep_their_endpoints(self):
        doc = _doc(
            links=[{"a": {"chip": 0, "x": 2, "y": 0},
                    "b": {"chip": 1, "x": 0, "y": 0}, "eps": 0.7}],
            auto_links={"per_edge": 3, "eps": 0.1},
        )
        b = build_backend(doc)
        at_y0 = [l for l in b.links if b.coord(l.a).y == 0]
        assert len(at_y0) == 1 and at_y0[0].eps == 0.7


def _edges(g: CouplingGraph) -> set[tuple[int, int]]:
    """Every pair (a, b), a < b, that ``has_edge`` couples, both ways round."""
    out = set()
    for a in range(g.n):
        for b in range(g.n):
            if g.has_edge(a, b):
                assert g.has_edge(b, a)
                out.add((min(a, b), max(a, b)))
    return out


class TestCouplingGraph:
    def test_single_chip_grid_edge_count(self):
        b = build_backend({"grid": [1, 1], "chiplet": [4, 5]})
        g = CouplingGraph(b)
        # w*(h-1) vertical + h*(w-1) horizontal couplings
        assert len(_edges(g)) == 4 * 4 + 5 * 3
        assert sum(g.alive) == 20

    def test_defect_removes_incident_couplings(self):
        b = build_backend({"grid": [1, 1], "chiplet": [3, 3],
                           "defects": [{"chip": 0, "x": 1, "y": 1}]})
        g = CouplingGraph(b)
        assert not g.alive[4]
        assert not any(4 in pair for pair in _edges(g))
        assert len(_edges(g)) == 12 - 4

    def test_links_appear_as_edges_with_records(self):
        b = build_backend(_doc(auto_links={"per_edge": 1, "eps": 0.25}))
        g = CouplingGraph(b)
        (link,) = b.links
        assert g.has_edge(link.a, link.b)
        assert g.link_on(link.a, link.b) is link
        assert g.link_on(link.b, link.a) is link
        assert g.link_on(0, 1) is None
        assert g.links_between(0, 1) == g.links_between(1, 0) == (link,)
        assert g.links_between(0, 0) == ()

    @pytest.mark.parametrize("w, h", [(1, 4), (4, 1), (3, 3)], ids=["1-wide", "1-high", "3x3"])
    def test_row_ends_and_chiplet_seams_are_not_coupled(self, w, h):
        # ids one apart across a row end, and chip_w apart across the seam
        # between stacked chiplets, are not grid neighbours
        b = build_backend({"grid": [2, 1], "chiplet": [w, h], "allow_non_pow2": True})
        g = CouplingGraph(b)
        for a in range(g.n - 1):
            for d in (1, w):
                if a + d < g.n:
                    want = (a, a + d) in coupling_edges(b)
                    assert g.has_edge(a, a + d) == g.has_edge(a + d, a) == want, (a, d)
        # the top row's last cell and the next id are one row apart only on
        # a 1-wide chiplet; chip 0's bottom-left cell and chip 1's first are
        # on different chiplets
        assert g.has_edge(w - 1, w) == (w == 1 and h > 1)
        assert not g.has_edge(w * h - w, w * h)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_cell_by_cell_build(self, data):
        b = build_backend(draw_backend_doc(data))
        # built directly, a backend may keep links whose endpoints are defects
        dead = data.draw(st.sets(st.sampled_from([l.a for l in b.links] or [0])))
        direct = dataclasses.replace(b, defects=b.defects | dead)
        for be in (b, direct):
            g = CouplingGraph(be)
            alive, _, links = coupling_parts(be)
            assert g.alive == alive
            assert _edges(g) == coupling_edges(be)
            assert g._links == links
            assert list(g._links) == list(links)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_links_between_matches_pair_filter(self, data):
        b = build_backend(draw_backend_doc(data))
        # built directly, a backend may keep links whose endpoints are defects
        dead = data.draw(st.sets(st.sampled_from([l.a for l in b.links] or [0])))
        direct = dataclasses.replace(b, defects=b.defects | dead)
        for be in (b, direct):
            g = CouplingGraph(be)
            for ca in range(be.n_chiplets):
                for cb in range(be.n_chiplets):
                    assert list(g.links_between(ca, cb)) == links_between(be, ca, cb)

    def test_links_between_skips_link_on_a_defect(self):
        # only direct construction can pair a link with a defective endpoint;
        # build_backend drops such links
        dead, live = InterChipLink(2, 9, 0.1), InterChipLink(5, 12, 0.2)
        b = ChipletBackend(1, 2, 3, 3, links=(dead, live), defects=frozenset({2}))
        g = CouplingGraph(b)
        assert g.links_between(1, 0) == (live,)
        assert links_between(b, 0, 1) == [live]
        assert not g.has_edge(2, 9)

    def test_roundtrip_through_document(self):
        b = build_backend(_doc(
            auto_links={"per_edge": 2, "eps": 0.3},
            defects=[{"chip": 0, "x": 0, "y": 0}],
        ))
        again = build_backend(backend_to_json(b))
        assert [(l.a, l.b, l.eps) for l in again.links] == [
            (l.a, l.b, l.eps) for l in b.links
        ]
        assert again.defects == b.defects


class TestLinkRecord:
    def test_key_is_ascending(self):
        link = InterChipLink(9, 4, 0.1)
        # constructor normalizes? the backend builder orders endpoints instead
        assert link.key in ((4, 9), (9, 4))

    def test_usage_starts_at_zero(self):
        # usage is counted per routing run; the shared link record is immutable
        from test_route import _route, _singletons

        link = InterChipLink(0, 9, 0.1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            link.eps = 0.2
        be = build_backend(_doc(auto_links={"per_edge": 3, "eps": 0.01}))
        labels, placements = _singletons([(0, 2, 0), (1, 0, 2)])
        compiled = _route([cx(0, 1)], 2, labels, placements, be)
        assert sum(compiled.link_usage.values()) == 1
        again = _route([cx(0, 1)], 2, labels, placements, be)
        assert again.link_usage == compiled.link_usage
