"""The item gate: every reader of a curve's items refuses a malformed item
with the StructureError that validate gives, before any analysis runs."""

import re

import pytest

from fixtures_lib import tropical_line
from tropcurve.bunch import bouquet_structure, bunch, classify_edges
from tropcurve.curve import (
    StructureError,
    canonical_form,
    curve,
    items,
    normalize,
    union,
    validate,
)
from tropcurve.intersect import stable_intersection
from tropcurve.jacobian import cycle_system, require_reduced
from tropcurve.newton import newton_complex, newton_polygon
from tropcurve.params import params_from_curve

_LINE_RAYS = [(0, (-1, 0)), (0, (0, -1)), (0, (1, 1))]

# One curve per per-item defect, each the first defect validate finds; the
# vertices are distinct, so validate's coincidence check passes first.
DEFECTS = {
    "edge-out-of-range": curve([(0, 0), (1, 1)], edges=[(0, 5)], rays=_LINE_RAYS),
    "edge-negative-index": curve([(0, 0), (1, 1)], edges=[(-1, 0)], rays=_LINE_RAYS),
    "edge-identical-endpoints": curve([(0, 0)], edges=[(0, 0)], rays=_LINE_RAYS),
    "edge-zero-weight": curve(
        [(0, 0), (1, 1)], edges=[(0, 1, 0)],
        rays=[(0, (-1, 0)), (0, (0, -1)), (1, (1, 1))],
    ),
    "edge-fractional-weight": curve(
        [(0, 0), (1, 1)], edges=[(0, 1, 1.5)],
        rays=[(0, (-1, 0)), (0, (0, -1)), (1, (1, 1))],
    ),
    "ray-out-of-range": curve([(0, 0)], rays=[(0, (-1, 0)), (0, (0, -1)), (3, (1, 1))]),
    "ray-negative-weight": curve([(0, 0)], rays=[(0, (-1, 0)), (0, (0, -1)), (0, (1, 1), -1)]),
    "ray-zero-direction": curve([(0, 0)], rays=[*_LINE_RAYS, (0, (0, 0))]),
    # balanced: (2, 0) + 2 * (-1, 0) = 0
    "ray-not-primitive": curve([(0, 0)], rays=[(0, (2, 0)), (0, (-1, 0), 2)]),
}

MESSAGES = {
    "edge-out-of-range": "edge 0 references vertex out of range",
    "edge-negative-index": "edge 0 references vertex out of range",
    "edge-identical-endpoints": "edge 0 has identical endpoints",
    "edge-zero-weight": "edge 0 has non-positive weight",
    "edge-fractional-weight": "edge 0 has non-positive weight",
    "ray-out-of-range": "ray 2 references vertex out of range",
    "ray-negative-weight": "ray 2 has non-positive weight",
    "ray-zero-direction": "ray 3 has zero direction",
    "ray-not-primitive": "ray 0 direction is not primitive",
}

READERS = {
    "newton_polygon": newton_polygon,
    "newton_complex": newton_complex,
    "stable_intersection": lambda c: stable_intersection(c, tropical_line()),
    "stable_intersection_second": lambda c: stable_intersection(tropical_line(), c),
    "bunch": bunch,
    "classify_edges": classify_edges,
    "bouquet_structure": bouquet_structure,
    "cycle_system": cycle_system,
    "canonical_form": canonical_form,
    "union": lambda c: union(c, tropical_line()),
    "normalize": normalize,
    "params_from_curve": params_from_curve,
    "require_reduced": require_reduced,
}


@pytest.mark.parametrize("defect", DEFECTS)
def test_validate_names_the_defect(defect):
    with pytest.raises(StructureError) as err:
        validate(DEFECTS[defect])
    assert str(err.value) == MESSAGES[defect]


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("defect", DEFECTS)
def test_every_reader_refuses_with_validates_message(defect, reader):
    with pytest.raises(StructureError, match=f"^{re.escape(MESSAGES[defect])}$"):
        READERS[reader](DEFECTS[defect])


def test_edge_between_coincident_vertices():
    # validate names the first coincident pair; the gate names the edge's pair
    c = curve([(0, 0), (1, 1), (1, 1)], edges=[(2, 1)], rays=_LINE_RAYS)
    with pytest.raises(StructureError, match=r"^vertices 1 and 2 coincide at \(1, 1\)$"):
        validate(c)
    with pytest.raises(StructureError, match=r"^vertices 1 and 2 coincide at \(1, 1\)$"):
        items(c)


def test_newton_polygon_admits_items_before_its_ray_check():
    with pytest.raises(StructureError, match="^edge 0 references vertex out of range$"):
        newton_polygon(curve([(0, 0)], edges=[(0, 1)]))


def test_edges_are_checked_before_rays():
    c = curve([(0, 0), (1, 1)], edges=[(0, 1, 0)], rays=[(0, (0, 0)), (9, (1, 0))])
    with pytest.raises(StructureError, match="^edge 0 has non-positive weight$"):
        newton_complex(c)


def test_isolated_vertex_stays_in_validate():
    # the item gate checks items only: an isolated vertex reaches the readers
    c = curve([(0, 0), (5, 5)], rays=_LINE_RAYS)
    with pytest.raises(StructureError, match="^vertex 1 is isolated$"):
        validate(c)
    assert len(items(c)) == 3
