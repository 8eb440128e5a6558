from fractions import Fraction

import pytest

from fraclat.structure import (
    StructureError,
    StructureSpec,
    build_level,
    builtin_gasket,
    builtin_interval,
    validate_structure,
)


def test_gasket_validates(gasket):
    report = validate_structure(gasket)
    assert report.ok
    assert report.failures == ()


def test_interval_validates():
    for alpha in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
        assert validate_structure(builtin_interval(alpha)).ok


def test_extra_diagonal_pair_fails():
    # adding (1,1) ~ (2,1) makes the class of (1,1) non-singleton
    rel = builtin_gasket().relation + (((0, 0), (1, 0)),)
    spec = StructureSpec("bad", 3, 3, rel, ((0, 1, 2),), (1, 1, 1), (1, 1, 1))
    report = validate_structure(spec)
    assert not report.ok
    assert "diagonal-singleton" in report.failures


def test_disconnected_relation_fails():
    # two cells with no glue at all
    spec = StructureSpec("split", 2, 2, (), ((0, 1),), (1, 1), (1, 1))
    report = validate_structure(spec)
    assert "cell-graph-connected" in report.failures


def test_weights_not_invariant_under_the_group_fail():
    # the swap preserves the glue but exchanges unequal alphas; (H) still holds
    alpha = (Fraction(1, 3), Fraction(2, 3))
    spec = StructureSpec("swapped", 2, 2, (((0, 1), (1, 0)),), ((0, 1), (1, 0)), alpha, alpha[::-1])
    report = validate_structure(spec)
    assert report.failures == ("group-invariance",)


def test_broken_h_assumption_fails():
    spec = StructureSpec(
        "noH", 2, 2, (((0, 1), (1, 0)),), ((0, 1),),
        (Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(3)),
    )
    report = validate_structure(spec)
    assert "weight-product-constant" in report.failures


def test_malformed_inputs_raise():
    with pytest.raises(StructureError):
        StructureSpec("p", 2, 2, (), ((0, 0),), (1, 1), (1, 1))  # bad permutation
    with pytest.raises(StructureError):
        StructureSpec("w", 2, 2, (), ((0, 1),), (1, -1), (1, 1))  # weight <= 0
    with pytest.raises(StructureError):
        StructureSpec("r", 2, 2, (((0, 5), (1, 0)),), ((0, 1),), (1, 1), (1, 1))


def test_json_roundtrip(tmp_path, gasket):
    import json

    path = tmp_path / "gasket.json"
    path.write_text(json.dumps(gasket.to_dict()))
    again = StructureSpec.from_json(path)
    assert again == gasket


@pytest.mark.parametrize("n", range(6))
def test_gasket_vertex_count(gasket, n):
    lat = build_level(gasket, n)
    assert lat.num_vertices == (3 ** (n + 1) + 3) // 2
    assert len(lat.boundary) == 3


@pytest.mark.parametrize("n", range(9))
def test_interval_vertex_count(n):
    lat = build_level(builtin_interval(), n)
    assert lat.num_vertices == 2**n + 1


def test_level_zero_is_base_cell(gasket):
    lat = build_level(gasket, 0)
    assert lat.num_vertices == 3
    assert sorted(lat.boundary) == [0, 1, 2]


def test_boundary_words_are_diagonal(gasket):
    lat = build_level(gasket, 3)
    for x, v in enumerate(lat.boundary):
        assert lat.id_to_word[v] == (x,) * 4


def test_group_acts_on_levels(gasket):
    lat = build_level(gasket, 2)
    for g in gasket.group:
        perm = lat.vertex_permutation(g)
        assert sorted(perm) == list(range(lat.num_vertices))
        assert {perm[v] for v in lat.boundary} == set(lat.boundary)


def test_subdivision_copies_have_disjoint_interiors(gasket):
    lat1 = build_level(gasket, 1)
    lat2 = build_level(gasket, 2)
    copies = [set(lat2.cell_vertices((i,))) for i in range(3)]
    assert all(len(c) == lat1.num_vertices for c in copies)
    boundaries = [
        {lat2.word_to_id[(i,) + (x,) * 2] for x in range(3)} for i in range(3)
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            overlap = copies[i] & copies[j]
            assert overlap <= boundaries[i] and overlap <= boundaries[j]


def test_vertex_ids_deterministic(gasket):
    a = build_level(gasket, 3)
    b = build_level(gasket, 3)
    assert a.id_to_word == b.id_to_word
    assert a.word_to_id == b.word_to_id
