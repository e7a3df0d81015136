import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdsim.configuration import Configuration, parse_configuration
from qsdsim.errors import TraitAbsent

from strategies import configurations


def test_void_has_no_mass():
    void = Configuration.void()
    assert void.is_void
    assert void.total_mass == 0
    assert void.support_size == 0
    assert void.entries == ()


def test_from_pairs_merges_and_sorts():
    c = Configuration.from_pairs([(0.7, 1), (0.2, 2), (0.7, 3)])
    assert c.entries == ((0.2, 2), (0.7, 4))
    assert c.total_mass == 6
    assert c.support_size == 2
    assert [weight for _, weight in c.entries] == [2, 4]


def test_entries_must_be_strictly_increasing():
    with pytest.raises(ValueError):
        Configuration(((0.5, 1), (0.5, 1)))
    with pytest.raises(ValueError):
        Configuration(((0.7, 1), (0.2, 1)))


def test_weights_must_be_positive_integers():
    with pytest.raises(ValueError):
        Configuration(((0.5, 0),))
    with pytest.raises(ValueError):
        Configuration(((0.5, -2),))
    with pytest.raises(ValueError):
        Configuration(((0.5, 1.5),))


def test_traits_must_lie_in_unit_interval():
    with pytest.raises(ValueError):
        Configuration(((1.5, 1),))


def test_individual_trait_uses_cumulative_weights():
    c = Configuration.from_pairs([(0.1, 2), (0.5, 1), (0.9, 3)])
    assert [c.individual_trait(i) for i in range(1, 7)] == \
        [0.1, 0.1, 0.5, 0.9, 0.9, 0.9]
    with pytest.raises(IndexError):
        c.individual_trait(0)
    with pytest.raises(IndexError):
        c.individual_trait(7)


def test_add_inserts_in_order():
    c = Configuration.from_pairs([(0.3, 1), (0.7, 2)])
    assert c.add(0.5).entries == ((0.3, 1), (0.5, 1), (0.7, 2))
    assert c.add(0.7).entries == ((0.3, 1), (0.7, 3))
    assert c.add(0.1).entries == ((0.1, 1), (0.3, 1), (0.7, 2))
    assert c.add(0.9).entries == ((0.3, 1), (0.7, 2), (0.9, 1))
    assert Configuration.void().add(0.4).entries == ((0.4, 1),)


def test_remove_decrements_and_drops():
    c = Configuration.from_pairs([(0.3, 1), (0.7, 2)])
    assert c.remove(0.7).entries == ((0.3, 1), (0.7, 1))
    assert c.remove(0.3).entries == ((0.7, 2),)
    assert c.remove(0.3).remove(0.7).remove(0.7).is_void
    with pytest.raises(TraitAbsent):
        c.remove(0.5)


@settings(max_examples=200, deadline=None)
@given(configurations(), st.floats(0.0, 1.0), st.integers(0, 5))
def test_add_remove_round_trip_is_identity(c, fresh, pick):
    for trait in (fresh, c.entries[pick % c.support_size][0]):
        assert c.add(trait).remove(trait) == c


def test_immutability():
    c = Configuration.singleton(0.5)
    d = c.add(0.5)
    assert c.entries == ((0.5, 1),)
    assert d.entries == ((0.5, 2),)
    with pytest.raises(Exception):
        c.entries = ()


@settings(max_examples=200, deadline=None)
@given(configurations(0))
def test_serialize_round_trip_bit_exact(c):
    assert parse_configuration(c.serialize()) == c


def test_serialize_format():
    assert Configuration.void().serialize() == "0"
    assert Configuration.from_pairs([(0.5, 2), (0.25, 1)]).serialize() == "1@0.25;2@0.5"
    assert parse_configuration("0").is_void


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_configuration("1:0.5")
    with pytest.raises(ValueError):
        parse_configuration("x@0.5")


def test_configurations_hash_and_compare_by_value():
    a = Configuration.from_pairs([(0.5, 2)])
    b = Configuration.from_pairs([(0.5, 1), (0.5, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@settings(max_examples=200, deadline=None)
@given(configurations())
def test_individual_traits_list_each_trait_weight_times_in_order(c):
    listed = [c.individual_trait(i) for i in range(1, c.total_mass + 1)]
    assert listed == [t for t, w in c.entries for _ in range(w)]
