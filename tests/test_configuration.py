import copy
import math
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdsim.configuration import Configuration, _successor, parse_configuration
from qsdsim.errors import TraitAbsent

from ensembles import serialize
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


def test_weights_must_not_be_bools():
    # a bool is an int, but True@0.5 would not parse back
    with pytest.raises(ValueError):
        Configuration(((0.5, True),))
    with pytest.raises(ValueError):
        Configuration(((0.2, 1), (0.5, False)))


def test_from_pairs_refuses_a_weight_that_is_not_an_integer():
    for weight in (1.7, 0.5, -0.25, math.inf, math.nan):
        with pytest.raises(ValueError):
            Configuration.from_pairs([(0.5, weight)])
    c = Configuration.from_pairs([(0.5, 2.0), (0.5, 1)])
    assert c.entries == ((0.5, 3),) and type(c.entries[0][1]) is int


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


# Entries of 0-8 distinct traits; -0.0 stands in for 0.0 now and then, so
# that a stored trait object can be told from an equal one.
_TRAIT = st.one_of(st.floats(0.0, 1.0), st.just(-0.0))
_ENTRIES = st.lists(st.tuples(_TRAIT, st.integers(1, 5)), max_size=8,
                    unique_by=lambda entry: entry[0]).map(sorted).map(tuple)


def _signs(config):
    return [math.copysign(1.0, trait) for trait, _ in config.entries]


@settings(max_examples=300, deadline=None)
@given(_ENTRIES, st.data())
def test_successors_equal_a_fully_validated_configuration(entries, data):
    c = Configuration(entries)
    stored = [trait for trait, _ in entries]
    trait = data.draw(st.one_of(_TRAIT, *([st.sampled_from(stored)] if stored else [])))

    def validated(step):
        counts = dict(entries)  # an equal key keeps the stored trait object
        counts[trait] = counts.get(trait, 0) + step
        return Configuration(tuple((t, w) for t, w in sorted(counts.items()) if w))

    pairs = [(c.add(trait), validated(1)), (c.add(trait).remove(trait), c)]
    if trait in stored:
        pairs.append((c.remove(trait), validated(-1)))
    else:
        with pytest.raises(TraitAbsent):
            c.remove(trait)
    for got, want in pairs:
        assert got.entries == want.entries
        assert got.total_mass == want.total_mass
        assert got == want and hash(got) == hash(want)
        assert _signs(got) == _signs(want)
    outside = data.draw(st.floats().filter(lambda x: not 0.0 <= x <= 1.0))
    with pytest.raises(ValueError):
        c.add(outside)


# Traits the successors might mishandle: both zeros, 1, the least subnormal and 1/3.
_EDGE_TRAIT = st.one_of(_TRAIT, st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1 / 3]))


@settings(max_examples=300, deadline=None)
@given(_ENTRIES, st.data())
def test_successors_are_the_configuration_of_the_merged_pairs(entries, data):
    c = Configuration(entries)
    stored = [trait for trait, _ in entries]
    trait = data.draw(st.one_of(_EDGE_TRAIT, *([st.sampled_from(stored)] if stored else [])))
    results = [(1, c.add(trait))]
    if trait in stored:
        results.append((-1, c.remove(trait)))
    for step, got in results:
        want = Configuration.from_pairs([*entries, (trait, step)])
        assert type(got) is Configuration
        assert repr(got.entries) == repr(want.entries) and _signs(got) == _signs(want)
        assert got.total_mass == want.total_mass == c.total_mass + step
    # removing the last individual gives the one shared void
    void = Configuration(((trait, 1),)).remove(trait)
    assert void is Configuration.singleton(0.5).remove(0.5)
    assert void == Configuration.void() and hash(void) == hash(Configuration.void())
    assert void.entries == () and void.total_mass == 0
    absent = data.draw(st.one_of(st.just(math.nan), _EDGE_TRAIT).filter(
        lambda x: x not in stored))
    with pytest.raises(TraitAbsent):
        c.remove(absent)
    outside = data.draw(st.one_of(
        st.sampled_from([math.nan, -5e-324, math.nextafter(1.0, 2.0), -math.inf, math.inf]),
        st.floats().filter(lambda x: not 0.0 <= x <= 1.0)))
    with pytest.raises(ValueError):
        c.add(outside)


def test_successors_keep_a_stored_negative_zero():
    c = Configuration(((-0.0, 2), (0.5, 1)))
    for successor in (c.add(0.0), c.remove(0.0)):
        assert math.copysign(1.0, successor.entries[0][0]) == -1.0


def test_immutability():
    c = Configuration.singleton(0.5)
    d = c.add(0.5)
    assert c.entries == ((0.5, 1),)
    assert d.entries == ((0.5, 2),)
    with pytest.raises(Exception):
        c.entries = ()


def test_fields_are_frozen_slots():
    # one built and checked, one built by add through the slots
    built = Configuration.from_pairs([(0.2, 1), (0.7, 1)])
    successor = Configuration.singleton(0.2).add(0.7)
    for c in (built, successor):
        with pytest.raises(FrozenInstanceError):
            c.entries = ()
        with pytest.raises(FrozenInstanceError):
            c.total_mass = 0
        assert not hasattr(c, "__dict__")
    assert built == successor and successor.total_mass == 2


@pytest.mark.parametrize("clone", [lambda c: pickle.loads(pickle.dumps(c)), copy.copy,
                                   copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_copies_keep_equality_hash_and_mass(clone):
    built = Configuration.from_pairs([(0.1, 1), (0.9, 3)])
    for c in (Configuration.void(), built, built.add(0.5), built.remove(0.9)):
        twin = clone(c)
        assert twin == c and hash(twin) == hash(c)
        assert twin.entries == c.entries and twin.total_mass == c.total_mass


@settings(max_examples=100, deadline=None)
@given(_ENTRIES)
def test_a_successor_is_the_configuration_of_its_entries(entries):
    c = Configuration(entries)
    s = _successor(entries, sum(w for _, w in entries))
    assert type(s) is Configuration
    assert s == c and hash(s) == hash(c)
    assert s.entries == c.entries and s.total_mass == c.total_mass


@settings(max_examples=200, deadline=None)
@given(configurations(0))
def test_serialize_round_trip_bit_exact(c):
    assert parse_configuration(serialize(c)) == c


# Weights of every kind a caller might pass: ints of any sign, bools and floats.
_ANY_WEIGHT = st.one_of(st.integers(-3, 6), st.booleans(), st.floats(-3.0, 6.0))
_ANY_ENTRIES = st.lists(st.tuples(_TRAIT, _ANY_WEIGHT), max_size=6,
                        unique_by=lambda entry: entry[0]).map(
    lambda entries: tuple(sorted(entries, key=lambda entry: entry[0])))


@settings(max_examples=150, deadline=None)
@given(_ANY_ENTRIES)
def test_every_accepted_configuration_parses_back_from_its_text(entries):
    for build in (Configuration, Configuration.from_pairs):
        try:
            c = build(entries)
        except ValueError:
            continue
        assert parse_configuration(serialize(c)) == c


def test_serialize_format():
    assert serialize(Configuration.void()) == "0"
    assert serialize(Configuration.from_pairs([(0.5, 2), (0.25, 1)])) == "1@0.25;2@0.5"
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
