"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from qsdsim.configuration import Configuration


def configurations(min_entries: int = 1, max_entries: int = 6):
    """Configurations of distinct traits in [0, 1], each of weight 1-5."""
    traits = st.lists(st.floats(0.0, 1.0), min_size=min_entries, max_size=max_entries,
                      unique=True)
    return traits.flatmap(lambda ts: st.lists(
        st.integers(1, 5), min_size=len(ts), max_size=len(ts)).map(
        lambda ws: Configuration.from_pairs(zip(ts, ws))))
