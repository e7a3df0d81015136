"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from qsdsim.configuration import Configuration
from qsdsim.rates import LogisticModel, UniformModel
from qsdsim.trait_space import UniformKernel


def configurations(min_entries: int = 1, max_entries: int = 6):
    """Configurations of distinct traits in [0, 1], each of weight 1-5."""
    traits = st.lists(st.floats(0.0, 1.0), min_size=min_entries, max_size=max_entries,
                      unique=True)
    return traits.flatmap(lambda ts: st.lists(
        st.integers(1, 5), min_size=len(ts), max_size=len(ts)).map(
        lambda ws: Configuration.from_pairs(zip(ts, ws))))


# Rate models of both kinds over random admissible parameters.
RATE = st.floats(0.01, 10.0)
RHO = st.floats(0.01, 0.99)
MODELS = st.one_of(
    st.builds(UniformModel, lam=RATE, b=RATE, rho=RHO, kernel=st.just(UniformKernel())),
    st.builds(LogisticModel, b=RATE, rho=RHO, d=RATE, c=RATE,
              kernel=st.just(UniformKernel())))
