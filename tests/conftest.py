"""Shared test fixtures: seed-file dicts and cluster structures used by several suites."""

from fractions import Fraction

import pytest


def ratio_value(vector, values):
    """Value of a ratio vector {id: exponent} at exact registry values, as
    BipartiteBelt.value_walk returns them."""
    acc = Fraction(1)
    for id, e in vector.items():
        acc *= values[id] ** e
    return acc

# Rank-3 seed with six frozen Plucker coordinates of Gr(2,6) attached.
# P15 and P24 are the two sources of the bipartite orientation, P14 the
# sink. Full rank, unlike the bare three-node seed.
GR26_SEED = {
    "nodes": [
        {"name": "P15"},
        {"name": "P14"},
        {"name": "P24"},
        {"name": "P12", "frozen": True},
        {"name": "P23", "frozen": True},
        {"name": "P34", "frozen": True},
        {"name": "P45", "frozen": True},
        {"name": "P56", "frozen": True},
        {"name": "P16", "frozen": True},
    ],
    "arrows": [
        {"from": "P15", "to": "P14"},
        {"from": "P24", "to": "P14"},
        {"from": "P14", "to": "P12"},
        {"from": "P12", "to": "P24"},
        {"from": "P24", "to": "P23"},
        {"from": "P34", "to": "P24"},
        {"from": "P14", "to": "P45"},
        {"from": "P45", "to": "P15"},
        {"from": "P15", "to": "P56"},
        {"from": "P16", "to": "P15"},
        {"from": "P56", "to": "P16"},
        {"from": "P23", "to": "P34"},
    ],
}

# Orbit representatives of the Plucker cone on the 3x7 structure, each
# factored into full-cone extreme ratios, in the shared table format.
GR37_ORBIT_TABLE = """
[pluecker]
p[247]*p[123]/(p[237]*p[124]) : v[124]
p[247]*p[157]/(p[257]*p[147]) : v[257] v[246|357] v[256]
p[346]*p[256]/(p[356]*p[246]) : v[356] v[124|356] v[246|357] v[146|357]
p[256]*p[247]/(p[257]*p[246]) : v[257] v[157] v[246|357] v[146|357]
p[346]*p[247]/(p[347]*p[246]) : v[347] v[246|357] v[146|357]
p[256]*p[157]/(p[257]*p[156]) : v[257] v[246|357] v[247] v[237]
"""


@pytest.fixture(scope="session")
def gr26():
    from clustercones.grassmannian import GrassmannianCluster

    return GrassmannianCluster(2, 6)


@pytest.fixture(scope="session")
def gr36():
    from clustercones.grassmannian import GrassmannianCluster

    return GrassmannianCluster(3, 6)


@pytest.fixture(scope="session")
def gr37():
    from clustercones.grassmannian import GrassmannianCluster

    return GrassmannianCluster(3, 7)


@pytest.fixture(scope="session")
def gr38():
    from clustercones.grassmannian import GrassmannianCluster

    return GrassmannianCluster(3, 8)
