import pytest

from isoperim import (
    WeightedGraph,
    chain_from_graph,
    cycle_graph,
    random_directed_graph,
    random_reversible_graph,
)


@pytest.fixture
def two_state():
    """The swap chain P = [[0,1],[1,0]]."""
    return chain_from_graph(WeightedGraph(n=2, edges=((0, 1, 1.0),)))


@pytest.fixture
def cycle4():
    return chain_from_graph(cycle_graph(4))


@pytest.fixture
def cycle6():
    return chain_from_graph(cycle_graph(6))


@pytest.fixture
def directed_3cycle():
    edges = ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0))
    return chain_from_graph(WeightedGraph(n=3, edges=edges, directed=True))


@pytest.fixture
def directed_4cycle():
    edges = ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0))
    return chain_from_graph(WeightedGraph(n=4, edges=edges, directed=True))


def reversible_suite(count=200, seed_base=1000):
    """Seeded random reversible chains, n in [3, 12]."""
    chains = []
    for i in range(count):
        n = 3 + (i % 10)
        density = 0.3 + 0.15 * ((i // 10) % 5)
        chains.append(chain_from_graph(random_reversible_graph(n, density=density, seed=seed_base + i)))
    return chains


def directed_suite(count=100, seed_base=5000):
    """Seeded random strongly connected directed chains, n in [3, 10]."""
    chains = []
    for i in range(count):
        n = 3 + (i % 8)
        density = 0.3 + 0.15 * ((i // 8) % 5)
        chains.append(chain_from_graph(random_directed_graph(n, density=density, seed=seed_base + i)))
    return chains
