import pytest

from wqbg.coxeter import get_group
from wqbg.qbg import build_qbg


@pytest.fixture(scope="session")
def group():
    return get_group


@pytest.fixture(scope="session")
def graph_of():
    def build(label):
        return build_qbg(get_group(label))

    return build
