import numpy as np
import pytest

from wqbg import qbg as qbg_mod
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


@pytest.fixture(scope="session")
def reflection_bfs():
    def bfs(g):
        """l_R of every element of the table of `g`: breadth-first distances
        from e in the reflection Cayley graph, the reference that the trace
        formula of ``coxeter.reflection_lengths`` and the QBG pruning bound
        are checked against."""
        table = g.enumerate()
        refl = [(np.abs(t.images) - 1, np.sign(t.images)) for t in g.reflections()]
        dist = np.full(len(table), -1, dtype=np.int8)
        frontier = np.array([table.index_of(g.identity)])
        dist[frontier] = d = 0
        # a group without reflections (GL1) is e alone
        while len(frontier) and refl:
            d += 1
            rows = table.mat[frontier]
            nbrs = table.lookup(np.concatenate([rows[:, idx] * sgn for idx, sgn in refl]))
            # stamped and read back: the new level sorted, each element once
            dist[nbrs[dist[nbrs] < 0]] = d
            frontier = np.flatnonzero(dist == d)
        return dist

    return bfs


@pytest.fixture(scope="session")
def all_weights():
    def join(q):
        """``all_pairs(q)`` and its ``weight_blocks`` joined: (D, wt, unique,
        dominated), after checking that the blocks take every source once, in
        order, and have the shapes and types the stream promises."""
        D = qbg_mod.all_pairs(q)
        blocks = list(qbg_mod.weight_blocks(q, D))
        sources = [range(q.n)[b[0]] for b in blocks]
        assert [s for r in sources for s in r] == list(range(q.n))
        assert all(len(r) for r in sources)
        certified = blocks[0][3] is not None
        for r, (_, wt, unique, dominated) in zip(sources, blocks):
            assert wt.dtype == np.int64 and wt.shape == (len(r), q.n) and wt.flags.c_contiguous
            assert unique.dtype == bool and unique.shape == (len(r),)
            assert (dominated is not None) == certified
            assert dominated is None or (dominated.dtype == bool and dominated.shape == (len(r),))
        wt, unique, dominated = ([b[i] for b in blocks] for i in (1, 2, 3))
        return (D, np.concatenate(wt), np.concatenate(unique),
                np.concatenate(dominated) if certified else None)

    return join
