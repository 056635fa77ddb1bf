from types import SimpleNamespace

import numpy as np
import pytest

from orlicz_korn import balance, young


@pytest.fixture(scope="module")
def catalog():
    return young.load_catalog()


@pytest.fixture(scope="session")
def sweep_tau():
    """The balance sweep's tau as one array, the concatenation of its grid
    parts: the oracle of ``young._sweep_tau`` and ``young._sweep_index``."""
    return np.concatenate([young._GRIDS[grid][lo:hi] for grid, lo, hi in young._SWEEP_PARTS])


@pytest.fixture
def sweep_work(monkeypatch):
    """The balance sweep's work, as it happens: ``reads`` lists the reads of
    ``young._sweep_read`` as (id(A), k, slice), where chunk reads of one
    (A, k), each starting where the one before it stopped, count as one read
    of the stretch they tile; ``compares`` lists the points of each full test
    (``balance._full_test``), the sizes of the right-hand-side chunks it
    compares summed, which must tile its suffix."""
    work = SimpleNamespace(reads=[], compares=[])
    read, full_test = young._sweep_read, balance._full_test

    def counted_read(A, k, at=slice(None)):
        a, b, last = work.reads[-1] if work.reads else (None, None, slice(None))
        if (a, b) == (id(A), k) and last.step is at.step is None and last.stop == at.start:
            work.reads[-1] = (id(A), k, slice(last.start, at.stop))
        else:
            work.reads.append((id(A), k, at))
        return read(A, k, at)

    def counted_test(lhs_at, rhs_at, start):
        work.compares.append(0)

        def counted_rhs(at):
            rhs = rhs_at(at)
            work.compares[-1] += rhs.size
            return rhs

        result = full_test(lhs_at, counted_rhs, start)
        assert work.compares[-1] == young._SWEEP_SIZE - start
        return result

    monkeypatch.setattr(young, "_sweep_read", counted_read)
    monkeypatch.setattr(balance, "_full_test", counted_test)
    return work
