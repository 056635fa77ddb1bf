from types import SimpleNamespace

import pytest

from orlicz_korn import balance, young


@pytest.fixture(scope="module")
def catalog():
    return young.load_catalog()


@pytest.fixture
def sweep_work(monkeypatch):
    """The balance sweep's work, as it happens: ``reads`` lists the reads of
    ``young._sweep_read`` as (id(A), k, slice), and ``compares`` the size of
    each full compare (``balance._compare``)."""
    work = SimpleNamespace(reads=[], compares=[])
    read, compare = young._sweep_read, balance._compare
    monkeypatch.setattr(young, "_sweep_read",
                        lambda A, k, at=slice(None): work.reads.append((id(A), k, at)) or read(A, k, at))
    monkeypatch.setattr(balance, "_compare", lambda lhs, rhs: work.compares.append(lhs.size) or compare(lhs, rhs))
    return work
