from types import SimpleNamespace

import numpy as np
import pytest

from orlicz_korn import balance, young


@pytest.fixture(scope="module")
def catalog():
    return young.load_catalog()


@pytest.fixture
def sweep_work(monkeypatch):
    """The balance sweep's work, as it happens: ``full`` lists the full reads
    (``young._sweep_shifted``) as (id(A), k), ``screen`` the reads at chosen
    sweep points (``young._sweep_at``) as (id(A), k, number of points), and
    ``compares`` the size of each full compare (``balance._compare``)."""
    work = SimpleNamespace(full=[], screen=[], compares=[])
    sweep, at, compare = young._sweep_shifted, young._sweep_at, balance._compare
    monkeypatch.setattr(young, "_sweep_shifted", lambda A, k: work.full.append((id(A), k)) or sweep(A, k))
    monkeypatch.setattr(young, "_sweep_at",
                        lambda A, k, idx: work.screen.append((id(A), k, np.size(idx))) or at(A, k, idx))
    monkeypatch.setattr(balance, "_compare", lambda lhs, rhs: work.compares.append(lhs.size) or compare(lhs, rhs))
    return work
