import pytest

from orlicz_korn import young


@pytest.fixture(scope="module")
def catalog():
    return young.load_catalog()
