import pytest

from chipmap.backend import ChipletBackend, build_backend


@pytest.fixture
def single_chip() -> ChipletBackend:
    return build_backend({"grid": [1, 1], "chiplet": [5, 5]})
