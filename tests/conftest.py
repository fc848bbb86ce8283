import os
from pathlib import Path

import pytest

import musenum
from helpers import EXAMPLE1_DIMACS


@pytest.fixture(autouse=True, scope="session")
def package_on_subprocess_path():
    """`python -m musenum` in a subprocess imports the package these tests import."""
    parent = str(Path(musenum.__file__).resolve().parent.parent)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(
            "PYTHONPATH",
            os.pathsep.join(filter(None, [parent, os.environ.get("PYTHONPATH")])),
        )
        yield


@pytest.fixture
def example1_path(tmp_path):
    path = tmp_path / "example1.cnf"
    path.write_text(EXAMPLE1_DIMACS)
    return str(path)
