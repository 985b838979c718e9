from pathlib import Path

import pytest

import sgcalc

tomllib = pytest.importorskip("tomllib")


def test_package_version_matches_pyproject():
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    with pyproject.open("rb") as handle:
        assert sgcalc.__version__ == tomllib.load(handle)["project"]["version"]
