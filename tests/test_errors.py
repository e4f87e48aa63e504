import numpy as np
import pytest

from chiralcav import ChiralCavError, Spectrum, ValidationError, cooperativity, reference_values
from chiralcav.tables import DataTable, parse_csv, write_table
from helpers import make_system

TABLE = DataTable(name="demo", columns=("x",), rows=np.zeros((1, 1)))


@pytest.mark.parametrize(
    "call",
    [
        lambda tmp: Spectrum(make_system(), np.array([0.0, 0.0]), np.zeros(2)),
        lambda tmp: cooperativity(make_system(kappa_wg=0.0, kappa_sc=0.0)),
        lambda tmp: reference_values(C=-1.0, kappa_wg=100.0, kappa=400.0),
        lambda tmp: write_table(TABLE, tmp / "demo.xml", "xml"),
        lambda tmp: parse_csv("# only = meta\n"),
    ],
    ids=["spectrum-grid", "cooperativity", "reference-values", "write-format", "parse-header"],
)
def test_invalid_input_raises_package_error(call, tmp_path):
    with pytest.raises(ChiralCavError) as info:
        call(tmp_path)
    assert isinstance(info.value, ValidationError)
    assert list(tmp_path.iterdir()) == []
