"""Compatibility with real EIA exports (no extension columns).

Real EIA Hourly Grid Monitor exports carry no "Curtailed (MW)" column —
that is this library's own extension.  The reader must accept such files
(treating curtailment as zero) because they are exactly what a user with
real data will feed in.
"""

import io

import numpy as np
import pytest

from repro.grid import generate_grid_dataset
from repro.io import CURTAILED_COLUMN, read_grid_csv, write_grid_csv


@pytest.fixture(scope="module")
def csv_without_curtailed():
    """A PACE export with the curtailed column stripped, as EIA would ship."""
    buffer = io.StringIO()
    write_grid_csv(generate_grid_dataset("PACE"), buffer)
    lines = buffer.getvalue().splitlines()
    header_cells = lines[1].split(",")
    drop = header_cells.index(CURTAILED_COLUMN)
    stripped = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        del cells[drop]
        stripped.append(",".join(cells))
    return "\n".join(stripped) + "\n"


class TestRealEiaShape:
    def test_reads_without_curtailed_column(self, csv_without_curtailed):
        parsed = read_grid_csv(io.StringIO(csv_without_curtailed))
        assert parsed.authority.code == "PACE"

    def test_curtailment_defaults_to_zero(self, csv_without_curtailed):
        parsed = read_grid_csv(io.StringIO(csv_without_curtailed))
        assert parsed.curtailed.total() == 0.0

    def test_generation_unaffected(self, csv_without_curtailed, pace_grid):
        parsed = read_grid_csv(io.StringIO(csv_without_curtailed))
        assert np.allclose(parsed.wind.values, pace_grid.wind.values, atol=1e-3)
        assert np.allclose(parsed.demand.values, pace_grid.demand.values, atol=1e-3)

    def test_explicit_year_parameter(self, csv_without_curtailed):
        parsed = read_grid_csv(io.StringIO(csv_without_curtailed), year=2020)
        assert parsed.calendar.year == 2020

    def test_wrong_explicit_year_rejected(self, csv_without_curtailed):
        """Passing the wrong year must fail on row count, not misalign."""
        from repro.io import GridCsvError

        with pytest.raises(GridCsvError, match="hourly rows"):
            read_grid_csv(io.StringIO(csv_without_curtailed), year=2021)

    def test_downstream_analyses_run(self, csv_without_curtailed):
        """A curtailment-free dataset must drive the full pipeline."""
        from repro.core import renewable_coverage
        from repro.grid import RenewableInvestment, projected_supply
        from repro.timeseries import HourlySeries

        parsed = read_grid_csv(io.StringIO(csv_without_curtailed))
        supply = projected_supply(parsed, RenewableInvestment(solar_mw=100, wind_mw=50))
        demand = HourlySeries.constant(19.0, parsed.calendar)
        assert 0.0 < renewable_coverage(demand, supply) < 1.0
        assert parsed.curtailment_fraction() == 0.0
