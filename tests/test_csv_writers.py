"""Every ``save_*`` CSV writer is atomic: a failed write leaves no temp file."""

import numpy as np
import pytest

from pslab.fock import SweepRow, save_sweep_csv
from pslab.frames import CommutationLedger, save_ledger_csv
from pslab.geometry import PhasePointSet

WRITERS = {
    "ledger": lambda path: save_ledger_csv(
        path,
        CommutationLedger(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)), np.zeros(1), np.zeros((1, 1))),
    ),
    "phase_points": lambda path: PhasePointSet(np.array([[0.0, 0.5]]), 1.0).save_csv(path),
    "sweep": lambda path: save_sweep_csv(path, [SweepRow(1.0, 1.0, 0.5, 1.0, 2.0)]),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_leaves_no_temp_file(tmp_path, name):
    target = tmp_path / "target.csv"
    target.mkdir()  # the final rename cannot replace a directory
    with pytest.raises(OSError):
        WRITERS[name](target)
    assert target.is_dir()
    assert not (tmp_path / "target.csv.tmp").exists()
