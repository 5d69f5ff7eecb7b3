"""``_write_csv`` is atomic: a failed write leaves no temp file."""

import numpy as np
import pytest

from pslab.geometry import PhasePointSet

WRITERS = {
    "phase_points": lambda path: PhasePointSet(np.array([[0.0, 0.5]]), 1.0).save_csv(path),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_leaves_no_temp_file(tmp_path, name):
    target = tmp_path / "target.csv"
    target.mkdir()  # the final rename cannot replace a directory
    with pytest.raises(OSError):
        WRITERS[name](target)
    assert target.is_dir()
    assert not (tmp_path / "target.csv.tmp").exists()
