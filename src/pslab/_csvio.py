"""Atomic CSV output shared by the experiment runners and the ``save_*`` writers."""

from __future__ import annotations

import os
from typing import Sequence


def _write_csv(path: str | os.PathLike, header: str, rows: list[str], comments: Sequence[str]) -> None:
    """Write ``# comment`` lines, the header and the rows via ``<path>.tmp``.

    The file appears under ``path`` only once it is complete; the temporary
    file is removed when the write fails.
    """
    tmp = str(path) + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write("\n".join([f"# {c}" for c in comments] + [header] + rows) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
