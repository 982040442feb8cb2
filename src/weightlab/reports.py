"""Deterministic JSON/CSV emission.

JSON: sorted keys, two-space indent, LF line endings, floats via the
shortest round-trip repr (Python's default).  CSV: fixed column order,
LF endings, repr floats.  No timestamps anywhere, so identical inputs
produce byte-identical files.  A report file is written whole by
write_report.
"""

from __future__ import annotations

import json
import math
import os
import stat
from typing import IO, Iterable


def _sanitize(obj):
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if obj == math.inf:
            return "inf"
        if obj == -math.inf:
            return "-inf"
        return obj
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if hasattr(obj, "to_dict"):
        return _sanitize(obj.to_dict())
    if hasattr(obj, "tolist"):
        return _sanitize(obj.tolist())
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        return _sanitize(obj.item())
    return obj


def json_text(obj) -> str:
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n"


CONTRADICTION_COLUMNS = (
    "j",
    "n_j",
    "lhs_partial",
    "rhs_partial",
    "rhs_tail_bound",
    "minmod_sup",
    "schwarz_rhs",
    "margin",
)


def _cell(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return repr(v)
    return str(v)


def write_csv(fp: IO[str], columns: Iterable[str], rows: Iterable) -> None:
    cols = list(columns)
    fp.write(",".join(cols) + "\n")
    for row in rows:
        fp.write(",".join(_cell(getattr(row, c)) for c in cols) + "\n")


def write_report(path: str, text: str) -> None:
    """Write `text` to `path`, replacing an existing regular file by a new one.

    A regular file is unlinked first, never truncated: ext4 flushes a file
    that is truncated and written again when it is closed (auto_da_alloc),
    and the next truncation waits for that write-back.  A hard link to the
    old file keeps the old contents.  Any other path is opened as given: a
    missing file is created, and a device, FIFO or symlink is written
    through.  Errors come from the open, as for a plain write.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except OSError:
        pass  # missing, or not ours to unlink: the open below decides
    with open(path, "w", newline="") as fp:
        fp.write(text)
