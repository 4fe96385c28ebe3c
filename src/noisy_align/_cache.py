"""Per-user cache of parsed embedding files.

`parsed(path, limit, parse)` returns `parse(path, limit)`: the tokens, the
d x n float64 matrix as parsed and the skipped-row count. A later call for
the same unchanged regular file and `limit` reads that result back from one
entry file instead of parsing the text again.

- Entries live in `$XDG_CACHE_HOME/noisy-align`, or `~/.cache/noisy-align`
  when that variable is unset (or, as the XDG spec asks, not absolute).
- An entry is named from the file's (st_dev, st_ino) and `limit`, and
  records a stamp: `FORMAT`, the realpath, st_size, st_mtime_ns and
  st_ctime_ns. It is a hit only when the stamp equals the file's current
  one, so a file rewritten in place, replaced, touched or chmod-ed misses.
- File timestamps are coarse (a jiffy on ext4 and tmpfs, 2 s on FAT), so
  a rewrite within one tick keeps the stamp. A file modified less than
  `RACY_S` before the load therefore gets no entry; after that, any
  rewrite changes its mtime.
- Nothing here is an error: an OSError, or a home directory that cannot be
  found, falls back to the parse, and an unreadable, truncated, torn or
  otherwise damaged entry is a miss and is replaced.
- An entry is written under a temporary name and renamed into place. After
  a write, entries whose file no longer matches their stamp are deleted,
  then the least recently used (a hit marks an entry used) beyond
  `MAX_BYTES`.

An entry is four `.npy` records, one after the other: a 0-d structured
record of the stamp's integers and the skipped count (`_HEAD`), the
realpath's bytes, the tokens as UTF-8 joined by newlines (a token never
holds one), both as uint8, then the matrix. Each record's own header
carries its dtype and shape, so a cut anywhere fails numpy's read.
"""

from __future__ import annotations

import contextlib
import os
import stat
import time
from pathlib import Path

import numpy as np
from numpy.lib.format import read_array  # unlike np.load, never a pickle or a zip

# part of every stamp: bump it when the entry layout or the parse changes
FORMAT = 3

# no entry for a file modified this recently: 2 s is FAT's timestamp tick
RACY_S = 2.0

# the cache's size bound; one d=300, V=200k entry is 480 MB
MAX_BYTES = 4 * 2**30

# a temporary file untouched this long was left by a writer that died
_STALE_TEMP_S = 3600.0

# an entry's first record: st_dev and st_ino are unsigned, and a file
# dated before 1970 has negative times
_HEAD = np.dtype({"names": ["format", "dev", "ino", "limit", "size", "mtime_ns", "ctime_ns",
                            "skipped"], "formats": ["<i8", "<u8", "<u8"] + ["<i8"] * 5})


def _root() -> Path:
    for base in (os.environ.get("XDG_CACHE_HOME", ""), os.path.expanduser("~/.cache")):
        if os.path.isabs(base):
            return Path(base) / "noisy-align"
    raise RuntimeError("cannot determine the home directory")


def _stamp(path, st: os.stat_result, limit: int | None) -> tuple:
    """What must be unchanged for a hit; no limit is recorded as 0."""
    return (FORMAT, st.st_dev, st.st_ino, limit or 0, st.st_size, st.st_mtime_ns,
            st.st_ctime_ns, os.fsencode(os.path.realpath(path)))


def _read_head(fh) -> tuple[tuple, int]:
    """(stamp, skipped) from an entry's first two records; ValueError if
    the first is not a `_HEAD` record."""
    head = read_array(fh)
    if head.dtype != _HEAD:
        raise ValueError("malformed cache entry head")
    *stamp, skipped = head.item()
    return (*stamp, read_array(fh).tobytes()), skipped


def _read(entry: Path, stamp: tuple):
    """The parse result in `entry`, or None when its stamp is not `stamp`
    or its matrix does not fit the tokens it records.

    Raises OSError or ValueError for a missing or damaged entry, and
    MemoryError for a record that declares a shape too large to hold.
    """
    with open(entry, "rb") as fh:
        recorded, skipped = _read_head(fh)
        if recorded != stamp:
            return None
        tokens = read_array(fh).tobytes().decode("utf-8").split("\n")
        vectors = read_array(fh)
    if vectors.dtype != np.float64 or vectors.ndim != 2 or vectors.shape[1] != len(tokens):
        return None
    return tokens, vectors, skipped


def _write(entry: Path, stamp: tuple, result) -> None:
    """Store a parse result as `entry`, unless it alone exceeds MAX_BYTES.

    Raises OverflowError for a stamp field beyond 64 bits."""
    tokens, vectors, skipped = result
    if vectors.nbytes > MAX_BYTES:
        return
    records = (np.array((*stamp[:-1], skipped), dtype=_HEAD), np.frombuffer(stamp[-1], np.uint8),
               np.frombuffer("\n".join(tokens).encode("utf-8"), np.uint8), vectors)
    entry.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    temp = entry.with_name(f".{entry.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as fh:
            for record in records:
                np.save(fh, record, allow_pickle=False)
        os.replace(temp, entry)
    finally:
        temp.unlink(missing_ok=True)


def _is_orphan(path: str, st: os.stat_result, now: float) -> bool:
    """Whether a file in the cache root is neither a current entry nor a
    temporary file still being written."""
    if path.endswith(".tmp"):
        return now - st.st_mtime > _STALE_TEMP_S
    try:
        with open(path, "rb") as fh:
            recorded = _read_head(fh)[0]
        real, limit = recorded[-1], recorded[3]
        return recorded != _stamp(real, os.stat(real), limit)
    except (OSError, ValueError, MemoryError):
        return True


def _prune(root: Path) -> None:
    """Delete orphans, then the least recently used entries beyond MAX_BYTES."""
    now = time.time()
    kept = []
    with os.scandir(root) as it:
        for dirent in it:
            with contextlib.suppress(OSError):
                st = dirent.stat()
                if _is_orphan(dirent.path, st, now):
                    os.unlink(dirent.path)
                else:
                    kept.append((st.st_mtime_ns, st.st_size, dirent.path))
    total = 0
    for _, size, path in sorted(kept, reverse=True):
        total += size
        if total > MAX_BYTES:
            with contextlib.suppress(OSError):
                os.unlink(path)


def parsed(path, limit: int | None, parse):
    """`parse(path, limit)`, read back from the cache when `path` is a
    regular file whose entry's stamp matches (module docstring)."""
    now = time.time_ns()
    entry = stamp = result = None
    with contextlib.suppress(OSError, RuntimeError, ValueError, MemoryError):
        st = os.stat(path)
        if stat.S_ISREG(st.st_mode):
            stamp = _stamp(path, st, limit)
            entry = _root() / f"{st.st_dev}-{st.st_ino}-{limit or 0}"
            result = _read(entry, stamp)
    if result is not None:
        with contextlib.suppress(OSError):
            os.utime(entry)
        return result
    result = parse(path, limit)
    if entry is not None and now - st.st_mtime_ns >= RACY_S * 1e9:
        # a file dated before 1677 overflows the stamp record and keeps no entry
        with contextlib.suppress(OSError, OverflowError):
            # a file changed while it was parsed keeps no entry
            if _stamp(path, os.stat(path), limit) == stamp:
                _write(entry, stamp, result)
                _prune(entry.parent)
    return result
