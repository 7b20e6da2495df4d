"""Atomic file writing, UTF-8 reading and small hashing helpers."""

from __future__ import annotations

import hashlib
import os
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` via a temp file + rename, LF line endings, UTF-8.

    The rename is atomic on POSIX, so readers never observe a half-written
    file and an interrupted run leaves the previous version intact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_text(path: str | Path, error: type[ValueError] = ValueError) -> str:
    """The UTF-8 text of `path`, newlines translated as `open` does; a byte
    that is not UTF-8 raises `error` naming the file and its line."""
    blob = Path(path).read_bytes()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = blob[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head.count(b"\n") + 1
        raise error(f"{path}:{line}: not UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def sha256_of_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
