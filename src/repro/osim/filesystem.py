"""Per-machine simulated filesystem.

Paths are Windows-flavoured but normalized internally: backslashes become
forward slashes and drive letters are kept as path components
(``C:\\grid\\job1`` → ``c:/grid/job1``).  Files hold a
:class:`FileContent`, which is either real bytes (job inputs/outputs the
tests inspect) or *synthetic* content of a given size (bulk benchmark
payloads that would be wasteful to materialize).
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, List, Optional


class FsError(Exception):
    """Missing paths, collisions, directory/file confusion."""


class FileContent:
    """Real or synthetic file content with a stable digest.

    The digest of real data is a pass over every byte, so it is
    computed when :attr:`digest` or ``==`` first asks, at most once —
    staging a file (``write_file`` / ``read_file`` / ``to_bytes``) asks
    for none.  Synthetic content is digested from its size label when
    built (``content_to_wire`` sends that digest with every transfer).
    """

    __slots__ = ("_data", "size", "_digest")

    _MATERIALIZE_LIMIT = 4 * 1024 * 1024

    def __init__(self, data: Optional[bytes] = None, synthetic_size: Optional[int] = None):
        if (data is None) == (synthetic_size is None):
            raise ValueError("provide exactly one of data / synthetic_size")
        if data is not None:
            self._data = data
            self.size = len(data)
            self._digest: Optional[str] = None  # until asked for
        else:
            if synthetic_size < 0:
                raise ValueError("negative synthetic size")
            self._data = None
            self.size = synthetic_size
            self._digest = hashlib.sha256(f"synthetic:{synthetic_size}".encode()).hexdigest()

    @classmethod
    def from_bytes(cls, data: bytes) -> "FileContent":
        return cls(data=data)

    @classmethod
    def synthetic(cls, size: int) -> "FileContent":
        return cls(synthetic_size=size)

    @property
    def is_synthetic(self) -> bool:
        return self._data is None

    @property
    def digest(self) -> str:
        if self._digest is None:
            self._digest = hashlib.sha256(self._data).hexdigest()
        return self._digest

    def to_bytes(self) -> bytes:
        if self._data is not None:
            return self._data
        if self.size > self._MATERIALIZE_LIMIT:
            raise FsError(
                f"refusing to materialize {self.size} synthetic bytes "
                f"(limit {self._MATERIALIZE_LIMIT})"
            )
        pattern = b"0123456789abcdef"
        reps = self.size // len(pattern) + 1
        return (pattern * reps)[: self.size]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FileContent):
            return NotImplemented
        if self.size != other.size:
            return False
        if self._data is not None and self._data is other._data:
            return True
        return self.digest == other.digest

    def __repr__(self) -> str:
        kind = "synthetic" if self.is_synthetic else "bytes"
        return f"<FileContent {kind} size={self.size}>"


def normalize_path(path: str) -> str:
    if not path:
        raise FsError("empty path")
    text = path.replace("\\", "/").lower()
    parts = [p for p in text.split("/") if p not in ("", ".")]
    out: List[str] = []
    for part in parts:
        if part == "..":
            if not out:
                raise FsError(f"path escapes root: {path!r}")
            out.pop()
        else:
            out.append(part)
    return "/".join(out)


class SimFileSystem:
    """A tree of directories and files."""

    def __init__(self, machine_name: str = "") -> None:
        self.machine_name = machine_name
        self._dirs: set = {""}  # normalized dir paths; "" is the root
        self._files: Dict[str, FileContent] = {}
        self._unique = itertools.count(1)

    # -- directories -------------------------------------------------------------

    def mkdir(self, path: str, parents: bool = True) -> str:
        norm = normalize_path(path)
        if norm in self._files:
            raise FsError(f"file exists at {path!r}")
        if norm in self._dirs:
            return norm
        parent = norm.rsplit("/", 1)[0] if "/" in norm else ""
        if parent not in self._dirs:
            if not parents:
                raise FsError(f"missing parent directory for {path!r}")
            self.mkdir(parent, parents=True)
        self._dirs.add(norm)
        return norm

    def create_unique_dir(self, base: str, prefix: str = "wsr") -> str:
        """A fresh directory under *base* — the FSS's create-resource op."""
        base_norm = self.mkdir(base)
        while True:
            candidate = f"{base_norm}/{prefix}-{next(self._unique):04d}"
            if candidate not in self._dirs and candidate not in self._files:
                self._dirs.add(candidate)
                return candidate

    def is_dir(self, path: str) -> bool:
        return normalize_path(path) in self._dirs

    def is_file(self, path: str) -> bool:
        return normalize_path(path) in self._files

    def listdir(self, path: str) -> List[str]:
        """Immediate children (names, files and dirs), sorted."""
        norm = normalize_path(path)
        if norm not in self._dirs:
            raise FsError(f"no such directory {path!r}")
        prefix = norm + "/" if norm else ""
        names = set()
        for entry in itertools.chain(self._dirs, self._files):
            if entry != norm and entry.startswith(prefix):
                names.add(entry[len(prefix) :].split("/", 1)[0])
        return sorted(names)

    # -- files --------------------------------------------------------------------

    def write_file(self, path: str, content) -> str:
        if isinstance(content, bytes):
            content = FileContent.from_bytes(content)
        if not isinstance(content, FileContent):
            raise TypeError(f"content must be bytes or FileContent, got {content!r}")
        norm = normalize_path(path)
        if norm in self._dirs:
            raise FsError(f"directory exists at {path!r}")
        parent = norm.rsplit("/", 1)[0] if "/" in norm else ""
        if parent not in self._dirs:
            raise FsError(f"missing parent directory for {path!r}")
        self._files[norm] = content
        return norm

    def read_file(self, path: str) -> FileContent:
        norm = normalize_path(path)
        try:
            return self._files[norm]
        except KeyError:
            raise FsError(f"no such file {path!r}") from None

    def delete_file(self, path: str) -> None:
        norm = normalize_path(path)
        if norm not in self._files:
            raise FsError(f"no such file {path!r}")
        del self._files[norm]

    def move_file(self, src: str, dst: str) -> None:
        """Rename within this filesystem — the paper's §4.6 optimization
        ("if the file happens to already be on the FSS's machine, the FSS
        simply moves the file")."""
        content = self.read_file(src)
        self.write_file(dst, content)
        self.delete_file(src)

    def remove_tree(self, path: str) -> int:
        """Delete a directory and everything under it; returns entry count."""
        norm = normalize_path(path)
        if norm not in self._dirs:
            raise FsError(f"no such directory {path!r}")
        if norm == "":
            raise FsError("refusing to remove the filesystem root")
        prefix = norm + "/"
        doomed_files = [f for f in self._files if f.startswith(prefix)]
        doomed_dirs = [d for d in self._dirs if d == norm or d.startswith(prefix)]
        for f in doomed_files:
            del self._files[f]
        for d in doomed_dirs:
            self._dirs.discard(d)
        return len(doomed_files) + len(doomed_dirs)

    def total_bytes(self) -> int:
        return sum(c.size for c in self._files.values())
