"""Transcript Parquet source.

The File_Input / GZIP_Input analog (reference src/input-plugins/file.c:
56-222, gzip.c): the reference hands each line straight to its
processor threads, and ``read_transcripts`` likewise builds no Ray Data
pipeline. It lists the files and returns a ``TranscriptFiles``; the
engine's exchange reads each file in the same raw task that classifies
and splits it (``pipelines.engine.run_engine``), one task per file.
``TranscriptFiles.dataset()`` is the Ray Data reader over the same files
for callers that want a Dataset. The ignore-list / validity pre-filter
lives in the classify stage (cheap short-circuit before rule
evaluation, as file.c:140-150 applies Ignore before batching).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

from ..synth import SCHEMA

COLUMNS = [f.name for f in SCHEMA]


def _skipped(name: str) -> bool:
    return name.startswith((".", "_"))


def is_transcript_file(name: str) -> bool:
    """Whether a file name is a transcript input: ``.parquet`` in any
    case, and not starting with ``.`` or ``_`` (``_DONE`` markers,
    ``.tmp`` and other in-progress writes)."""
    return not _skipped(name) and name.lower().endswith(".parquet")


def _list_parquet(path: str) -> list[str]:
    """The transcript files under the directory ``path``, as
    ``ray.data.read_parquet`` discovers them: recursive, every directory
    whose name starts with ``.`` or ``_`` skipped, files by
    ``is_transcript_file``, sorted."""
    out = []
    for d, dirs, names in os.walk(path):
        dirs[:] = [n for n in dirs if not _skipped(n)]
        out += [os.path.join(d, n) for n in names if is_transcript_file(n)]
    return sorted(out)


@dataclass(frozen=True)
class TranscriptFiles:
    """A list of transcript Parquet files, read as ``columns``. Rows come
    in file order, then row order."""

    paths: tuple[str, ...]
    columns: tuple[str, ...] = tuple(COLUMNS)

    def per_file(self) -> list["TranscriptFiles"]:
        """One single-file source per file, in file order: the engine's
        map-task inputs."""
        return [TranscriptFiles((p,), self.columns) for p in self.paths]

    def batches(self, batch_size: int):
        """The rows as tables of at most ``batch_size`` rows."""
        for p in self.paths:
            for b in pq.ParquetFile(p).iter_batches(
                    batch_size=batch_size, columns=list(self.columns)):
                yield pa.Table.from_batches([b])

    def dataset(self):
        """The same rows as a Ray Data Dataset."""
        import ray.data as rd

        return rd.read_parquet(list(self.paths), columns=list(self.columns))


def read_transcripts(path, *, columns=None) -> TranscriptFiles:
    """The transcript files at ``path``: a directory (``_list_parquet``),
    a file, or a list of either, in the given order."""
    out: list[str] = []
    for p in [path] if isinstance(path, str) else path:
        out += _list_parquet(p) if os.path.isdir(p) else [p]
    return TranscriptFiles(tuple(out), tuple(columns or COLUMNS))
