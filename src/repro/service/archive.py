"""The persistent run archive behind the scenario service.

Layout (under ``.repro_runs/`` by default, or ``$REPRO_RUNS_DIR``)::

    .repro_runs/
      index.jsonl        # one JSON line per status transition, append-only
      <run_id>.json      # the canonical result document, exact bytes

The index is *append-only*: every status transition (queued, running,
done, failed) appends one line, and readers collapse lines by ``run_id``
(later lines win field-by-field).  Appends are atomic at the line level on
POSIX, so a crash mid-run leaves at worst a truncated final line, which
readers skip and the next writer's first append terminates — never a
corrupted archive.  Environment-specific metadata
(submission timestamps, the error text of a failed run) lives only here;
the per-run ``<run_id>.json`` holds exactly the canonical document bytes
from :func:`repro.experiments.results.dump_document`, which is what makes
``repro scenario --json``, the archive and ``GET /runs/{id}/document``
byte-identical for the same spec and seed.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Optional

#: Environment variable overriding where the run archive lives.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: Default archive directory, relative to the working directory.
DEFAULT_RUNS_DIR = ".repro_runs"

#: Name of the JSON-lines status index inside the archive directory.
INDEX_NAME = "index.jsonl"


def runs_dir(root: Optional[str] = None) -> Path:
    """Resolve the archive directory: explicit arg, env var, or default."""
    return Path(root or os.environ.get(RUNS_DIR_ENV) or DEFAULT_RUNS_DIR)


class RunArchive:
    """Append-only JSON-lines index plus one document file per run.

    Safe for concurrent use from the service's worker threads (a lock
    serializes appends); concurrent *processes* are safe for readers and
    for writers of distinct runs, which covers the service's single-writer
    deployment model.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = runs_dir(root)
        self._tail_checked = False

    # ------------------------------------------------------------------ #
    # writing
    _append_lock = threading.Lock()

    @property
    def index_path(self) -> Path:
        return self.root / INDEX_NAME

    def document_path(self, run_id: str) -> Path:
        return self.root / f"{run_id}.json"

    def record(self, entry: dict) -> None:
        """Append one status line for ``entry['run_id']`` to the index."""
        if "run_id" not in entry:
            raise ValueError("archive entries need a 'run_id'")
        line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        self.root.mkdir(parents=True, exist_ok=True)
        with self._append_lock:
            if not self._tail_checked:
                # A crash may have left a partial final line; start ours
                # on a fresh line so readers skip only the torn one.
                line = self._torn_tail_newline() + line
                self._tail_checked = True
            with open(self.index_path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")

    def _torn_tail_newline(self) -> str:
        """``"\\n"`` if the index is non-empty and lacks a final newline."""
        try:
            with open(self.index_path, "rb") as handle:
                if handle.seek(0, os.SEEK_END) == 0:
                    return ""
                handle.seek(-1, os.SEEK_END)
                return "" if handle.read(1) == b"\n" else "\n"
        except FileNotFoundError:
            return ""

    def write_document(self, run_id: str, text: str) -> Path:
        """Store a run's canonical document, byte for byte."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.document_path(run_id)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------ #
    # reading
    def read_document(self, run_id: str) -> Optional[str]:
        """The stored canonical document text, or None if absent."""
        path = self.document_path(run_id)
        try:
            return path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None

    def entries(self) -> list[dict]:
        """Collapsed index entries, in first-seen (submission) order.

        Later lines for the same ``run_id`` update the collapsed entry
        field-by-field; malformed (e.g. crash-truncated) lines are skipped.
        """
        collapsed: dict[str, dict] = {}
        try:
            lines = self.index_path.read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            return []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            run_id = entry.get("run_id")
            if not isinstance(run_id, str):
                continue
            collapsed.setdefault(run_id, {}).update(entry)
        return list(collapsed.values())

    def get(self, run_id: str) -> Optional[dict]:
        """The collapsed entry for one run, or None."""
        for entry in self.entries():
            if entry.get("run_id") == run_id:
                return entry
        return None

    def query(self, preset: Optional[str] = None,
              status: Optional[str] = None,
              label: Optional[str] = None) -> list[dict]:
        """Collapsed entries filtered by preset / status / label."""
        matches = []
        for entry in self.entries():
            if preset is not None and entry.get("preset") != preset:
                continue
            if status is not None and entry.get("status") != status:
                continue
            if label is not None and entry.get("label") != label:
                continue
            matches.append(entry)
        return matches
