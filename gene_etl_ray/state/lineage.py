"""Lineage records — one JSON line per (epoch, partition) commit.

Reference analog: ``meta.source_snapshot`` / ``meta.etl_process_log`` rows
carrying ``source_snapshot_id`` + ``config_hash`` per run
(``models.py:166-217``, ``io.py:219-260``). Here each committed partition
logs its input files, event count, row counts and the config hash, so the
full provenance of any lake file is reconstructible.
"""

from __future__ import annotations

import json
import os


def append_lineage(lake_dir: str, record: dict) -> None:
    d = os.path.join(lake_dir, "_lineage")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"epoch={record['epoch']:05d}.jsonl")
    with open(path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
        f.flush()
        os.fsync(f.fileno())


def read_lineage(lake_dir: str, epoch: int | None = None) -> list[dict]:
    d = os.path.join(lake_dir, "_lineage")
    if not os.path.isdir(d):
        return []
    if epoch is None:
        names = sorted(os.listdir(d))
    else:
        # one epoch's file by name: a listing grows with the lake's age
        n = f"epoch={epoch:05d}.jsonl"
        names = [n] if os.path.exists(os.path.join(d, n)) else []
    out = []
    for n in names:
        with open(os.path.join(d, n)) as f:
            lines = [ln for ln in f if ln.strip()]
        for i, ln in enumerate(lines):
            try:
                out.append(json.loads(ln))
            except json.JSONDecodeError:
                # appends are not atomic: a crash mid-append leaves a
                # torn TRAILING line, and the resume path must read past
                # it (the interrupted commit re-runs and re-appends). A
                # malformed NON-trailing line is real corruption — raise.
                if i == len(lines) - 1:
                    continue
                raise
    return out
