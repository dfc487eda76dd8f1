"""Index directory state: manifest, stats, tombstones.

Index layout (the on-disk replacement for the reference's in-RAM
``Index`` struct, ``/root/reference/src/index.rs:19-33``):

    index_dir/
      manifest.json            build config + per-group commit records
                               (input files, counts, timings, the
                               group's segment file) — the unit of
                               resumability ("per-partition lineage")
      stats.json               N + per-field sum/avg (src/index.rs:112-113
                               semantics; updated immediately on remove,
                               src/index.rs:175-185) + tomb_applied, the
                               count of tombstones those figures include
      tombstones.json          latent-deleted doc ids (src/index.rs:30-32)
      segments/group=G.npz     one file per group: its term dictionary,
                               doc-sorted postings and docmeta
                               (``state/segments.py``); a vacuum writes
                               ``group=G.vN.npz``, a compaction
                               ``group=G.cN.npz``, a rebuild over the
                               group ``group=G.bN.npz`` (N counts the
                               group's segment writes, so no name is
                               written twice).  Readers take only the
                               files that group records name, so a
                               group's postings and docmeta change in
                               one manifest commit
      cache/csr-*/             the serving cache (``search.build_csr_cache``)

All JSON writes are atomic (tmp + rename) so a crashed build never
leaves a half-written manifest.
"""

from __future__ import annotations

import json
import os
import tempfile


def _atomic_write_json(path: str, obj) -> None:
    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(obj, f, indent=1)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path: str, default=None):
    if not os.path.exists(path):
        return default
    with open(path) as f:
        return json.load(f)


class Manifest:
    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        self.path = os.path.join(index_dir, "manifest.json")
        self.data = load_json(self.path, {"version": 1, "groups": {}, "config": {}})

    @property
    def groups(self) -> dict:
        return self.data["groups"]

    def committed_group_ids(self) -> set:
        return set(self.data["groups"].keys())

    def commit_group(self, group_id: str, record: dict) -> None:
        self.data["groups"][group_id] = record
        _atomic_write_json(self.path, self.data)

    def commit_groups(self, records: dict) -> None:
        """Atomically commit SEVERAL group records in one manifest write
        (compaction must swap all groups' segments at once — a partial
        swap would double-count postings)."""
        self.data["groups"].update(records)
        _atomic_write_json(self.path, self.data)

    def set_config(self, cfg: dict) -> None:
        self.data["config"] = cfg
        _atomic_write_json(self.path, self.data)


class Stats:
    """Corpus stats with exact reference update semantics."""

    def __init__(self, index_dir: str):
        self.path = os.path.join(index_dir, "stats.json")
        self.data = load_json(self.path, {"num_docs": 0, "fields": []})

    @property
    def num_docs(self) -> int:
        return self.data["num_docs"]

    def field_sum(self, f: int) -> int:
        return self.data["fields"][f]["sum"]

    def field_avg(self, f: int) -> float:
        return self.data["fields"][f]["avg"]

    def set_from_build(self, num_docs: int, sums: list[int],
                       avgs: list[float] | None = None, *,
                       tomb_applied: int, groups: int) -> None:
        """Set (not save) the figures.  ``avgs`` carries the reference's
        add-path stale-avg quirk (src/index.rs:112-113, computed by
        ``maintain.stats_for``); without it avg falls back to sum/N
        (exact whenever the max doc has >=1 value per field — every
        single-value string corpus).  ``tomb_applied``: how many
        leading tombstones the figures already exclude (see
        ``pending``); ``groups``: how many committed groups they count
        (see ``covers``)."""
        self.data = {
            "num_docs": int(num_docs),
            "fields": [{"sum": int(s),
                        "avg": (avgs[f] if avgs is not None
                                else (s / num_docs) if num_docs else 0.0)}
                       for f, s in enumerate(sums)],
            "tomb_applied": int(tomb_applied),
            "groups": int(groups),
        }

    def covers(self, groups: dict) -> bool:
        """Whether these figures count every committed group of the
        manifest's records ``groups`` (group ids are never deleted, so
        a count suffices)."""
        return self.data.get("groups") == len(groups)

    def uncover(self) -> None:
        """Save the figures as covering no group list: a build that
        rewrites committed groups makes them stale until it saves new
        ones."""
        self.data["groups"] = None
        self.save()

    def pending(self, ids: list) -> list:
        """The tombstones of the list ``ids`` that these figures do not
        include yet: ``tomb_applied`` counts the leading ones they do.
        A missing count means all are applied (indexes written before it
        existed); a count above the list's length means vacuum cleared
        the list after applying every removal."""
        return ids[min(self.data.get("tomb_applied", len(ids)), len(ids)):]

    def apply_remove(self, field_lengths: list[int], save: bool = True) -> None:
        """``src/index.rs:160-191``: sum -= len; avg = sum/(N-1); N -= 1.
        The ``fl > 0`` guard is the reference's quirk: fields where the
        removed doc was empty keep their (now stale) avg."""
        new_len = self.data["num_docs"] - 1
        for i, fl in enumerate(field_lengths):
            fd = self.data["fields"][i]
            if fl > 0:
                fd["sum"] -= int(fl)
                fd["avg"] = (fd["sum"] / new_len) if new_len > 0 else float("nan")
        self.data["num_docs"] = new_len
        if save:
            _atomic_write_json(self.path, self.data)

    def save(self) -> None:
        _atomic_write_json(self.path, self.data)


class Tombstones:
    def __init__(self, index_dir: str):
        self.path = os.path.join(index_dir, "tombstones.json")
        self.data = load_json(self.path, {"doc_ids": []})

    @property
    def doc_ids(self) -> list[int]:
        return self.data["doc_ids"]

    def add(self, doc_id: int) -> None:
        self.add_many([doc_id])

    def add_many(self, doc_ids) -> None:
        have = set(self.data["doc_ids"])
        new = [int(d) for d in doc_ids if int(d) not in have]
        if new:
            self.data["doc_ids"].extend(new)
            _atomic_write_json(self.path, self.data)

    def clear(self) -> None:
        self.data = {"doc_ids": []}
        _atomic_write_json(self.path, self.data)
