"""Engine configuration + canonical config hashing.

Capability parity with the reference's config-driven pipeline
(reference ``config.py:147-224``: validated config object drives the whole
run; ``config.py:194-203``: sha256 over canonicalized config stamped into
every output row for lineage). Implemented as a plain dataclass — no
SQLAlchemy/Pydantic dependency needed; validation is explicit in
``__post_init__``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import InitVar, asdict, dataclass, field


@dataclass
class EngineConfig:
    """All knobs for one CDC ingest run.

    Attributes
    ----------
    lake_dir: root of the partitioned Parquet lake
        (``part=<k>/`` data dirs + ``_manifests/`` + ``_checkpoints/`` +
        ``_lineage/``).
    num_partitions: fixed hash-partition count ``P`` of the lake. Recorded in
        lake metadata; must not change across runs of one lake.
    salt_factor: sub-buckets ``S`` for hot partitions (skew handling).
        Salting derives from the url hash, never random, so a given url
        always lands in the same sub-bucket and LWW groups stay per-url.
    hot_partition_threshold: events-per-partition-per-commit above which a
        partition's merge is split into ``salt_factor`` sub-groups. The
        merge tasks decide it from the counts the exchange's read tasks
        compute, so salting needs no pass of its own.
    epochs_per_commit: how many input epochs are folded into one commit
        (the commit cadence; reference analog ``checkpoint_interval``,
        ``config.py:92``).
    keep_html: if False (default) the ``html`` payload column is dropped
        from the lake table after extraction (the lake stores ``text``).
    prevalidate, late_extract: accepted and ignored, so configs that set
        them still load; init-only arguments, not fields, so not part of
        ``hash()``. Every commit group computes its pre-validation totals
        and per-partition counts in the merge exchange's read tasks, and
        html→text extraction runs on the LWW winners only, inside the
        merge.
    """

    lake_dir: str
    num_partitions: int = 16
    salt_factor: int = 4
    hot_partition_threshold: int = 200_000
    epochs_per_commit: int = 1
    keep_html: bool = False
    # sink strategy: "cow" (copy-on-write — each commit rewrites touched
    # partitions; reads are plain scans) or "mor" (merge-on-read — each
    # commit APPENDS a per-partition LWW-deduped delta file; reads resolve
    # LWW across a partition's files; `compact` folds them back to one).
    # MOR avoids rewriting a 100 TB partition for a 1 GB delta — write
    # amplification ~delta-size instead of ~partition-size.
    merge_mode: str = "cow"
    # bounded object-store backpressure: cap the bytes the streaming
    # executor may hold in flight (None = Ray default). At 10^10-event
    # scale this is what keeps a fast producer stage from flooding the
    # store ahead of the merge shuffle.
    object_store_limit_bytes: int | None = None
    # snapshot retention (time travel): archive each partition manifest at
    # commit (`_manifests/history/`) and never GC superseded files, so
    # `read_lake(..., asof_epoch=e)` can reconstruct the lake exactly as
    # of any committed epoch. Off by default: retention trades storage
    # (every superseded partition file is kept) for history.
    retain_history: bool = False
    # GC grace period (seconds): with the default 0, files superseded by
    # a commit / compaction / repartition are deleted immediately (safe
    # single-reader-host semantics). On shared object stores a reader
    # that listed files from a manifest snapshot may still be streaming
    # them when a writer supersedes — set a grace > the longest expected
    # read and superseded files become DEFERRED orphans instead, removed
    # only by an explicit `vacuum` once older than the grace (the
    # Iceberg/Delta expire+vacuum contract).
    gc_grace_seconds: int = 0
    # dead-letter sink: rows failing the admission rule (null url after
    # canonicalization, invalid op, null warc_ts/seq) are WRITTEN to
    # `<lake>/_deadletter/epoch=<e>.parquet` with a `reason` column
    # instead of being silently dropped — replayable after the producer
    # fixes the defect. One deterministic file per WAL segment
    # (idempotent overwrite on re-run). Off by default: the counters in
    # pre-validation already expose the totals.
    dead_letter: bool = False
    # write-audit-publish: each commit group's merged output is STAGED
    # (data files written, manifests held back in `_manifests/staged/`),
    # audited distributed (per-file url uniqueness + null keys + stats
    # reconciliation + optional delete-fraction guard), and only
    # PUBLISHED — made reader-visible via the normal two-phase commit —
    # when every check passes. A failed audit leaves the staged state on
    # disk for inspection and raises AuditFailedError; nothing becomes
    # visible and no watermark advances (the next run cleans and redoes
    # the group). The Iceberg-style WAP gate for CDC pipelines.
    write_audit_publish: bool = False
    # audit guard: refuse to publish a commit group whose staged output
    # would tombstone more than this fraction of its rows (a classic
    # runaway-delete circuit breaker). None = no guard.
    audit_max_delete_frac: float | None = None
    # event-time watermark + allowed lateness (µs of warc_ts time). When
    # set, events whose warc_ts is older than (committed event-time
    # watermark − allowed_lateness_us) at admission are REJECTED (dead-
    # lettered with reason "late" when the sink is on) — the standard
    # streaming lateness contract. The watermark is the max warc_ts ever
    # committed, recorded per commit group in the global epoch record, so
    # admission decisions are deterministic across crash/resume (a group
    # always sees the watermark of fully-committed groups only, never its
    # own partially-committed partitions). The contract is what makes
    # TOMBSTONE GC safe: a tombstone older than the cutoff can be
    # physically dropped (cow merge / mor compaction), because any event
    # that could lose LWW to it is inadmissible — at 10^10 events the
    # delete markers no longer accumulate forever. None (default) keeps
    # the retain-forever semantics.
    allowed_lateness_us: int | None = None
    extra: dict = field(default_factory=dict)
    late_extract: InitVar[bool] = False
    prevalidate: InitVar[bool] = True

    def __post_init__(self, late_extract: bool, prevalidate: bool) -> None:
        if self.merge_mode not in ("cow", "mor"):
            raise ValueError("merge_mode must be 'cow' or 'mor'")
        if self.audit_max_delete_frac is not None and not (
            0.0 <= self.audit_max_delete_frac <= 1.0
        ):
            raise ValueError("audit_max_delete_frac must be in [0, 1]")
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if self.salt_factor < 1:
            raise ValueError("salt_factor must be >= 1")
        if self.epochs_per_commit < 1:
            raise ValueError("epochs_per_commit must be >= 1")
        if self.allowed_lateness_us is not None and self.allowed_lateness_us < 0:
            raise ValueError("allowed_lateness_us must be >= 0")

    def hash(self) -> str:
        return config_hash(asdict(self))


def config_hash(cfg: dict) -> str:
    """sha256 over the sorted-key JSON form of the config.

    Parity with reference ``config.py:194-203``. Stamped into lineage
    records per epoch (reference stamps it on every result row,
    ``models.py:140-142``).
    """
    canon = json.dumps(cfg, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
