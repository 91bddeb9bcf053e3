"""Deterministic vectorized hashing for partitioning and salting.

Partitioning key ``pkey = H(url) % P`` must be deterministic across
processes and runs (lake layout stability) and vectorized (hot path).
We use ``pandas.util.hash_array`` — a C-implemented SipHash with a fixed
default key, stable across processes/platforms — never Python's ``hash()``
(randomized per process).

Salting (north_rule "explicit salting for hot-domain skew"): a hot
partition's merge group is split into ``S`` sub-groups keyed by an
*independent* slice of the same url hash, so sub-group membership is a pure
function of the url — a given url always lands in the same sub-group and
last-writer-wins groups remain per-url (SURVEY §4.2).
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def hash_urls(urls) -> np.ndarray:
    """uint64 deterministic hash of a string array (numpy / list / Arrow)."""
    arr = np.asarray(urls, dtype=object)
    return pd.util.hash_array(arr, categorize=False)


def partition_keys(urls, num_partitions: int) -> np.ndarray:
    """int32 partition id per url: ``H(url) % P``."""
    return (hash_urls(urls) % np.uint64(num_partitions)).astype(np.int32)


def group_keys(
    urls, num_partitions: int, salt_factor: int, hot_partitions=None
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(pkey, gkey)`` — physical partition id and salted group key.

    ``gkey = pkey * S + salt`` for every url. Which partitions merge as
    ``S`` parallel sub-groups (hot) and which as one (cold) is decided
    after the exchange's map side, from the commit group's counts, so
    the keys never depend on it; ``hot_partitions`` is accepted and
    ignored. Output files always land under ``part=<pkey>``. The url
    hash is computed ONCE and both keys derived from it; the salt takes
    the hash's high 32 bits, decorrelated from ``H(url) % P`` (which
    consumes the low bits).
    """
    h = hash_urls(urls)
    pk = (h % np.uint64(num_partitions)).astype(np.int32)
    salts = (h >> np.uint64(32)) % np.uint64(salt_factor)
    return pk, pk.astype(np.int64) * salt_factor + salts.astype(np.int64)
