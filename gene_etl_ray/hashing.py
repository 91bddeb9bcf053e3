"""Deterministic vectorized hashing: the one key hash and the layout keys.

Every hash the engine computes comes from ``pandas.util.hash_array`` — a
C-implemented SipHash with a fixed default key, stable across
processes/platforms — never Python's ``hash()`` (randomized per process),
and this module is its only caller.

The key hash, :func:`hash_keys`, is what every bucket, shard and Bloom
probe hashes its keys with, so one key value lands in one bucket whatever
the dtype of the block that carries it. Its rule depends on the value
alone:

- null / NaN → one fixed sentinel;
- integers, and floats that are losslessly integral with |v| < 2^63 →
  the SipHash of the int64 value (so ``5``, ``5.0`` and an object-boxed
  ``5`` agree); an integer beyond ±2^53 hashes as its float64 rounding,
  the value a float64 key compares equal to (as in DuckDB and Arrow's
  cast), so ``2**53 + 1`` and ``2.0**53`` agree;
- other floats → the SipHash of the float64 value;
- strings and anything else → the object hash, :func:`hash_objects`,
  which for strings is :func:`hash_urls` bit for bit — the lake layout
  and the Bloom sidecars on disk depend on it;
- several key columns fold left to right as ``h * 0x9E3779B97F4A7C15 + hk``.

Value fingerprints (content hashes, n-gram ids, sketches) call
:func:`hash_objects` directly: they hash a value as given, without the
key rule.

Partitioning key ``pkey = H(url) % P`` must be deterministic across
processes and runs (lake layout stability) and vectorized (hot path).
Salting (north_rule "explicit salting for hot-domain skew"): a hot
partition's merge group is split into ``S`` sub-groups keyed by an
*independent* slice of the same url hash, so sub-group membership is a pure
function of the url — a given url always lands in the same sub-group and
last-writer-wins groups remain per-url (SURVEY §4.2).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_NULL_HASH = np.uint64(0xD1B54A32D192ED03)
_FOLD = np.uint64(0x9E3779B97F4A7C15)


def hash_objects(values, hash_key: str = "0123456789123456") -> np.ndarray:
    """uint64 SipHash of each value taken as a Python object (pandas'
    default key unless ``hash_key``, 16 characters, is given). Strings
    hash their utf-8 bytes; an array that mixes strings with other types
    hashes every value's ``str``."""
    return pd.util.hash_array(
        np.asarray(values, dtype=object), hash_key=hash_key, categorize=False)


def hash_urls(urls) -> np.ndarray:
    """uint64 deterministic hash of a string array (numpy / list / Arrow)."""
    return hash_objects(urls)


def _float_hash(v: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        integral = np.isfinite(v) & (np.floor(v) == v) & (np.abs(v) < 2.0 ** 63)
    frac = ~integral & ~np.isnan(v)
    h = np.full(len(v), _NULL_HASH, dtype=np.uint64)
    h[integral] = pd.util.hash_array(v[integral].astype(np.int64))
    h[frac] = pd.util.hash_array(v[frac])
    return h


def _int_hash(v: np.ndarray) -> np.ndarray:
    h = pd.util.hash_array(v.astype(np.int64, copy=False))
    big = (v > 2 ** 53) | (v < -(2 ** 53))
    if big.any():
        h[big] = _float_hash(v[big].astype(np.float64))
    return h


def _mixed_hash(v: np.ndarray) -> np.ndarray:
    # Arrow cannot type an object array that mixes Python types (5 beside
    # "a"): hash the values of each type on their own
    kinds = np.array([type(x).__name__ for x in v], dtype=object)
    if (kinds == kinds[0]).all():
        return hash_objects(v)
    h = np.empty(len(v), dtype=np.uint64)
    for k in set(kinds):
        m = kinds == k
        h[m] = _key_hash(v[m])
    return h


def _key_hash(col) -> np.ndarray:
    if not isinstance(col, (pa.Array, pa.ChunkedArray)):
        v = np.asarray(col, dtype=None if isinstance(col, (np.ndarray, pd.Series)) else object)
        if v.dtype.kind in "iu":
            return _int_hash(v)
        if v.dtype.kind == "f":
            return _float_hash(v.astype(np.float64, copy=False))
        if pd.api.types.infer_dtype(v, skipna=False) == "string":
            # all strings, no nulls (url probes): skip Arrow's type inference
            return hash_objects(v)
        try:
            col = pa.array(v, from_pandas=True)
        except (pa.ArrowException, OverflowError):
            return _mixed_hash(v)
    t = col.type
    if pa.types.is_floating(t):
        return _float_hash(col.to_numpy(zero_copy_only=False).astype(np.float64, copy=False))
    if pa.types.is_integer(t):
        h = _int_hash(col.fill_null(0).to_numpy(zero_copy_only=False))
    elif pa.types.is_string(t) or pa.types.is_large_string(t):
        h = hash_objects(col.to_numpy(zero_copy_only=False))
    else:
        h = hash_objects(col.to_pylist())
    if col.null_count:
        h[col.is_null().to_numpy(zero_copy_only=False)] = _NULL_HASH
    return h


def hash_keys(cols) -> np.ndarray:
    """uint64 key hash of one row per position across ``cols`` (Arrow,
    numpy, pandas or list columns of equal length), by the module's one
    rule: a value's hash never depends on its column's dtype."""
    h = None
    for col in cols:
        hk = _key_hash(col)
        h = hk if h is None else h * _FOLD + hk
    return h


def partition_of(h: np.ndarray, num_partitions: int) -> np.ndarray:
    """int32 partition id per url hash ``h`` (:func:`hash_urls`): ``h % P``."""
    return (h % np.uint64(num_partitions)).astype(np.int32)


def partition_keys(urls, num_partitions: int) -> np.ndarray:
    """int32 partition id per url: ``H(url) % P``."""
    return partition_of(hash_urls(urls), num_partitions)


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
    pk = partition_of(h, num_partitions)
    salts = (h >> np.uint64(32)) % np.uint64(salt_factor)
    return pk, pk.astype(np.int64) * salt_factor + salts.astype(np.int64)
