"""Stable content fingerprints for models and plan requests.

Plans must be keyed by *semantic identity*, not object identity: two
`PerformanceModel` instances with the same fitted parameters describe the
same device, and a request against them for the same total and algorithm
must hit the same cache slot -- across threads, processes and restarts.

The fingerprint is a SHA-256 hash of a canonical encoding of the model's
:meth:`~repro.core.models.base.PerformanceModel.fingerprint_state` (its
fitted parameters) or of the request tuple ``(models fingerprint, total,
partitioner name, options)``.

Stability contract (documented in ``docs/API.md``):

* floats are encoded via ``repr``, which is exact for IEEE-754 doubles in
  Python 3 -- two floats fingerprint equal iff they are bit-equal (with
  ``-0.0`` distinguished from ``0.0`` and ``nan`` encoding stably);
* mapping keys are sorted, so option order never matters;
* the encoding is versioned (``_V`` prefix); any change to the canonical
  form bumps the version and thereby invalidates persisted caches instead
  of silently colliding with them.

Digests are memoised: a model's digest is reused while its mutation
counter (``version``) holds, and a model set's digest is looked up by
the tuple of its members' digests.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Any, Mapping, Sequence, Tuple

from repro.errors import FuPerModError

#: Canonical-encoding version, mixed into every digest.  Bump on any
#: change to :func:`canonical` so stale persisted caches miss cleanly.
FINGERPRINT_VERSION = "fp1"


def canonical(value: Any) -> str:
    """Canonical text encoding of a plain-Python value tree.

    Supports the types model states and request options are made of:
    ``None``, ``bool``, ``int``, ``float``, ``str``, sequences and
    mappings.  Anything else is a caller bug and raises
    :class:`~repro.errors.FuPerModError` (a fingerprint that silently
    falls back to ``repr`` of an arbitrary object would not be stable).
    """
    if value is None or isinstance(value, (bool, int)):
        return repr(value)
    if isinstance(value, float):
        # repr() of the builtin is the shortest round-trip form: bit-exact
        # and stable.  Normalise through float() so numpy.float64 (a float
        # subclass whose repr carries the type name) encodes identically.
        return repr(float(value))
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    if isinstance(value, Mapping):
        items = sorted((str(k), v) for k, v in value.items())
        return "{" + ",".join(f"{k!r}:{canonical(v)}" for k, v in items) + "}"
    # numpy scalars quack like their Python counterparts via .item().
    item = getattr(value, "item", None)
    if callable(item):
        return canonical(item())
    raise FuPerModError(
        f"cannot canonicalise {type(value).__name__!r} for fingerprinting; "
        "use plain ints/floats/strings/sequences/mappings"
    )


def digest(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``parts``."""
    h = hashlib.sha256()
    h.update(FINGERPRINT_VERSION.encode("ascii"))
    for part in parts:
        h.update(b"\x1f")
        h.update(canonical(part).encode("utf-8"))
    return h.hexdigest()


def fingerprint_model(model) -> str:
    """Content hash of one fitted model.

    Delegates to the model's ``fingerprint_state`` hook (resolving the
    lazy fit), so equality of fingerprints means equality of the fitted
    parameters predictions actually use.

    A model with a mutation counter (``version``, see
    :attr:`~repro.core.models.base.PerformanceModel.version`) is hashed
    once per version: the counter is read *before* hashing and stored
    with the digest, so a mutation racing the hash leaves a memo that
    no longer matches.  Models without the counter are hashed per call.
    """
    version = getattr(model, "version", None)
    memo = getattr(model, "_fingerprint_memo", None)
    if memo is not None and memo[0] == version:
        return memo[1]
    state = getattr(model, "fingerprint_state", None)
    if state is None:
        raise FuPerModError(
            f"{type(model).__name__} has no fingerprint_state hook; "
            "serving requires a fingerprintable PerformanceModel"
        )
    fp = digest("model", state())
    if version is not None:
        model._fingerprint_memo = (version, fp)
    return fp


def fingerprint_models(models: Sequence) -> str:
    """Content hash of an ordered model set (one per rank).

    Rank order matters -- swapping two devices' models is a different
    partitioning problem -- so the combined hash covers the sequence of
    per-model fingerprints in order.
    """
    return _models_digest(tuple([fingerprint_model(m) for m in models]))


@functools.lru_cache(maxsize=32)
def _models_digest(model_fps: Tuple[str, ...]) -> str:
    # A tuple encodes exactly as the list it stands for, so set digests
    # are unchanged; the bound covers a few epochs' speed and energy sets.
    return digest("models", model_fps)


def fingerprint_request(
    models_fp: str,
    total: int,
    partitioner: str,
    options: Mapping[str, Any],
) -> str:
    """Content hash of a plan request (the cache key)."""
    return digest("request", models_fp, int(total), partitioner, options)


def fingerprint_objective_request(
    kind: str,
    models_fp: str,
    energy_fp: str,
    total: int,
    partitioner: str,
    options: Mapping[str, Any],
    objective: Mapping[str, Any],
) -> str:
    """Content hash of an objective-keyed plan request.

    Bi-objective plans are keyed on ``(models_fp, energy_fp, objective)``
    in addition to the classic request tuple: the plan ``kind`` and the
    energy-model fingerprint are mixed into the digest, so a ``"pareto"``
    plan can never collide with a ``"time"`` plan for the same speed
    models -- and a refit of the *power* side alone invalidates exactly
    the energy-keyed entries.  ``"time"`` requests keep the original
    :func:`fingerprint_request` key (bit-stable with every persisted
    cache and replica written before plan kinds existed).
    """
    if kind == "time":
        return fingerprint_request(models_fp, total, partitioner, options)
    return digest(
        "request", kind, models_fp, energy_fp, int(total), partitioner,
        options, dict(objective or {}),
    )


def affinity_key(
    total: int,
    partitioner: str,
    options: Mapping[str, Any],
) -> str:
    """The fleet routing key: the request *without* the model set.

    A fleet serves one model set, so including ``models_fp`` would add
    nothing to placement while coupling the consistent-hash ring to model
    refits (every refit would remap every key).  Router and workers both
    derive this key -- the router to pick the home shard, a worker to
    order its sibling-fill probes so the most likely holder is asked
    first.
    """
    return digest("affinity", int(total), partitioner, options or {})
