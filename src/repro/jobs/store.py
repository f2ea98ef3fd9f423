"""Sqlite-backed durable job queue + result store.

One :class:`JobStore` file holds any number of *runs* (a named batch of
work, e.g. one campaign invocation) and their *shards* (self-contained
work units).  The store is the single source of truth for the shard
state machine::

    pending --lease--> leased --complete--> done
       ^                  |
       |                  +--fail(retry)--> pending   (backoff gate)
       |                  +--fail(final)--> failed
       +--release_expired-- (lease timed out / worker died)

Guarantees:

* **Atomic transitions** -- every edge is one guarded ``UPDATE ...
  WHERE state = ?`` executed under sqlite's transactional engine;
  concurrent or crashed supervisors cannot double-claim a shard or
  overwrite a completed result.
* **Crash safety** -- sqlite journals every write; killing the
  supervisor between any two statements leaves a queue the next
  ``--resume`` picks up cleanly (in-flight leases simply expire).
* **Deterministic aggregation** -- shards carry a ``seq`` recording
  deterministic submission order; :meth:`JobStore.results` returns done
  results in that order regardless of completion order, retries, or
  which worker ran what, which is what makes resumed aggregates
  bit-identical to uninterrupted ones.

Only the supervisor process touches the store (workers report results
over pipes), so there is no multi-writer contention in the common case;
the guarded transitions additionally make the store safe under an
accidentally doubled supervisor.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sqlite3
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "JobStore",
    "Shard",
    "ShardEvent",
    "ShardState",
    "StoreConflictError",
]

#: Schema version stamped into the sqlite ``user_version`` pragma.
SCHEMA_VERSION = 1


class ShardState:
    """The four states of the shard state machine (string constants)."""

    PENDING = "pending"
    LEASED = "leased"
    DONE = "done"
    FAILED = "failed"

    ALL = (PENDING, LEASED, DONE, FAILED)


class StoreConflictError(RuntimeError):
    """A run already exists with an incompatible specification."""


@dataclasses.dataclass(frozen=True)
class Shard:
    """One durable work unit as stored in the queue."""

    run_id: str
    shard_id: str
    seq: int
    payload: Dict
    state: str = ShardState.PENDING
    attempts: int = 0
    not_before: float = 0.0
    lease_expires: Optional[float] = None
    result: Optional[Dict] = None
    error: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class ShardEvent:
    """One supervision event (retry, timeout, worker death, fallback)."""

    seq: int
    shard_id: Optional[str]
    kind: str
    detail: str

    def to_json(self) -> Dict:
        return dataclasses.asdict(self)


_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id   TEXT PRIMARY KEY,
    kind     TEXT NOT NULL,
    spec     TEXT NOT NULL,
    status   TEXT NOT NULL DEFAULT 'active'
);
CREATE TABLE IF NOT EXISTS shards (
    run_id        TEXT NOT NULL,
    shard_id      TEXT NOT NULL,
    seq           INTEGER NOT NULL,
    payload       TEXT NOT NULL,
    state         TEXT NOT NULL DEFAULT 'pending',
    attempts      INTEGER NOT NULL DEFAULT 0,
    not_before    REAL NOT NULL DEFAULT 0,
    lease_expires REAL,
    result        TEXT,
    error         TEXT,
    PRIMARY KEY (run_id, shard_id)
);
CREATE INDEX IF NOT EXISTS shards_by_state
    ON shards (run_id, state, not_before, seq);
CREATE TABLE IF NOT EXISTS events (
    event_seq INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id    TEXT NOT NULL,
    shard_id  TEXT,
    kind      TEXT NOT NULL,
    detail    TEXT NOT NULL DEFAULT ''
);
"""


class JobStore:
    """Durable queue + result store over one sqlite file.

    Use as a context manager (closes the connection) or call
    :meth:`close` explicitly.  ``":memory:"`` gives an ephemeral store,
    the one a campaign without ``--store`` runs on.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        with self._conn:
            self._conn.executescript(_SCHEMA)
            self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- runs ----------------------------------------------------------

    def create_run(self, run_id: str, kind: str, spec: Dict) -> None:
        """Register a run, or validate it if it already exists.

        Re-creating an existing run with the same ``kind`` and ``spec``
        is a no-op (that is what ``--resume`` does); a mismatch raises
        :class:`StoreConflictError` so a resume can never silently mix
        two different campaigns' shards.
        """
        encoded = json.dumps(spec, sort_keys=True)
        row = self._conn.execute(
            "SELECT kind, spec FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is not None:
            if row["kind"] != kind or row["spec"] != encoded:
                raise StoreConflictError(
                    f"run {run_id!r} already exists with a different "
                    f"{'kind' if row['kind'] != kind else 'spec'}"
                )
            return
        with self._conn:
            self._conn.execute(
                "INSERT INTO runs (run_id, kind, spec) VALUES (?, ?, ?)",
                (run_id, kind, encoded),
            )

    def load_run(self, run_id: str) -> Tuple[str, Dict]:
        """``(kind, spec)`` of a registered run."""
        row = self._conn.execute(
            "SELECT kind, spec FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"no run {run_id!r} in {self.path}")
        return row["kind"], json.loads(row["spec"])

    # -- shard submission ----------------------------------------------

    def add_shards(
        self, run_id: str, shards: Sequence[Tuple[str, Dict]]
    ) -> int:
        """Insert ``(shard_id, payload)`` units, skipping known ids.

        Idempotent: resubmitting the same shard list (what a resume
        does after recomputing the campaign's point grid) inserts only
        genuinely new shards and never disturbs done/leased ones.
        Returns the number of newly inserted shards.
        """
        base = self._conn.execute(
            "SELECT COALESCE(MAX(seq), -1) FROM shards WHERE run_id = ?",
            (run_id,),
        ).fetchone()[0]
        inserted = 0
        with self._conn:
            for shard_id, payload in shards:
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO shards "
                    "(run_id, shard_id, seq, payload) VALUES (?, ?, ?, ?)",
                    (
                        run_id,
                        shard_id,
                        base + 1 + inserted,
                        json.dumps(payload, sort_keys=True),
                    ),
                )
                inserted += cursor.rowcount
        return inserted

    # -- the state machine ---------------------------------------------

    def lease(
        self, run_id: str, now: float, timeout: float, limit: int = 1
    ) -> List[Shard]:
        """Atomically claim up to ``limit`` runnable pending shards.

        A shard is runnable when its backoff gate has passed
        (``not_before <= now``).  Claimed shards move to ``leased`` with
        ``attempts`` incremented and a lease expiring at ``now +
        timeout``; the guarded UPDATE means a shard can never be leased
        twice concurrently.
        """
        rows = self._conn.execute(
            "SELECT shard_id FROM shards WHERE run_id = ? AND state = ? "
            "AND not_before <= ? ORDER BY seq LIMIT ?",
            (run_id, ShardState.PENDING, now, limit),
        ).fetchall()
        leased: List[Shard] = []
        with self._conn:
            for row in rows:
                cursor = self._conn.execute(
                    "UPDATE shards SET state = ?, attempts = attempts + 1, "
                    "lease_expires = ? WHERE run_id = ? AND shard_id = ? "
                    "AND state = ?",
                    (
                        ShardState.LEASED,
                        now + timeout,
                        run_id,
                        row["shard_id"],
                        ShardState.PENDING,
                    ),
                )
                if cursor.rowcount:
                    leased.append(self.get(run_id, row["shard_id"]))
        return leased

    def complete(self, run_id: str, shard_id: str, result: Dict) -> bool:
        """``leased -> done`` with the result payload; False if not leased."""
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE shards SET state = ?, result = ?, error = NULL, "
                "lease_expires = NULL WHERE run_id = ? AND shard_id = ? "
                "AND state = ?",
                (
                    ShardState.DONE,
                    json.dumps(result, sort_keys=True),
                    run_id,
                    shard_id,
                    ShardState.LEASED,
                ),
            )
        return bool(cursor.rowcount)

    def fail(
        self,
        run_id: str,
        shard_id: str,
        error: str,
        retry_at: Optional[float] = None,
    ) -> bool:
        """``leased -> pending`` (retry, gated by ``retry_at``) or
        ``leased -> failed`` (terminal, when ``retry_at`` is None)."""
        if retry_at is None:
            new_state, not_before = ShardState.FAILED, 0.0
        else:
            new_state, not_before = ShardState.PENDING, retry_at
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE shards SET state = ?, error = ?, not_before = ?, "
                "lease_expires = NULL WHERE run_id = ? AND shard_id = ? "
                "AND state = ?",
                (new_state, error, not_before, run_id, shard_id,
                 ShardState.LEASED),
            )
        return bool(cursor.rowcount)

    def release_expired(self, run_id: str, now: float) -> List[str]:
        """Return expired leases to ``pending``; ids of released shards.

        This is how the shards of a crashed or wedged supervisor (or a
        SIGKILLed worker whose supervisor also died) rejoin the queue:
        nobody needs to clean up explicitly, the lease clock does it.
        """
        rows = self._conn.execute(
            "SELECT shard_id FROM shards WHERE run_id = ? AND state = ? "
            "AND lease_expires IS NOT NULL AND lease_expires <= ?",
            (run_id, ShardState.LEASED, now),
        ).fetchall()
        released = []
        with self._conn:
            for row in rows:
                cursor = self._conn.execute(
                    "UPDATE shards SET state = ?, lease_expires = NULL "
                    "WHERE run_id = ? AND shard_id = ? AND state = ? "
                    "AND lease_expires <= ?",
                    (ShardState.PENDING, run_id, row["shard_id"],
                     ShardState.LEASED, now),
                )
                if cursor.rowcount:
                    released.append(row["shard_id"])
        return released

    # -- introspection -------------------------------------------------

    def get(self, run_id: str, shard_id: str) -> Shard:
        row = self._conn.execute(
            "SELECT * FROM shards WHERE run_id = ? AND shard_id = ?",
            (run_id, shard_id),
        ).fetchone()
        if row is None:
            raise KeyError(f"no shard {shard_id!r} in run {run_id!r}")
        return _shard_from_row(row)

    def shards(
        self, run_id: str, state: Optional[str] = None
    ) -> List[Shard]:
        """All shards of a run (optionally one state), in ``seq`` order."""
        if state is None:
            rows = self._conn.execute(
                "SELECT * FROM shards WHERE run_id = ? ORDER BY seq",
                (run_id,),
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT * FROM shards WHERE run_id = ? AND state = ? "
                "ORDER BY seq",
                (run_id, state),
            ).fetchall()
        return [_shard_from_row(row) for row in rows]

    def results(self, run_id: str) -> List[Dict]:
        """Result payloads of all done shards, in deterministic order."""
        rows = self._conn.execute(
            "SELECT result FROM shards WHERE run_id = ? AND state = ? "
            "ORDER BY seq",
            (run_id, ShardState.DONE),
        ).fetchall()
        return [json.loads(row["result"]) for row in rows]

    def counts(self, run_id: str) -> Dict[str, int]:
        """Shard count per state (all four states always present)."""
        rows = self._conn.execute(
            "SELECT state, COUNT(*) AS n FROM shards WHERE run_id = ? "
            "GROUP BY state",
            (run_id,),
        ).fetchall()
        counts = {state: 0 for state in ShardState.ALL}
        for row in rows:
            counts[row["state"]] = row["n"]
        return counts

    def next_not_before(self, run_id: str) -> Optional[float]:
        """Earliest backoff gate among pending shards (None if no pending)."""
        row = self._conn.execute(
            "SELECT MIN(not_before) FROM shards WHERE run_id = ? "
            "AND state = ?",
            (run_id, ShardState.PENDING),
        ).fetchone()
        return row[0]

    # -- events --------------------------------------------------------

    def record_event(
        self,
        run_id: str,
        kind: str,
        detail: str = "",
        shard_id: Optional[str] = None,
    ) -> None:
        with self._conn:
            self._conn.execute(
                "INSERT INTO events (run_id, shard_id, kind, detail) "
                "VALUES (?, ?, ?, ?)",
                (run_id, shard_id, kind, detail),
            )

    def events(
        self, run_id: str, kind: Optional[str] = None
    ) -> List[ShardEvent]:
        if kind is None:
            rows = self._conn.execute(
                "SELECT * FROM events WHERE run_id = ? ORDER BY event_seq",
                (run_id,),
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT * FROM events WHERE run_id = ? AND kind = ? "
                "ORDER BY event_seq",
                (run_id, kind),
            ).fetchall()
        return [
            ShardEvent(
                seq=row["event_seq"],
                shard_id=row["shard_id"],
                kind=row["kind"],
                detail=row["detail"],
            )
            for row in rows
        ]


def _shard_from_row(row: sqlite3.Row) -> Shard:
    return Shard(
        run_id=row["run_id"],
        shard_id=row["shard_id"],
        seq=row["seq"],
        payload=json.loads(row["payload"]),
        state=row["state"],
        attempts=row["attempts"],
        not_before=row["not_before"],
        lease_expires=row["lease_expires"],
        result=json.loads(row["result"]) if row["result"] else None,
        error=row["error"],
    )
