"""Remote serving: a durable, multi-tenant HTTP front door over a pool.

The in-process :mod:`repro.serve` queue stops at a Python API.  This package
adds the network layer the roadmap calls the serving front door:

- :class:`JobJournal` — append-only JSONL durability beside the cubin
  cache; a restarted server replays it into a consistent job map and a warm
  result store (:mod:`repro.remote.journal`).
- :class:`TenantQuota` — per-tenant token-bucket admission control
  (:mod:`repro.remote.admission`).
- :class:`RemoteApp` — the protocol-agnostic serving application: the
  journaled queue, quotas, journal compaction (:mod:`repro.remote.app`).
- :class:`RemoteServer` — stdlib HTTP/JSON + SSE server
  (:mod:`repro.remote.server`); boot it with ``python -m repro.remote.serve``.
- :class:`RemoteClient` / :class:`RemoteJobHandle` — stdlib client mirroring
  the in-process :class:`~repro.serve.JobHandle` API
  (:mod:`repro.remote.client`).
"""

from repro.remote.admission import TenantQuota
from repro.remote.app import RemoteApp
from repro.remote.client import RemoteClient, RemoteJobHandle
from repro.remote.journal import JOURNAL_FILENAME, JobJournal, JournalReplay
from repro.remote.server import RemoteServer

__all__ = [
    "JOURNAL_FILENAME",
    "JobJournal",
    "JournalReplay",
    "RemoteApp",
    "RemoteClient",
    "RemoteJobHandle",
    "RemoteServer",
    "TenantQuota",
]
