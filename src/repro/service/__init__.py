"""repro.service: the measurement-as-a-service plane.

The paper's campaign is a standing, weekly measurement whose results
people *query* — adoption per week, compliance distributions, one
domain's history.  This package turns the repo's one-shot pipeline into
that service, in three layers that only talk through files:

* :mod:`repro.service.daemon` — the campaign daemon: a clock-agnostic
  scheduler drives the regular scanner over the configured campaign,
  spooling each week's dataset as a content-addressed ``cbr`` artifact
  (:mod:`repro.service.spool`).  Every step resumes after a crash via
  scan checkpoints, content dedupe and the appended fold ledger.
* :mod:`repro.service.indexer` — the incremental indexer: folds each
  artifact exactly once into persistent per-week counter summaries
  (:mod:`repro.service.summary`), idempotent and order-independent down
  to the summary bytes.
* :mod:`repro.service.api` — the HTTP/JSON query API: millisecond
  answers from the summaries, byte-identical to ``repro analyze`` over
  the same artifacts, with zero chunk decodes on the hot path.

DESIGN.md Sec. 11 documents the spool and ledger formats and the
byte-identity argument.
"""

from repro.service.api import ServiceState, build_server, serve_forever
from repro.service.daemon import (
    CampaignDaemon,
    Scheduler,
    ServiceConfig,
    WallClock,
)
from repro.service.indexer import WeekIndexer
from repro.service.spool import SpoolEntry, SpoolStore, artifact_fingerprint
from repro.service.summary import WeekSummary

__all__ = [
    "CampaignDaemon",
    "Scheduler",
    "ServiceConfig",
    "ServiceState",
    "SpoolEntry",
    "SpoolStore",
    "WallClock",
    "WeekIndexer",
    "WeekSummary",
    "artifact_fingerprint",
    "build_server",
    "serve_forever",
]
