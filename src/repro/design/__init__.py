"""Declarative experiment designs (ROADMAP item 2).

Experiments are *data*: a :class:`Design` declares a factorial space
(crossed/nested/derived :class:`Factor`\\ s, exclusion filters, orderings,
per-cell :class:`Override`\\ s), :meth:`Design.compile` lowers it
deterministically to :class:`~repro.harness.jobs.SimJob`\\ s under a
:class:`DesignEnv`, and a :class:`Campaign` gives the sweep a durable,
resumable, shardable on-disk store: a static ``meta.json`` plus a
:class:`JobStore` (:mod:`repro.design.store`), whose append-only
checksummed journal (:mod:`repro.design.journal`) and lease rule let
concurrent workers drain one campaign safely.  The ``repro-serve``
daemon keeps its queue in a :class:`JobStore` too.  Design files
(TOML/JSON) round-trip through :func:`parse_design`/:func:`serialize_design`
with identical compiled fingerprints.  See docs/DESIGNS.md and
docs/ROBUSTNESS.md.
"""

from .campaign import (DEFAULT_CAMPAIGN_ROOT, DEFAULT_COMPACT_EVERY, Campaign,
                       CampaignError, CampaignReport)
from .design import (RESERVED, Block, CompiledCell, Design, DesignError,
                     Factor, Override)
from .env import DesignEnv
from .files import (ENV_KEYS, NONE_SENTINEL, design_payload, load_design,
                    parse_design, serialize_design)
from .journal import (JOURNAL_NAME, SNAPSHOT_NAME, Journal, JournalReplay,
                      load_snapshot, record_crc, replay_journal,
                      write_snapshot)
from .store import (DEFAULT_LEASE_TTL, TTL_JITTER_FRAC, Job, JobStore,
                    default_worker_id, job_id, lease_alive,
                    worker_ttl_jitter)

__all__ = [
    "DEFAULT_CAMPAIGN_ROOT", "DEFAULT_COMPACT_EVERY", "DEFAULT_LEASE_TTL",
    "ENV_KEYS", "JOURNAL_NAME", "NONE_SENTINEL", "RESERVED", "SNAPSHOT_NAME",
    "TTL_JITTER_FRAC", "worker_ttl_jitter",
    "Block", "Campaign", "CampaignError", "CampaignReport", "CompiledCell",
    "Design", "DesignEnv", "DesignError", "Factor", "Job", "JobStore",
    "Journal", "JournalReplay", "Override", "default_worker_id",
    "design_payload", "job_id", "lease_alive", "load_design",
    "load_snapshot", "parse_design", "record_crc", "replay_journal",
    "serialize_design", "write_snapshot",
]
