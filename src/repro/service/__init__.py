"""Hardened experiment service: a crash-safe job queue over the engine.

``python -m repro serve`` runs :class:`ExperimentDaemon`;
``python -m repro submit/status/results/drain`` talk to it through
:class:`ServiceClient`. See :mod:`repro.service.daemon` for the
robustness design (admission control, write-ahead journal, graceful
shutdown) and :mod:`repro.service.protocol` for the wire format.

The package is a lazy namespace (:mod:`repro.lazy`): a client imports
:mod:`~repro.service.client` and the protocol, not the daemon and the
simulator it runs.
"""

from ..lazy import attach as _attach

__getattr__, __dir__, __all__ = _attach(__name__, {
    ".client": ("ServiceClient", "resolve_state_dir"),
    ".daemon": ("ExperimentDaemon",),
    ".jobs": ("JOB_KINDS", "execute_job", "job_key", "validate_job"),
    ".journal": ("Journal",),
    ".protocol": ("CODES", "DAEMON_INFO_NAME", "DEFAULT_STATE_DIR", "OPS",
                  "SERVICE_DIR_ENV", "ProtocolError"),
})
