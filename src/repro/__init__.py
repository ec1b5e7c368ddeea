"""Reproduction of Függer–Nowak–Schwarz, PODC'18 (asymptotic consensus).

The package's front door is the declarative :mod:`repro.api` facade::

    from repro import Study, EngineConfig

    result = Study(
        algorithm=..., initial_values=..., pattern=..., rounds=...,
        config=EngineConfig(seed=7, threads=2),
    ).run()

Everything the facade compiles to remains directly importable from the
subpackages (:mod:`repro.execution`, :mod:`repro.core`,
:mod:`repro.algorithms`, :mod:`repro.graphs`, :mod:`repro.models`,
:mod:`repro.asynchrony`, :mod:`repro.analysis`).
"""

from repro.api import (
    CertifySpec,
    EngineConfig,
    ScenarioSpec,
    Study,
    StudyCertificates,
    StudyProvenance,
    StudyResult,
)
from repro.config import current_engine_config
from repro.exceptions import (
    ConfigError,
    EnsembleShapeError,
    FaultModelError,
    ReproError,
)
from repro.faults import (
    CrashSpec,
    FaultMaskingPattern,
    FaultPlan,
    FaultSpec,
    JoinSpec,
    as_fault_plan,
)
from repro.service import (
    CheckpointJournal,
    JobQueueServer,
    PartialStudyResult,
    RemoteConfig,
    ResultCache,
    RetryPolicy,
    ShardFailure,
    ShardRecord,
    run_certification_sweep_service,
    run_study_service,
)

__all__ = [
    "CertifySpec",
    "CheckpointJournal",
    "ConfigError",
    "CrashSpec",
    "EngineConfig",
    "EnsembleShapeError",
    "FaultMaskingPattern",
    "FaultModelError",
    "FaultPlan",
    "FaultSpec",
    "JobQueueServer",
    "JoinSpec",
    "PartialStudyResult",
    "RemoteConfig",
    "ReproError",
    "ResultCache",
    "RetryPolicy",
    "ScenarioSpec",
    "ShardFailure",
    "ShardRecord",
    "Study",
    "StudyCertificates",
    "StudyProvenance",
    "StudyResult",
    "as_fault_plan",
    "current_engine_config",
    "run_certification_sweep_service",
    "run_study_service",
]
