"""Adapters for the public cluster-trace formats.

Three public datasets cover workload shapes the paper never ran:

* **google2019** — Google Borg 2019 (ClusterData2019) collection
  events, as the JSONL the BigQuery export produces.  SUBMIT/FINISH
  event pairs are joined *streaming*: the reader holds only the
  in-flight collections (O(concurrency), not O(file)).
* **alibaba2018** — Alibaba cluster-trace-v2018 ``batch_task.csv``
  (task_name, instance_num, job_name, task_type, status, start_time,
  end_time, plan_cpu, plan_mem).
* **azure-packing** — Azure Public Dataset ``vmtable.csv`` VM-packing
  rows (created/deleted timestamps, core/memory buckets).

Each maps its native schema onto the four
:class:`~repro.trace.schema.JobRecord` metrics.  Memory becomes a
fraction of a reference machine (an option where the dataset leaves
it open).  Rows that are *unparseable* die with ``path:line``
context; rows that are parseable but incomplete for replay (missing
end time, non-terminal status, non-positive duration) are skipped —
public dumps legitimately contain them.

None of the datasets is redistributable here; download pointers live
in the README's Traces section.  All three adapters stream through
the shared ``start``/``window``/``sample``/``limit`` pipeline, so a
multi-GB file replays in bounded memory.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple

from ...errors import TraceError
from ...registry import register_trace
from ..schema import JobRecord, Trace
from ..spec import TraceSpec
from ..stream import csv_rows, jsonl_rows, row_error
from .common import apply_scaling, materialise, read_scaling

#: µs per second: the 2019 trace timestamps in microseconds.
_MICROS = 1_000_000.0


def _fraction_field(
    path: str, line_number: int, name: str, value: float
) -> float:
    if not 0.0 <= value <= 1.0:
        raise row_error(
            path,
            line_number,
            f"{name}={value:g} outside [0, 1]",
        )
    return value


def _job_record(path: str, line_number: int, **fields: Any) -> JobRecord:
    """A :class:`JobRecord` whose rejection carries ``path:line``."""
    try:
        return JobRecord(**fields)
    except TraceError as exc:
        raise row_error(path, line_number, exc) from None


def _iter_google2019(path: str) -> Iterator[JobRecord]:
    """Streaming SUBMIT/FINISH join over a collection-events JSONL."""
    #: collection_id -> (submit µs, assigned memory), in-flight only.
    pending: Dict[int, Tuple[float, float]] = {}
    job_id = 0
    for line_number, record in jsonl_rows(path):
        kind = str(record.get("type", "")).upper()
        try:
            collection = int(record["collection_id"])
            time_us = float(record["time"])
        except (KeyError, TypeError, ValueError) as exc:
            raise row_error(
                path,
                line_number,
                f"need integer collection_id and numeric time: {exc}",
            ) from None
        if kind == "SUBMIT":
            request = record.get("resource_request") or {}
            try:
                assigned = float(request.get("memory", 0.0))
            except (TypeError, ValueError):
                raise row_error(
                    path,
                    line_number,
                    "resource_request.memory is not numeric",
                ) from None
            _fraction_field(
                path, line_number, "resource_request.memory", assigned
            )
            pending[collection] = (time_us, assigned)
        elif kind == "FINISH":
            entry = pending.pop(collection, None)
            if entry is None:
                continue  # dump starts mid-trace; no SUBMIT seen
            submit_us, assigned = entry
            duration = (time_us - submit_us) / _MICROS
            if duration <= 0.0:
                continue  # instantaneous/garbled pair: not replayable
            usage = record.get("maximum_usage") or {}
            try:
                max_memory = float(usage.get("memory", assigned))
            except (TypeError, ValueError):
                raise row_error(
                    path,
                    line_number,
                    "maximum_usage.memory is not numeric",
                ) from None
            _fraction_field(
                path, line_number, "maximum_usage.memory", max_memory
            )
            yield _job_record(
                path,
                line_number,
                job_id=job_id,
                submit_time=submit_us / _MICROS,
                duration=duration,
                assigned_memory=assigned,
                max_memory=max_memory,
            )
            job_id += 1
        # other event kinds (SCHEDULE, EVICT, ...) carry no new metric


@register_trace("google2019")
def build_google2019(spec: TraceSpec, seed: int) -> Trace:
    """Google Borg 2019 collection events (BigQuery JSONL export).

    Options: ``path`` (required), plus the shared
    ``start``/``window``/``sample``/``stride``/``limit`` scaling
    knobs.  Submit times are renumbered to t=0.
    """
    options = spec.reader("seed")
    path = options.path()
    scaling = read_scaling(options)
    options.finish()
    return materialise(
        apply_scaling(_iter_google2019(path), scaling), renumber=True
    )


build_google2019.summary = (
    "Google Borg 2019 collection-events JSONL (streaming join)"
)
build_google2019.spec_example = (
    "google2019:path=events.jsonl,window=1h,sample=0.05"
)
build_google2019.needs_path = True


_ALIBABA_COLUMNS = 9
#: batch_task.csv field indexes.
_ALI_STATUS, _ALI_START, _ALI_END, _ALI_MEM = 4, 5, 6, 8


def _iter_alibaba2018(path: str, usage_scale: float) -> Iterator[JobRecord]:
    job_id = 0
    for line_number, row in csv_rows(
        path, columns=_ALIBABA_COLUMNS, numeric_probe=_ALI_START
    ):
        if row[_ALI_STATUS] != "Terminated":
            continue  # Running/Waiting/Failed rows carry no duration
        start_text = row[_ALI_START].strip()
        end_text = row[_ALI_END].strip()
        mem_text = row[_ALI_MEM].strip()
        if not start_text or not end_text or not mem_text:
            continue  # the public dump has rows with empty fields
        try:
            start = float(start_text)
            end = float(end_text)
            plan_mem = float(mem_text)
        except ValueError as exc:
            raise row_error(
                path, line_number, f"non-numeric field: {exc}"
            ) from None
        duration = end - start
        if duration <= 0.0 or start < 0.0:
            continue
        if not 0.0 <= plan_mem <= 100.0:
            raise row_error(
                path,
                line_number,
                f"plan_mem={plan_mem:g} outside [0, 100]",
            )
        assigned = plan_mem / 100.0
        yield _job_record(
            path,
            line_number,
            job_id=job_id,
            submit_time=start,
            duration=duration,
            assigned_memory=assigned,
            max_memory=min(assigned * usage_scale, 1.0),
        )
        job_id += 1


@register_trace("alibaba2018")
def build_alibaba2018(spec: TraceSpec, seed: int) -> Trace:
    """Alibaba cluster-trace-v2018 ``batch_task.csv``.

    Options: ``path`` (required), ``usage_scale`` (max-memory as a
    multiple of the plan, default 1.0 — the usage table ships
    separately), plus the shared scaling knobs.  Only ``Terminated``
    tasks replay; submit times are renumbered to t=0.
    """
    options = spec.reader("seed")
    path = options.path()
    usage_scale = options.number("usage_scale", 1.0)
    scaling = read_scaling(options)
    options.finish()
    if usage_scale is None or usage_scale <= 0:
        raise TraceError(
            f"trace spec option 'usage_scale' must be positive, "
            f"got {usage_scale!r}"
        )
    return materialise(
        apply_scaling(_iter_alibaba2018(path, usage_scale), scaling),
        renumber=True,
    )


build_alibaba2018.summary = (
    "Alibaba cluster-trace-v2018 batch_task.csv (Terminated tasks)"
)
build_alibaba2018.spec_example = (
    "alibaba2018:path=batch_task.csv,sample=0.01"
)
build_alibaba2018.needs_path = True


_AZURE_MIN_COLUMNS = 11
#: vmtable.csv field indexes (Azure Public Dataset V1).
_AZ_CREATED, _AZ_DELETED, _AZ_MEMORY = 3, 4, 10


def _iter_azure(
    path: str, machine_memory_gib: float, utilization: float
) -> Iterator[JobRecord]:
    job_id = 0
    for line_number, row in csv_rows(path, numeric_probe=_AZ_CREATED):
        if len(row) < _AZURE_MIN_COLUMNS:
            raise row_error(
                path,
                line_number,
                f"expected >= {_AZURE_MIN_COLUMNS} columns, "
                f"got {len(row)}",
            )
        created_text = row[_AZ_CREATED].strip()
        deleted_text = row[_AZ_DELETED].strip()
        # Buckets ship as numbers or as ">N" for the top bucket.
        memory_text = row[_AZ_MEMORY].strip().lstrip(">")
        if not created_text or not deleted_text or not memory_text:
            continue  # still-running VMs have no deletion timestamp
        try:
            created = float(created_text)
            deleted = float(deleted_text)
            memory_gib = float(memory_text)
        except ValueError as exc:
            raise row_error(
                path, line_number, f"non-numeric field: {exc}"
            ) from None
        duration = deleted - created
        if duration <= 0.0 or created < 0.0:
            continue
        assigned = min(memory_gib / machine_memory_gib, 1.0)
        yield _job_record(
            path,
            line_number,
            job_id=job_id,
            submit_time=created,
            duration=duration,
            assigned_memory=assigned,
            max_memory=min(assigned * utilization, 1.0),
        )
        job_id += 1


@register_trace("azure-packing")
def build_azure_packing(spec: TraceSpec, seed: int) -> Trace:
    """Azure Public Dataset ``vmtable.csv`` VM-packing rows.

    Options: ``path`` (required), ``machine_memory_gib`` (reference
    machine normalising the memory buckets, default 64),
    ``utilization`` (used-memory fraction of the bucket, default 1.0
    — the packing trace declares buckets, not usage), plus the shared
    scaling knobs.  VMs never deleted are skipped; submit times are
    renumbered to t=0.
    """
    options = spec.reader("seed")
    path = options.path()
    machine_memory = options.number("machine_memory_gib", 64.0)
    utilization = options.fraction("utilization", 1.0)
    scaling = read_scaling(options)
    options.finish()
    if machine_memory is None or machine_memory <= 0:
        raise TraceError(
            f"trace spec option 'machine_memory_gib' must be "
            f"positive, got {machine_memory!r}"
        )
    return materialise(
        apply_scaling(
            _iter_azure(path, machine_memory, utilization or 1.0),
            scaling,
        ),
        renumber=True,
    )


build_azure_packing.summary = (
    "Azure Public Dataset vmtable.csv VM-packing rows"
)
build_azure_packing.spec_example = (
    "azure-packing:path=vmtable.csv,machine_memory_gib=64,window=6h"
)
build_azure_packing.needs_path = True
