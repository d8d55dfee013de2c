"""Mixed-criticality task model: tasks, task sets, and partitions."""

from repro.model.task import MCTask
from repro.model.taskset import MCTaskSet
from repro.model.partition import Partition
from repro.model.io import (
    events_from_dict,
    events_to_dict,
    load_events,
    load_partition,
    load_taskset,
    partition_from_dict,
    partition_to_dict,
    save_events,
    save_partition,
    save_taskset,
    task_to_dict,
    taskset_from_dict,
    taskset_to_dict,
)

__all__ = [
    "MCTask",
    "MCTaskSet",
    "Partition",
    "events_from_dict",
    "events_to_dict",
    "load_events",
    "load_partition",
    "load_taskset",
    "save_events",
    "partition_from_dict",
    "partition_to_dict",
    "save_partition",
    "save_taskset",
    "task_to_dict",
    "taskset_from_dict",
    "taskset_to_dict",
]
