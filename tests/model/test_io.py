"""Tests for JSON serialization of task sets and partitions."""

import json
import re

import pytest

from repro.model import (
    MCTask,
    MCTaskSet,
    Partition,
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
    taskset_from_dict,
    taskset_to_dict,
)
from repro.sched.events import (
    core_failure,
    core_hotplug,
    mode_recovery,
    task_arrival,
    task_departure,
    wcet_burst,
)
from repro.types import ModelError, SimulationError


@pytest.fixture
def taskset():
    return MCTaskSet(
        [
            MCTask(wcets=(2.0, 5.0), period=20.0, name="hi"),
            MCTask(wcets=(4.0,), period=25.0, name="lo"),
        ],
        levels=3,
    )


class TestTasksetRoundTrip:
    def test_dict_round_trip(self, taskset):
        assert taskset_from_dict(taskset_to_dict(taskset)) == taskset

    def test_file_round_trip(self, taskset, tmp_path):
        path = tmp_path / "ts.json"
        save_taskset(taskset, path)
        assert load_taskset(path) == taskset

    def test_document_is_plain_json(self, taskset, tmp_path):
        path = tmp_path / "ts.json"
        save_taskset(taskset, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro-mc-taskset"
        assert doc["levels"] == 3
        assert doc["tasks"][0]["wcets"] == [2.0, 5.0]

    def test_wrong_format_rejected(self):
        with pytest.raises(ModelError, match="format"):
            taskset_from_dict({"format": "something-else"})

    def test_wrong_version_rejected(self, taskset):
        doc = taskset_to_dict(taskset)
        doc["version"] = 99
        with pytest.raises(ModelError, match="version"):
            taskset_from_dict(doc)

    def test_malformed_tasks_rejected(self, taskset):
        doc = taskset_to_dict(taskset)
        del doc["tasks"][0]["period"]
        with pytest.raises(ModelError, match="malformed"):
            taskset_from_dict(doc)

    def test_invalid_task_values_surface_model_errors(self, taskset):
        doc = taskset_to_dict(taskset)
        doc["tasks"][0]["wcets"] = [5.0, 2.0]  # decreasing
        with pytest.raises(ModelError):
            taskset_from_dict(doc)


class TestPartitionRoundTrip:
    def test_round_trip(self, taskset, tmp_path):
        part = Partition(taskset, cores=2)
        part.assign(0, 1)
        part.assign(1, 0)
        path = tmp_path / "part.json"
        save_partition(part, path)
        loaded = load_partition(path)
        assert loaded.cores == 2
        assert loaded.core_of(0) == 1
        assert loaded.core_of(1) == 0
        assert loaded.taskset == taskset

    def test_partial_partition_round_trip(self, taskset):
        part = Partition(taskset, cores=2)
        part.assign(0, 0)
        clone = partition_from_dict(partition_to_dict(part))
        assert clone.core_of(0) == 0
        assert clone.core_of(1) == -1

    def test_wrong_format_rejected(self, taskset):
        with pytest.raises(ModelError, match="format"):
            partition_from_dict(taskset_to_dict(taskset))

    @pytest.mark.parametrize("cores", ["x", "2", 2.7, 2.0, True, 0, -1, None])
    def test_cores_must_be_a_positive_int(self, taskset, cores):
        doc = partition_to_dict(Partition(taskset, cores=2))
        doc["cores"] = cores
        with pytest.raises(ModelError, match="cores must be a positive integer"):
            partition_from_dict(doc)

    def test_level_matrices_rebuilt(self, taskset):
        import numpy as np

        part = Partition(taskset, cores=2)
        part.assign(0, 0)
        part.assign(1, 0)
        clone = partition_from_dict(partition_to_dict(part))
        np.testing.assert_allclose(clone.level_matrix(0), part.level_matrix(0))


@pytest.fixture
def events():
    return (
        wcet_burst(10.0, 40.0, 2.5, tasks=(0, 1)),
        task_arrival(20.0, MCTask(wcets=(1.0, 2.0), period=15.0, name="late")),
        task_departure(50.0, task_index=1),
        core_failure(30.0, core=1),
        core_hotplug(80.0, core=1),
        mode_recovery(60.0, 90.0),
    )


class TestEventsRoundTrip:
    def test_dict_round_trip(self, events):
        clone = events_from_dict(events_to_dict(events))
        assert clone == events

    def test_file_round_trip(self, events, tmp_path):
        path = tmp_path / "events.json"
        save_events(events, path)
        assert load_events(path) == events

    def test_instantaneous_events_use_time_sugar(self, events):
        doc = events_to_dict(events)
        by_kind = {entry["kind"]: entry for entry in doc["events"]}
        assert by_kind["core_failure"] == {
            "kind": "core_failure",
            "time": 30.0,
            "core": 1,
        }
        assert "start" not in by_kind["task_arrival"]
        assert by_kind["wcet_burst"]["start"] == 10.0
        assert by_kind["wcet_burst"]["end"] == 40.0

    def test_time_sugar_accepted_on_load(self):
        doc = {
            "format": "repro-mc-events",
            "version": 1,
            "events": [{"kind": "task_departure", "time": 5.0, "task_index": 0}],
        }
        (event,) = events_from_dict(doc)
        assert event.start == event.end == 5.0

    def test_wrong_format_rejected(self, events):
        doc = events_to_dict(events)
        doc["format"] = "repro-mc-taskset"
        with pytest.raises(ModelError, match="not a repro-mc-events"):
            events_from_dict(doc)

    def test_wrong_version_rejected(self, events):
        doc = events_to_dict(events)
        doc["version"] = 99
        with pytest.raises(ModelError, match="unsupported version"):
            events_from_dict(doc)

    def test_non_list_events_rejected(self):
        doc = {"format": "repro-mc-events", "version": 1, "events": {}}
        with pytest.raises(ModelError, match="must be a list"):
            events_from_dict(doc)

    def test_malformed_entry_names_position(self, events):
        doc = events_to_dict(events)
        del doc["events"][2]["kind"]
        with pytest.raises(ModelError, match="malformed event #2"):
            events_from_dict(doc)

    def test_structurally_invalid_event_surfaces_sim_error(self, events):
        doc = events_to_dict(events)
        doc["events"][0]["factor"] = -1.0
        with pytest.raises(SimulationError, match="factor must be positive"):
            events_from_dict(doc)

    @pytest.mark.parametrize(
        "pos, field, value",
        [
            (0, "start", True),
            (0, "start", "10"),
            (0, "end", "5"),
            (0, "end", False),
            (0, "factor", "2.5"),
            (0, "factor", True),
            (2, "time", "50"),
            (2, "time", None),
        ],
    )
    def test_times_and_factors_must_be_real_numbers(self, events, pos, field, value):
        doc = events_to_dict(events)
        doc["events"][pos][field] = value
        message = f"event #{pos} {field} must be a real number, got {value!r}"
        with pytest.raises(ModelError, match=re.escape(message)):
            events_from_dict(doc)

    @pytest.mark.parametrize(
        "pos, field, value",
        [
            (2, "task_index", 2.7),
            (2, "task_index", True),
            (2, "task_index", "3"),
            (3, "core", 1.5),
            (3, "core", True),
            (0, "tasks", "01"),
            (0, "tasks", [0.9, 1.2]),
            (0, "tasks", [True]),
        ],
    )
    def test_ids_must_be_integers(self, events, pos, field, value):
        doc = events_to_dict(events)
        doc["events"][pos][field] = value
        kind = doc["events"][pos]["kind"]
        with pytest.raises(SimulationError, match=rf"^{kind} .*must be"):
            events_from_dict(doc)

    def test_numpy_integer_ids_pass(self):
        import numpy as np

        assert task_departure(5.0, np.int64(2)).task_index == 2
        assert core_failure(5.0, np.int32(1)).core == 1
        assert wcet_burst(0.0, 1.0, 2.0, tasks=np.arange(2)).tasks == (0, 1)

    def test_simulate_rejects_a_float_core_in_one_line(self, tmp_path, capsys):
        from pathlib import Path

        from repro import cli

        examples = Path(__file__).resolve().parents[2] / "examples"
        doc = json.loads((examples / "events_demo.json").read_text())
        failure = next(e for e in doc["events"] if e["kind"] == "core_failure")
        failure["core"] = 1.5
        path = tmp_path / "events.json"
        path.write_text(json.dumps(doc))
        argv = ["simulate", "--taskset", str(examples / "taskset_demo.json"),
                "--events", str(path)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            "repro-mc simulate: core_failure core must be an integer, got 1.5\n"
        )

    def test_simulate_rejects_a_bool_start_in_one_line(self, tmp_path, capsys):
        from pathlib import Path

        from repro import cli

        examples = Path(__file__).resolve().parents[2] / "examples"
        doc = json.loads((examples / "events_demo.json").read_text())
        doc["events"][0]["start"] = True
        path = tmp_path / "events.json"
        path.write_text(json.dumps(doc))
        argv = ["simulate", "--taskset", str(examples / "taskset_demo.json"),
                "--events", str(path)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            "repro-mc simulate: event #0 start must be a real number, got True\n"
        )

    def test_document_is_plain_json(self, events, tmp_path):
        path = tmp_path / "events.json"
        save_events(events, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro-mc-events"
        assert len(doc["events"]) == len(events)


LOADERS = [
    (load_taskset, "task set"),
    (load_partition, "partition"),
    (load_events, "event script"),
]


class TestLoadErrors:
    """Unreadable input files fail with one ModelError naming the path."""

    @pytest.mark.parametrize("load, what", LOADERS)
    def test_missing_file(self, load, what, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(ModelError, match=re.escape(f"cannot read {what} {path}: ")):
            load(path)

    @pytest.mark.parametrize("load, what", LOADERS)
    @pytest.mark.parametrize("text", ["{garbled", "[1, 2]", "\xff"])
    def test_garbled_file(self, load, what, text, tmp_path):
        path = tmp_path / "garbled.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ModelError, match=re.escape(f"cannot read {what} {path}: ")):
            load(path)
