"""Concurrency isolation of the context-scoped scheme tag.

Regression tests for a process-global-state bug the admission daemon
exposed: ``scheme_tag`` used to mutate singleton state, so two threads
(or two asyncio tasks) flipped each other's scheme attribution
mid-decision.  It now rides a :class:`contextvars.ContextVar` — each
context sees only its own tag, with the same context-manager API.
"""

import threading

from repro.obs.runtime import OBS, scheme_tag


def _interleave(worker_a, worker_b):
    """Run two workers in lockstep; re-raise the first failure."""
    barrier = threading.Barrier(2, timeout=10)
    errors = []

    def run(worker):
        try:
            worker(barrier.wait)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=run, args=(w,)) for w in (worker_a, worker_b)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    if errors:
        raise errors[0]


class TestSchemeTagIsolation:
    def test_two_threads_interleaved(self):
        def side(name):
            def worker(sync):
                assert OBS.scheme == ""
                with scheme_tag(name):
                    sync()
                    assert OBS.scheme == name
                    sync()
                sync()
                assert OBS.scheme == ""

            return worker

        _interleave(side("ca-tpa"), side("ffd"))

    def test_nested_tags_restore(self):
        with scheme_tag("outer"):
            with scheme_tag("inner"):
                assert OBS.scheme == "inner"
            assert OBS.scheme == "outer"
        assert OBS.scheme == ""
