"""The workup's two window consumers: checks inline, or in one forked child.

A forked child runs the same checks on the same windows as the inline
path, so the reports must be identical bit for bit, every failure must
reach the caller with its type and message, and no child may outlive the
workup.  Both consumers are forced through the ``consumer`` fixture.
"""

import os
import signal
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from dysonmap import (
    DivergenceError,
    IllConditionedError,
    TimeGrid,
    diagnostics,
    propagation,
    scenario_workup,
)
from dysonmap.propagation import MAP_WINDOW

from conftest import load_bundled, rebuild, tiny_scenario

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(params=["inline", "forked"])
def consumer(request, monkeypatch):
    """The way the workup feeds its checks, forced to each of the two."""
    chosen = getattr(diagnostics, f"_{request.param}")
    monkeypatch.setattr(diagnostics, "_window_consumer", lambda grid: chosen)
    return request.param


def small(name):
    """A bundled scenario at dim 12 and 2000 steps: 8 windows."""
    s = load_bundled(name)
    return rebuild(s, dim=12, grid=TimeGrid(s.grid.t0, s.grid.t1, 2000))


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _report(name, consumer, monkeypatch):
    monkeypatch.setattr(diagnostics, "_window_consumer", lambda grid: consumer)
    return scenario_workup(small(name))[0]


def assert_same(inline, forked):
    assert inline.series.keys() == forked.series.keys()
    for key, ser in inline.series.items():
        assert np.array_equal(ser.times, forked.series[key].times), key
        assert np.array_equal(ser.samples, forked.series[key].samples), key
    assert [c.name for c in inline.checks] == [c.name for c in forked.checks]
    for a, b in zip(inline.checks, forked.checks):
        assert (a.passed, a.tolerance, a.note) == (b.passed, b.tolerance, b.note), a.name
        assert np.array_equal(a.value, b.value, equal_nan=True), a.name
    assert inline.condition_max == forked.condition_max
    assert inline.tail_mass_max == forked.tail_mass_max


@pytest.mark.parametrize("name", ["s1", "gamma_drift"])
def test_both_consumers_give_identical_reports(name, monkeypatch):
    inline = _report(name, diagnostics._inline, monkeypatch)
    forked = _report(name, diagnostics._forked, monkeypatch)
    assert_no_child()
    assert_same(inline, forked)


def test_a_failed_fork_checks_in_process(monkeypatch):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    inline = _report("s1", diagnostics._inline, monkeypatch)
    monkeypatch.setattr(os, "fork", fork)
    assert_same(inline, _report("s1", diagnostics._forked, monkeypatch))


@pytest.mark.parametrize(
    "exc", [ValueError("stencil failed"), DivergenceError("stencil diverged", t=1.25)],
    ids=["ValueError", "DivergenceError"],
)
def test_a_check_failure_reaches_the_caller(exc, consumer, monkeypatch):
    def evaluate(self):  # zeros for the chunks of three windows, then exc
        for _ in range(3 * MAP_WINDOW // propagation.SAMPLE_CHUNK):
            sl, _, _ = yield
            for out in self.out.values():
                out[sl] = 0.0
        raise exc

    monkeypatch.setattr(diagnostics._StencilPass, "evaluate", evaluate)
    with pytest.raises(type(exc)) as ei:
        scenario_workup(small("s1"))
    assert str(ei.value) == str(exc)
    assert vars(ei.value) == vars(exc)
    assert_no_child()


def test_a_child_that_dies_is_reported_and_reaped(monkeypatch):
    def evaluate(self):  # only ever runs in the forked child
        os.kill(os.getpid(), signal.SIGKILL)
        yield

    monkeypatch.setattr(diagnostics._StencilPass, "evaluate", evaluate)
    with pytest.raises(RuntimeError, match="exited without a result"):
        _report("s1", diagnostics._forked, monkeypatch)
    assert_no_child()


def test_an_exception_that_does_not_pickle_comes_back_as_its_text(monkeypatch):
    class LocalError(Exception):  # a local class does not pickle
        pass

    def evaluate(self):
        raise LocalError("stencil failed")
        yield

    monkeypatch.setattr(diagnostics._StencilPass, "evaluate", evaluate)
    with pytest.raises(RuntimeError, match="^LocalError: stencil failed$"):
        _report("s1", diagnostics._forked, monkeypatch)
    assert_no_child()


def _failing_rcond(calls: int):
    """propagation._rcond_series, raising a DivergenceError on its calls-th call."""
    original, count = propagation._rcond_series, []

    def rcond_series(etas):
        count.append(None)
        if len(count) == calls:
            raise DivergenceError("non-finite values at t = 3", t=3.0)
        return original(etas)

    return rcond_series


def test_a_stepping_failure_reaches_the_caller(consumer, monkeypatch):
    monkeypatch.setattr(propagation, "_rcond_series", _failing_rcond(4))
    with pytest.raises(DivergenceError, match="non-finite values at t = 3"):
        scenario_workup(small("s1"))
    assert_no_child()


def test_an_earlier_windows_check_failure_comes_first(consumer, monkeypatch):
    # the checks of window 0 fail, and the stepping fails at window 2: inline
    # raises the first, so the forked consumer must not raise the second
    def evaluate(self):
        raise ValueError("stencil failed")
        yield

    monkeypatch.setattr(diagnostics._StencilPass, "evaluate", evaluate)
    monkeypatch.setattr(propagation, "_rcond_series", _failing_rcond(3))
    with pytest.raises(ValueError, match="stencil failed"):
        scenario_workup(small("s1"))
    assert_no_child()


def test_a_refusal_after_the_last_window_leaves_no_child(consumer, monkeypatch):
    monkeypatch.setattr(diagnostics, "MIN_RCOND", 0.5)
    with pytest.raises(IllConditionedError):
        scenario_workup(tiny_scenario())
    assert_no_child()


def _chosen(steps):
    return diagnostics._window_consumer(TimeGrid(0.0, 1.0, steps)).__name__


def test_the_choice_of_consumer(monkeypatch):
    forked = "_forked" if len(os.sched_getaffinity(0)) > 1 else "_inline"
    assert _chosen(MAP_WINDOW) == forked
    assert _chosen(MAP_WINDOW - 1) == "_inline"  # one window
    with ProcessPoolExecutor(max_workers=1) as pool:  # a sweep's pool worker
        assert pool.submit(_chosen, MAP_WINDOW).result() == "_inline"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _chosen(MAP_WINDOW) == "_inline"
    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert _chosen(MAP_WINDOW) == "_inline"


def _run_s1(out: Path, pin: bool):
    cpu = min(os.sched_getaffinity(0))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get(
        "PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "dysonmap.cli", "run", "s1", "--out", str(out)],
        capture_output=True, env=env,
        preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pin else None,
    )
    mask = str(out).encode()
    return proc.returncode, proc.stdout.replace(mask, b"OUT"), proc.stderr.replace(mask, b"OUT")


def test_run_s1_pinned_to_one_cpu_writes_the_same_bytes(tmp_path):
    spread, pinned = tmp_path / "spread", tmp_path / "pinned"
    assert _run_s1(spread, pin=False) == _run_s1(pinned, pin=True)
    names = sorted(p.name for p in spread.iterdir())
    assert names == sorted(p.name for p in pinned.iterdir())
    assert "series.csv" in names and "summary.json" in names
    for name in names:
        assert (spread / name).read_bytes() == (pinned / name).read_bytes(), name
