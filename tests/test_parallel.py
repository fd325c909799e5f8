"""Cases spread over forked workers: the reports of one process, byte for
byte, and no process left behind on any path.

The ``forced_fork`` fixture (conftest.py) makes a run fork after its first
case; a run is kept in one process by an affinity mask of one CPU.
"""

import os
import time

import pytest

from gnsparse import gn as gn_module
from gnsparse import parallel
from gnsparse.cli import main
from gnsparse.errors import ConstructionError
from gnsparse.gn import run_corpus
from gnsparse.parallel import WorkerError, run_ordered, usable_cpus, workers_to_fork

from corpus import run_config


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_main(out, *argv):
    """(exit status, report bytes) of ``gnsparse argv... --out out``."""
    code = main([*argv, "--out", str(out)])
    assert_no_children()
    (report,) = out.iterdir()
    return code, report.read_bytes()


def run_alone_and_forked(monkeypatch, forked_pids, tmp_path, *argv):
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0})
        alone = run_main(tmp_path / "alone", *argv)
    assert not forked_pids
    forked = run_main(tmp_path / "forked", *argv)
    assert forked_pids
    return alone, forked


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("seed", [0, 7])
def test_default_reports_are_byte_identical_forked_or_not(tmp_path, monkeypatch, forced_fork, seed, fmt):
    alone, forked = run_alone_and_forked(
        monkeypatch, forced_fork, tmp_path, "--format", fmt, "--seed", str(seed)
    )
    assert alone[0] == 0
    assert forked == alone


def test_package_error_in_a_worker_is_the_verdict_of_one_process(tmp_path, monkeypatch, forced_fork):
    def refused(*args, **kwargs):
        raise ConstructionError("refused")

    monkeypatch.setattr(gn_module, "verify_pointwise_1d", refused)
    alone, forked = run_alone_and_forked(monkeypatch, forced_fork, tmp_path, "--format", "text")
    assert alone[0] == 1
    assert b"  error ConstructionError: refused\n" in alone[1]
    assert forked == alone


def test_bug_in_a_worker_exits_three_with_its_traceback(tmp_path, monkeypatch, capsys, forced_fork):
    parent = os.getpid()
    run_case = gn_module.run_case

    def bug_in_workers(case, *args):
        if os.getpid() != parent:
            raise ValueError(f"bug in a worker at {case.case_id()}")
        return run_case(case, *args)

    monkeypatch.setattr(gn_module, "run_case", bug_in_workers)
    assert main(["--out", str(tmp_path / "e")]) == 3
    assert_no_children()
    assert forced_fork
    err = capsys.readouterr().err
    assert "Traceback" in err and "in bug_in_workers" in err and "ValueError: bug in a worker at " in err
    assert "no report written" in err
    assert not (tmp_path / "e").exists()


class Item:
    def __init__(self, weight):
        self.weight = weight


def test_results_come_back_in_item_order_with_the_callers_items(forced_fork):
    # heaviest first in the queue; every result names its own item object
    def run(item):
        time.sleep(0.02)  # long enough for the worker to take some
        return item, os.getpid()

    items = [Item(w) for w in (1, 5, 2, 9, 9, 3, 7, 1)]
    results = run_ordered(run, items, lambda item: item.weight)
    assert_no_children()
    assert len(forced_fork) == 1
    assert all(result[0] is item for result, item in zip(results, items))
    assert {pid for _, pid in results} == {os.getpid(), *forced_fork}


def test_more_workers_than_cores_take_every_index_once(monkeypatch, forced_fork):
    # four processes take 2 ms items from one queue: an index read twice or
    # torn between two readers would repeat, lose or garble a result
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))

    def run(item):
        time.sleep(0.002)
        return item, os.getpid()

    results = run_ordered(run, range(300), lambda item: item % 7)
    assert len(forced_fork) == 3
    assert [item for item, _ in results] == list(range(300))
    assert {pid for _, pid in results} == {os.getpid(), *forced_fork}


def test_forked_results_hold_the_callers_cases(forced_fork):
    cases = run_config().cases[:6]
    results = run_corpus(cases, ("gn",))
    assert forced_fork
    assert all(result.case is case and result.report.case is case for result, case in zip(results, cases))


def test_exception_the_parent_cannot_rebuild_arrives_as_worker_traceback(forced_fork):
    class LocalError(Exception):  # a local class does not pickle
        pass

    parent = os.getpid()

    def run(item):
        if os.getpid() != parent:
            raise LocalError("raised in a worker")
        time.sleep(0.05)  # the worker takes a case meanwhile
        return item

    with pytest.raises(WorkerError, match="LocalError: raised in a worker"):
        run_ordered(run, range(6), lambda item: 1)
    assert forced_fork


def test_worker_that_dies_without_results_is_an_error(forced_fork):
    parent = os.getpid()

    def run(item):
        if os.getpid() != parent:
            os._exit(9)
        time.sleep(0.05)  # the worker takes a case meanwhile
        return item

    with pytest.raises(WorkerError, match="sent nothing"):
        run_ordered(run, range(6), lambda item: 1)
    assert forced_fork


def test_error_in_the_parent_kills_and_reaps_its_workers(forced_fork):
    parent = os.getpid()

    def run(item):
        if os.getpid() != parent:
            time.sleep(60)  # killed long before this ends
        elif item > 0:
            raise ValueError("bug in the parent")
        return item

    started = time.monotonic()
    with pytest.raises(ValueError, match="bug in the parent"):
        run_ordered(run, range(6), lambda item: 1)
    assert time.monotonic() - started < 30
    assert forced_fork


@pytest.mark.parametrize(
    "estimate, done, left, cpus, workers",
    [
        (0.9, 1, 26, 2, 0),  # under the break-even
        (1.1, 1, 26, 2, 1),  # one worker beside this process on two CPUs
        (1.1, 1, 26, 1, 0),  # one CPU
        (1.1, 3, 24, 8, 7),
        (1.1, 1, 3, 8, 2),  # one case each at most, this process's included
        (5.0, 1, 1, 8, 0),  # the last case runs here
    ],
)
def test_fork_decision(estimate, done, left, cpus, workers):
    # ``estimate`` is the mean case time times the cases left, in break-evens
    elapsed = estimate * parallel.BREAK_EVEN_S * done / left
    assert workers_to_fork(elapsed, done, left, cpus) == workers


def test_break_even_keeps_a_short_run_in_one_process():
    # measured after the first case on a 2-core x86 host: about 12 ms of
    # work left for orlicz-combined, which forking slows, and 100-130 ms for
    # the default suite, which it speeds; the constant clears both twice
    assert 2 * 0.012 <= parallel.BREAK_EVEN_S <= 0.100 / 2


def test_one_process_where_forking_is_unavailable_or_unsafe(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert usable_cpus() == 3
    with monkeypatch.context() as threads:
        threads.setattr(parallel.threading, "active_count", lambda: 2)
        assert usable_cpus() == 1
    with monkeypatch.context() as no_fork:
        no_fork.delattr(os, "fork")
        assert usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert usable_cpus() == 1
