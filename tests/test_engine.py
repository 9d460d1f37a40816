"""The unit engine with a path of its own: a work function and an outcome class that
have nothing to do with the kernel, run in-process and forked."""

import dataclasses
import math
import os

import pytest

import circhad.searchengine as engine
from circhad import FormatError, SearchConfig

UNITS = 8


@dataclasses.dataclass
class Square:
    root: int
    square: int

    def fields(self) -> str:
        return f"root={self.root} square={self.square}"

    @classmethod
    def parse(cls, text: str) -> "Square":
        root, square = (part.partition("=")[2] for part in text.split())
        outcome = cls(int(root), int(square))
        if outcome.fields() != text or outcome.square != outcome.root ** 2:
            raise ValueError(f"not a square line: {text}")
        return outcome


class Stop(Exception):
    pass


def squares(units, stop_at=None):
    for unit in units:
        if unit == stop_at:
            raise Stop(unit)
        yield unit, Square(unit, unit * unit)


EXPECTED = {unit: Square(unit, unit * unit) for unit in range(UNITS)}
# FORK_ABOVE_ROWS values that send every 2-worker run with 2 or more units pending down one path
PATHS = {"forked": -1, "in-process": math.inf}


@pytest.fixture(params=list(PATHS))
def each_path(request, monkeypatch):
    """Runs the test on one path, and checks that it forked only on the forked one."""
    fork_above = PATHS[request.param]
    monkeypatch.setattr(engine, "FORK_ABOVE_ROWS", fork_above)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    made = []
    real_fork = os.fork

    def counting_fork():
        made.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    yield
    assert bool(made) == (fork_above < 0)


def run(path, work=squares, units=UNITS):
    config = SearchConfig(order=4, workers=2, checkpoint_path=path)
    return engine._run_units(units, work, len, Square.parse, config, "0123456789ab")


def line(unit):
    body = f"prefix=0x{unit:x} root={unit} square={unit * unit}"
    return f"{body} crc={engine._crc(body)}\n"


HEADER = "# circhad-checkpoint v3 fingerprint=0123456789ab order=4\n"
WHOLE = HEADER + "".join(line(unit) for unit in range(UNITS))


def test_results_arrive_in_unit_order(tmp_path, each_path):
    path = tmp_path / "units.ckpt"
    done = run(path)
    assert list(done.items()) == list(EXPECTED.items())
    assert path.read_text() == WHOLE
    assert run(None) == EXPECTED


def test_resume_from_half_appends_only_the_missing_units(tmp_path, each_path):
    path = tmp_path / "units.ckpt"
    kept = [line(unit) for unit in range(1, UNITS, 2)]
    path.write_text(HEADER + "".join(kept))
    assert run(path) == EXPECTED
    assert path.read_text() == HEADER + "".join(kept + [line(unit) for unit in range(0, UNITS, 2)])


def test_torn_last_line_is_run_again(tmp_path, each_path):
    path = tmp_path / "units.ckpt"
    head, last = HEADER + "".join(line(unit) for unit in range(4)), line(4)
    for tail in (last[:9], last[:-1], last[: last.index(" crc=")] + "\n", last.replace("=16", "=17")):
        path.write_text(head + tail)
        assert run(path) == EXPECTED, tail
        assert path.read_text() == WHOLE, tail
    # the same damage on an earlier line is refused, and so is a unit out of range
    for bad in (last.replace("=16", "=17"), line(UNITS)):
        path.write_text(head + bad + line(5))
        with pytest.raises(FormatError):
            run(path)


def test_exception_in_the_work_leaves_the_finished_units_in_the_file(tmp_path, each_path):
    path = tmp_path / "units.ckpt"
    with pytest.raises(Stop):
        run(path, lambda units: squares(units, stop_at=5))
    assert path.read_text() == WHOLE[: WHOLE.index("prefix=0x5 ")]
    assert run(path) == EXPECTED
    assert path.read_text() == WHOLE


def test_no_work_is_asked_for_when_no_unit_is_pending(tmp_path):
    def refuses(units):
        raise AssertionError(f"work asked for {units}")

    path = tmp_path / "units.ckpt"
    assert run(path, refuses, units=0) == {}
    assert path.read_text() == HEADER
    path.write_text(WHOLE)
    assert run(path, refuses) == EXPECTED
