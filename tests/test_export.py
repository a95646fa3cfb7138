"""`celestial sample` across forked workers: the bytes of one process, and its failure paths.

Small grids are cut into several chunks by lowering ``sampling.MIN_CHUNK``;
the reference is ``sampling.sample`` followed by ``write_csv``/``write_ply``.
"""

import marshal
import os
import random
import select
import signal
import threading

import pytest

from celestial import sampling, workers
from celestial.cli import main

_WAIT_S = 60  # a bound on every wait below, so a lost worker fails instead of hanging
_RESOLUTION = 12  # 144 grid nodes; spindle and horn skip some of them
_WRITERS = {"csv": sampling.write_csv, "ply": sampling.write_ply}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Three usable CPUs on any machine, and the list of the forks made; each still forks."""
    assert threading.active_count() == 1, "a live thread turns the workers off"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    made, fork = [], os.fork

    def counted():
        made.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made


def _projection_file(tmp_path, surface):
    rng = random.Random(surface)
    width = len(sampling.surface_quadrics(surface)[0]) - 1
    rows = [[rng.uniform(-2, 2) for _ in range(width)] for _ in range(3)]
    path = tmp_path / "proj.txt"
    path.write_text("".join(" ".join(map(repr, row)) + "\n" for row in rows))
    return str(path)


def _expected(tmp_path, surface, fmt, proj_path=None):
    """The reference file's bytes and the printed line of the one-process path."""
    projection = sampling.load_projection(proj_path) if proj_path else None
    cloud = sampling.sample(surface, _RESOLUTION, projection)
    path = tmp_path / f"want.{fmt}"
    _WRITERS[fmt](cloud, str(path))
    return path.read_bytes(), cloud


def _export(capsys, tmp_path, surface, fmt, proj_path=None):
    out = tmp_path / f"got.{fmt}"
    argv = ["sample", "--surface", surface, "--resolution", str(_RESOLUTION),
            "--out", str(out), "--format", fmt]
    code = main(argv + (["--proj", proj_path] if proj_path else []))
    captured = capsys.readouterr()
    return code, out, captured.out, captured.err


def _line(out, cloud):
    return (f"wrote {len(cloud.points)} points to {out} ({cloud.skipped} degenerate samples skipped, "
            f"max quadric residual {cloud.max_residual:.3e})\n")


@pytest.mark.parametrize("split", [False, True], ids=["one-chunk", "three-chunks"])
@pytest.mark.parametrize("proj", [False, True], ids=["default-proj", "proj"])
@pytest.mark.parametrize("fmt", ["csv", "ply"])
@pytest.mark.parametrize("surface", sampling.SURFACES)
def test_the_split_export_writes_the_bytes_of_one_process(
    monkeypatch, capsys, tmp_path, forks, surface, fmt, proj, split
):
    monkeypatch.setattr(sampling, "MIN_CHUNK", 7 if split else _RESOLUTION ** 2)
    proj_path = _projection_file(tmp_path, surface) if proj else None
    want, cloud = _expected(tmp_path, surface, fmt, proj_path)
    code, out, printed, err = _export(capsys, tmp_path, surface, fmt, proj_path)
    _assert_no_child_left()
    assert (code, err, printed) == (0, "", _line(out, cloud))
    assert out.read_bytes() == want
    assert len(forks) == (2 if split else 0)


def _kernel_that(monkeypatch, in_worker, in_parent=lambda: None):
    """Make every surface's kernel call ``in_worker()`` in a forked worker and ``in_parent()`` here."""
    parent, kernel = os.getpid(), sampling._kernel

    def wrapped(surface):
        def run(pts, proj):
            if os.getpid() == parent:
                in_parent()
            else:
                in_worker()
            return kernel(surface)(pts, proj)

        return run

    monkeypatch.setattr(sampling, "_kernel", wrapped)


@pytest.fixture
def handshake():
    """(took, wait): a worker calls ``took()`` once it has taken a chunk, and
    this process's first ``wait()`` returns once both workers have.

    Without it this process could drain the queue before a worker takes a
    chunk, and a test of a lost chunk would pass without losing one.
    """
    ready, took_fd = os.pipe()
    waited = []

    def took():
        os.write(took_fd, b"x")

    def wait():
        for _ in range(0 if waited else 2):
            assert select.select([ready], [], [], _WAIT_S)[0], "a worker never took a chunk"
            os.read(ready, 1)
        waited.append(True)

    yield took, wait
    os.close(ready)
    os.close(took_fd)


@pytest.mark.parametrize(
    "die",
    [lambda: os._exit(7), lambda: os.kill(os.getpid(), signal.SIGKILL)],
    ids=["exit", "signal"],
)
def test_a_chunk_whose_worker_dies_is_computed_here(monkeypatch, capsys, tmp_path, forks, handshake, die):
    took, wait = handshake
    monkeypatch.setattr(sampling, "MIN_CHUNK", 7)
    want, cloud = _expected(tmp_path, "dp6", "csv")
    _kernel_that(monkeypatch, lambda: (took(), die()), wait)
    code, out, printed, err = _export(capsys, tmp_path, "dp6", "csv")
    _assert_no_child_left()
    assert (code, err, printed) == (0, "", _line(out, cloud))
    assert out.read_bytes() == want
    assert len(forks) == 2


def test_a_chunk_cut_short_is_computed_here(monkeypatch, capsys, tmp_path, forks, handshake):
    # a worker that takes a chunk, sends part of its record and exits 0
    took, wait = handshake

    def work(queue, report, run):
        k = os.read(queue, 1)[0]
        os.write(report, marshal.dumps(k) + marshal.dumps((0.0, b"1,2,3\n" * 100))[:50])
        took()
        os._exit(0)

    monkeypatch.setattr(sampling, "MIN_CHUNK", 7)
    monkeypatch.setattr(workers, "_work", work)
    want, cloud = _expected(tmp_path, "ring", "ply")
    _kernel_that(monkeypatch, lambda: None, wait)
    code, out, printed, err = _export(capsys, tmp_path, "ring", "ply")
    _assert_no_child_left()
    assert (code, err, printed) == (0, "", _line(out, cloud))
    assert out.read_bytes() == want
    assert len(forks) == 2


def test_an_interrupted_parent_kills_its_workers(monkeypatch, capsys, tmp_path, forks):
    # each worker blocks in its kernel, and reports if it ever gets past that;
    # this process leaves on an interrupt once both workers are in their kernels
    block, keep_open = os.pipe()
    survived, survived_fd = os.pipe()
    started, started_fd = os.pipe()

    def in_worker():
        os.write(started_fd, b"x")
        select.select([block], [], [], _WAIT_S)
        os.write(survived_fd, b"x")

    def in_parent():
        for _ in range(2):
            assert select.select([started], [], [], _WAIT_S)[0], "a worker never started"
            os.read(started, 1)
        raise KeyboardInterrupt

    monkeypatch.setattr(sampling, "MIN_CHUNK", 7)
    _kernel_that(monkeypatch, in_worker, in_parent)
    try:
        with pytest.raises(KeyboardInterrupt):
            _export(capsys, tmp_path, "dp6", "csv")
    finally:
        for fd in (block, keep_open, survived_fd, started, started_fd):
            os.close(fd)
    _assert_no_child_left()
    try:
        assert os.read(survived, 1) == b"", "a worker outlived the interrupt"
    finally:
        os.close(survived)
    assert len(forks) == 2


def test_a_live_second_thread_means_no_fork(monkeypatch, capsys, tmp_path, forks):
    monkeypatch.setattr(sampling, "MIN_CHUNK", 7)
    want, cloud = _expected(tmp_path, "veronese", "csv")
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(_WAIT_S,))
    thread.start()
    try:
        code, out, printed, err = _export(capsys, tmp_path, "veronese", "csv")
    finally:
        release.set()
        thread.join(_WAIT_S)
    assert not thread.is_alive()
    _assert_no_child_left()
    assert (code, err, printed) == (0, "", _line(out, cloud))
    assert out.read_bytes() == want
    assert forks == []


def test_a_failing_fork_leaves_every_chunk_to_this_process(monkeypatch, capsys, tmp_path, forks):
    def fork():
        forks.append(os.getpid())
        raise OSError("no more processes")

    monkeypatch.setattr(sampling, "MIN_CHUNK", 7)
    monkeypatch.setattr(os, "fork", fork)
    want, cloud = _expected(tmp_path, "horn", "ply")
    code, out, printed, err = _export(capsys, tmp_path, "horn", "ply")
    _assert_no_child_left()
    assert (code, err, printed) == (0, "", _line(out, cloud))
    assert out.read_bytes() == want
    assert len(forks) == 1


def test_an_unwritable_out_exits_2_before_any_fork(monkeypatch, capsys, tmp_path, forks):
    monkeypatch.setattr(sampling, "MIN_CHUNK", 7)
    out = tmp_path / "missing" / "cloud.csv"
    code = main(["sample", "--surface", "dp6", "--resolution", str(_RESOLUTION), "--out", str(out)])
    captured = capsys.readouterr()
    _assert_no_child_left()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert forks == [] and not out.parent.exists()


@pytest.mark.parametrize("split", [False, True], ids=["one-chunk", "three-chunks"])
def test_a_residual_above_the_limit_exits_1_and_leaves_no_file(monkeypatch, capsys, tmp_path, forks, split):
    # a kernel that projects every point to the origin and reports a residual of 1e-6
    monkeypatch.setattr(sampling, "MIN_CHUNK", 7 if split else _RESOLUTION ** 2)
    def kernel(pts, proj):
        return [(0.0, 0.0, 0.0) for _ in pts], 1e-6

    monkeypatch.setattr(sampling, "_kernel", lambda surface: kernel)
    code, out, printed, err = _export(capsys, tmp_path, "ring", "csv")
    _assert_no_child_left()
    assert (code, printed) == (1, "")
    assert err == "error: max quadric residual 1.000e-06 of ring is not below 1e-09\n"
    assert not out.exists()
    assert len(forks) == (2 if split else 0)


@pytest.mark.parametrize("split", [False, True], ids=["one-chunk", "three-chunks"])
def test_an_error_while_writing_exits_2_and_leaves_no_file(monkeypatch, capsys, tmp_path, forks, split):
    # an OSError in this process's kernel, as a full disk would raise while
    # writing; each worker blocks in its kernel, so this process takes a chunk
    block, keep_open = os.pipe()

    def in_parent():
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(sampling, "MIN_CHUNK", 7 if split else _RESOLUTION ** 2)
    _kernel_that(monkeypatch, lambda: select.select([block], [], [], _WAIT_S), in_parent)
    try:
        code, out, printed, err = _export(capsys, tmp_path, "dp6", "csv")
    finally:
        os.close(block)
        os.close(keep_open)
    _assert_no_child_left()
    assert (code, printed) == (2, "")
    assert err == "error: [Errno 28] No space left on device\n"
    assert not out.exists()
    assert len(forks) == (2 if split else 0)
