"""A check, a fork counter and three refusals shared by the tests of the
forked children of ``measure`` and of the ``verify`` suites that split
their instances (``pairs``, ``unary``, ``chain-cofinite``, ``bounds``); the
counter and each refusal take a ``MonkeyPatch``."""

import os
from contextlib import contextmanager

import pytest


@contextmanager
def leaves_nothing_behind():
    """No child process and no new file descriptor once the body is done."""
    fd_dir = "/proc/self/fd"
    before = len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if before is not None:
        assert len(os.listdir(fd_dir)) == before


def counting_forks(mp) -> list:
    """A list that gains one item at each ``os.fork``, which still forks."""
    forks, real_fork = [], os.fork
    mp.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    return forks


def _fork_fails(mp):
    def refuse():
        raise OSError("no fork today")

    mp.setattr(os, "fork", refuse)


def _pipe_fails(mp):
    def refuse():
        raise OSError("no pipe today")

    mp.setattr(os, "pipe", refuse)


def _no_fork(mp):
    mp.delattr(os, "fork")
