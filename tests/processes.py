"""A check and three refusals shared by the tests of the forked children of
``measure`` and of the ``verify`` suites that split their instances
(``pairs``, ``unary``, ``chain-cofinite``, ``bounds``); each refusal takes
a ``MonkeyPatch``."""

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
