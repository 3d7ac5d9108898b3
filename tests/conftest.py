import contextlib
import resource
import signal

import pytest

from vlsc import trainer


@pytest.fixture()
def file_size_limit():
    """limit(n) is a context manager inside which a write past byte n
    of any file fails part-way with OSError, as on a full disk."""
    @contextlib.contextmanager
    def limit(n):
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (n, hard))
        try:
            yield
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
            signal.signal(signal.SIGXFSZ, handler)
    return limit


@pytest.fixture(autouse=True)
def end_scl_worker():
    """End the process's SCL worker after every test: a worker forked in
    one test holds that test's patches, a monkeypatched total_loss say,
    which must not reach a later test's steps."""
    yield
    trainer.end_worker()
