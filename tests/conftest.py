import contextlib
import resource
import signal

import pytest


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
