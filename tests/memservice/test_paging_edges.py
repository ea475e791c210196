"""RemotePager edge cases: thrash, write-back ordering, partial last page."""

import pytest

from repro.memservice import RemotePager
from repro.sim import Environment

MiB = 1024**2


class SpyClient:
    """Stand-in DurableMemoryClient recording the operation order."""

    class _Service:
        def __init__(self, size_bytes):
            self.size_bytes = size_bytes

    def __init__(self, env, size_bytes):
        self.env = env
        self.service = self._Service(size_bytes)
        self.ops = []

    def _op(self, kind, offset, size):
        def run():
            self.ops.append((kind, offset, size))
            yield self.env.timeout(1e-3)
            return size

        return self.env.process(run())

    def read(self, offset, size):
        return self._op("read", offset, size)

    def write(self, offset, size):
        return self._op("write", offset, size)


def drive(env, generator):
    done = {}

    def wrapper():
        done["value"] = yield from generator
    env.process(wrapper())
    env.run()
    return done["value"]


def test_single_resident_page_thrashes_without_leaking_residency():
    env = Environment()
    client = SpyClient(env, 8 * MiB)
    pager = RemotePager(env, client, page_bytes=2 * MiB, resident_pages=1)

    def work():
        for page in (0, 1, 0, 1):
            hit = yield pager.touch(page)
            assert hit is False  # every access evicts the previous page
        hit = yield pager.touch(1)
        return hit

    assert drive(env, work()) is True  # the one resident page can still hit
    assert pager.faults == 4 and pager.hits == 1
    assert pager.resident_count == 1
    # Clean pages evict silently: reads only.
    assert all(kind == "read" for kind, _, _ in client.ops)


def test_dirty_victim_is_written_back_before_the_faulting_read():
    env = Environment()
    client = SpyClient(env, 8 * MiB)
    pager = RemotePager(env, client, page_bytes=2 * MiB, resident_pages=1)

    def work():
        yield pager.touch(0, dirty=True)
        yield pager.touch(1)  # evicts dirty page 0
        return True

    drive(env, work())
    assert pager.writebacks == 1
    assert client.ops == [
        ("read", 0, 2 * MiB),           # fault page 0 in
        ("write", 0, 2 * MiB),          # write dirty victim back first...
        ("read", 2 * MiB, 2 * MiB),     # ...then fault page 1 in
    ]


def test_dirtiness_is_sticky_until_writeback():
    env = Environment()
    client = SpyClient(env, 8 * MiB)
    pager = RemotePager(env, client, page_bytes=2 * MiB, resident_pages=2)

    def work():
        yield pager.touch(0, dirty=True)
        yield pager.touch(0, dirty=False)  # a clean re-touch must not launder
        flushed = yield pager.flush()
        return flushed

    assert drive(env, work()) == 1
    assert ("write", 0, 2 * MiB) in client.ops


def test_partial_trailing_page_is_not_addressable():
    env = Environment()
    # 5 MiB buffer / 2 MiB pages: only the two *full* pages are pageable.
    client = SpyClient(env, 5 * MiB)
    pager = RemotePager(env, client, page_bytes=2 * MiB, resident_pages=4)
    assert pager.total_pages == 2

    def work():
        yield pager.touch(0)
        yield pager.touch(1)
        return True

    drive(env, work())
    # The last full page ends at 4 MiB, inside the buffer.
    assert client.ops[-1] == ("read", 2 * MiB, 2 * MiB)
    with pytest.raises(ValueError):
        pager.touch(2)  # the 1 MiB tail is not a full page
    with pytest.raises(ValueError):
        pager.touch(-1)


def test_buffer_smaller_than_one_page_is_rejected():
    env = Environment()
    client = SpyClient(env, 1 * MiB)
    with pytest.raises(ValueError):
        RemotePager(env, client, page_bytes=2 * MiB)
    with pytest.raises(ValueError):
        RemotePager(env, SpyClient(env, 8 * MiB), page_bytes=0)
    with pytest.raises(ValueError):
        RemotePager(env, SpyClient(env, 8 * MiB), resident_pages=0)
