"""Must-flag / must-pass fixture for RL003 (future-escape).

A ``*_async`` future dropped on the spot, shelved in a name that is
never read, or handed back by a helper whose result meets either fate.
Never imported — repro-lint parses it as text.  ``# -> RLxxx`` markers
name the expected finding on that line.
"""


def fire_and_forget(mapping, payload):
    yield from mapping.write_async(0, payload)  # -> RL003
    mapping.faa_async(0, 1)                     # -> RL003


def batched(mapping, payload):
    # stored future: no finding
    fut = yield from mapping.write_async(0, payload)
    yield from fut.wait()


def local_shelved(client):
    fut = yield from client.read_async(0, 64)  # -> RL003
    return None


def _start_read(client):
    fut = yield from client.read_async(0, 64)
    return fut


def helper_discarded(client):
    _start_read(client)  # -> RL003
    yield from client.flush()


def helper_shelved(client):
    fut = _start_read(client)  # -> RL003
    yield from client.flush()


def _start_read_indirect(client):
    return _start_read(client)


def helper_shelved_deep(client):
    fut = _start_read_indirect(client)  # -> RL003
    yield from client.flush()


# must-pass: the future is waited
def consumed(client):
    fut = _start_read(client)
    return (yield from fut.wait())


# must-pass: a closure reading the future counts as consumption
def consumed_by_closure(client):
    fut = _start_read(client)

    def drain():
        return fut.result()

    return drain
