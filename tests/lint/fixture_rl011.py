"""Must-flag / must-pass fixture for RL011 (exception-flow).

A retry loop whose broad handler swallows everything traps Fatal
errors — deterministic failures that retrying cannot fix.  The class
names matter, not the import: the rule keys off the ``FatalError``
base by name.  The loops are bounded, so RL005 has nothing to say:
swallowing a fatal is wrong however few times it is retried.
"""


class FatalError(Exception):
    pass


class RecoverableError(Exception):
    pass


class QuotaError(FatalError):
    pass


def _charge(meter):
    if meter.spent():
        raise QuotaError("over quota")
    return meter.debit()


def retry_forever(meter):
    while not meter.expired():
        try:
            return _charge(meter)
        except Exception:  # -> RL011
            continue


def retry_bare(meter):
    while not meter.expired():
        try:
            return meter.debit()
        except:  # -> RL011
            continue


# must-pass: a narrow handler lets fatals propagate
def retry_recoverable(meter):
    while not meter.expired():
        try:
            return _charge(meter)
        except RecoverableError:
            continue


# must-pass: broad, but re-raises the deterministic failures
def retry_filtering(meter):
    while not meter.expired():
        try:
            return _charge(meter)
        except Exception as exc:
            if isinstance(exc, FatalError):
                raise
            continue
