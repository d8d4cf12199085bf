"""The recovery contract's outcome stream.

A checkpoint holds live state only, so a recovered service no longer
carries the responses it gave before the crash.  The contract is
*recovered state + replayed outcomes == never-crashed*: the responses
the crashed run returned through the restored snapshot's seq, followed
by the responses of the journal-tail replay
(``RecoveryInfo.responses``), must equal what an uninterrupted run
returned for the same journaled trips.
"""

from repro.core import ServiceResponse


def responses_of(outcomes):
    """The journaled answers in an outcome list, in journal order.

    Screened duplicates (``None``) and degraded or deferred decisions
    are never journaled, so they are dropped.
    """
    return [o for o in outcomes if isinstance(o, ServiceResponse)]


def recovered_outcomes(before, recovered):
    """The outcome stream a recovered :class:`CheckpointingService`
    stands for.

    Args:
        before: everything the crashed run returned before it died.
        recovered: the service rebuilt by ``recover()``.
    """
    info = recovered.last_recovery
    return responses_of(before)[: info.snapshot_seq] + list(info.responses)
