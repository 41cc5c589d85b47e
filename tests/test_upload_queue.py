"""Property test: the sim upload queue's running byte count.

:meth:`Connection.queued_upload_bytes` reads a total the queue keeps up
to date instead of summing the queue.  Under any mix of direct queue
edits and the connection's own transfer helpers it must equal the
recomputed sum, exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.protocol.metainfo import BlockRef

from tests.conftest import fast_config, tiny_swarm

blocks = st.builds(
    BlockRef, st.integers(0, 3), st.integers(0, 3).map(lambda i: i * 1024),
    st.integers(1, 1024),
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), blocks),
        st.tuples(st.just("extend"), st.lists(blocks, max_size=4)),
        st.tuples(st.just("advance"), st.floats(0.0, 3000.0)),
        st.tuples(st.just("cancel"), blocks),
        st.tuples(st.just("cancel_queued"), st.integers(0, 7)),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=40,
)


def _connection():
    swarm = tiny_swarm()
    a = swarm.add_peer(config=fast_config(), is_seed=True)
    b = swarm.add_peer(config=fast_config())
    return a.connections[b.address]


@settings(max_examples=150, deadline=None)
@given(operations)
def test_queued_upload_bytes_matches_the_recomputed_sum(steps):
    connection = _connection()
    queue = connection.upload_queue
    for name, argument in steps:
        if name == "append":
            queue.append(argument)
        elif name == "extend":
            queue.extend(iter(argument))
        elif name == "advance":
            connection.advance_upload(argument)
        elif name == "cancel":
            connection.cancel_queued_block(argument)
        elif name == "cancel_queued" and queue:
            # Cancel a block that is in the queue (the head included, so
            # the partial progress into it is dropped too).
            connection.cancel_queued_block(queue[argument % len(queue)])
        elif name == "clear":
            connection.clear_upload_queue()
        expected = sum(block.length for block in queue) - connection.upload_progress
        assert connection.queued_upload_bytes() == expected
