"""Update operations, stream generators, batch coalescing and the lazy
stream protocol for dynamic graphs."""

from repro.updates.coalesce import CoalescedBatch, coalesce_batch
from repro.updates.operations import UpdateKind, UpdateOperation, apply_update, invert_update
from repro.updates.protocol import (
    EMPTY_FINGERPRINT,
    OperationStream,
    StreamCursor,
    chunked,
    decode_operation,
    encode_operation,
    stream_description,
    stream_length_hint,
)
from repro.updates.wire import (
    MAX_LINE_BYTES,
    decode_line,
    encode_line,
    operations_from_wire,
    operations_to_wire,
)
from repro.updates.streams import (
    UpdateStream,
    burst_stream,
    bursty_churn_stream,
    flash_crowd_stream,
    mixed_update_stream,
    random_edge_stream,
    random_vertex_stream,
    sliding_window_stream,
)

__all__ = [
    "UpdateKind",
    "UpdateOperation",
    "apply_update",
    "invert_update",
    "CoalescedBatch",
    "coalesce_batch",
    "OperationStream",
    "StreamCursor",
    "EMPTY_FINGERPRINT",
    "chunked",
    "encode_operation",
    "decode_operation",
    "stream_description",
    "stream_length_hint",
    "MAX_LINE_BYTES",
    "encode_line",
    "decode_line",
    "operations_to_wire",
    "operations_from_wire",
    "UpdateStream",
    "random_edge_stream",
    "random_vertex_stream",
    "mixed_update_stream",
    "sliding_window_stream",
    "burst_stream",
    "bursty_churn_stream",
    "flash_crowd_stream",
]
