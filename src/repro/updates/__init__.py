"""Update operations, stream generators, batch coalescing and the lazy
stream protocol for dynamic graphs."""

from repro._exports import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.updates.operations": ("UpdateKind", "UpdateOperation", "apply_update"),
        "repro.updates.coalesce": ("CoalescedBatch", "coalesce_batch"),
        "repro.updates.protocol": (
            "OperationStream",
            "StreamCursor",
            "EMPTY_FINGERPRINT",
            "chunked",
            "encode_operation",
            "decode_operation",
            "stream_description",
            "stream_length_hint",
        ),
        "repro.updates.wire": (
            "MAX_LINE_BYTES",
            "encode_line",
            "decode_line",
            "operations_to_wire",
            "operations_from_wire",
        ),
        "repro.updates.streams": (
            "UpdateStream",
            "mixed_update_stream",
            "sliding_window_stream",
            "burst_stream",
            "flash_crowd_stream",
        ),
    },
)
