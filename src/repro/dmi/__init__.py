"""DMI channel model: frames, CRC, scrambling, links, handshake, training."""

from .._lazy import lazy_exports

#: public name -> submodule imported on first access (PEP 562)
_EXPORTS = {
    "BufferCommandLayer": ".channel",
    "BundleScrambler": ".scrambler",
    "Command": ".commands",
    "CommandHeader": ".frames",
    "DEFAULT_HOST_MAX_FRTL_PS": ".training",
    "DOWN_DATA_CHUNK": ".frames",
    "DOWN_LANES": ".frames",
    "DOWN_WIRE_BYTES": ".frames",
    "DataChunk": ".frames",
    "DmiChannel": ".channel",
    "DoneNotice": ".frames",
    "DownstreamFrame": ".frames",
    "EndpointConfig": ".channel",
    "FRAME_UI": ".frames",
    "FrameEndpoint": ".channel",
    "HostCommandLayer": ".channel",
    "LaneScrambler": ".scrambler",
    "LinkErrorModel": ".link",
    "LinkTrainer": ".training",
    "NUM_TAGS": ".tags",
    "Opcode": ".commands",
    "ReplayBuffer": ".replay",
    "Response": ".commands",
    "SEQ_MOD": ".frames",
    "SerialLink": ".link",
    "TagPool": ".tags",
    "TrainingConfig": ".training",
    "TrainingFrame": ".frames",
    "TrainingResult": ".training",
    "UP_DATA_CHUNK": ".frames",
    "UP_LANES": ".frames",
    "UP_WIRE_BYTES": ".frames",
    "UpstreamFrame": ".frames",
    "append_crc": ".crc",
    "check_crc": ".crc",
    "crc16": ".crc",
    "next_seq": ".frames",
    "seq_distance": ".frames",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
