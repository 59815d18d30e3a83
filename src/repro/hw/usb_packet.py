"""USB packet formats between the control software and the USB I/O boards.

Command packets (software -> board), 18 bytes, as in Figure 5 of the paper:

    Byte 0      operational-state nibble | watchdog square wave in bit 4
    Bytes 1-16  eight 16-bit big-endian signed DAC commands
    Byte 17     additive checksum of bytes 0-16

Feedback packets (board -> software), 26 bytes:

    Byte 0      state echo | watchdog echo (bit 4)
    Bytes 1-24  eight 24-bit big-endian signed encoder counts
    Byte 25     additive checksum of bytes 0-24

The checksum exists but the USB board never verifies it on received
command packets — the integrity gap the paper's scenario-B attack rides
through.  The *decoder* reports checksum validity so honest parties (and
the detector) may check it, while the board deliberately ignores it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro import constants
from repro.control.state_machine import RobotState
from repro.errors import PacketError

#: Size of a command packet (bytes).
COMMAND_PACKET_SIZE = constants.USB_PACKET_SIZE

#: Size of a feedback packet (bytes).
FEEDBACK_PACKET_SIZE = 26

_INT16_MIN, _INT16_MAX = -(1 << 15), (1 << 15) - 1
_INT24_MIN, _INT24_MAX = -(1 << 23), (1 << 23) - 1


def _checksum(data: bytes) -> int:
    return sum(data) & 0xFF


def _state_byte(state: RobotState, watchdog: bool) -> int:
    value = state.byte_value
    if watchdog:
        value |= 1 << constants.USB_WATCHDOG_BIT
    return value


@dataclass(frozen=True)
class CommandPacket:
    """Decoded command packet."""

    raw_state_byte: int
    state: RobotState
    watchdog: bool
    dac_values: List[int]
    checksum_ok: bool


@dataclass(frozen=True)
class FeedbackPacket:
    """Decoded feedback packet."""

    raw_state_byte: int
    state: RobotState
    watchdog: bool
    encoder_counts: List[int]
    checksum_ok: bool


def check_dac_values(dac_values: Sequence[int]) -> List[int]:
    """The DAC channels as ints, checked against the packet format.

    Raises
    ------
    PacketError
        If there are more than 8 channels or a value does not fit in a
        signed 16-bit field.
    """
    if len(dac_values) > constants.USB_NUM_CHANNELS:
        raise PacketError(f"at most {constants.USB_NUM_CHANNELS} DAC channels")
    values = []
    for value in dac_values:
        value = int(value)
        if not (_INT16_MIN <= value <= _INT16_MAX):
            raise PacketError(f"DAC value {value} out of int16 range")
        values.append(value)
    return values


def command_packet(
    state: RobotState, watchdog: bool, dac_values: Sequence[int]
) -> CommandPacket:
    """The packet ``decode_command_packet(encode_command_packet(...))``
    returns for the same arguments, built without the byte round trip.

    Raises :class:`PacketError` exactly where :func:`encode_command_packet`
    does.
    """
    values = check_dac_values(dac_values)
    values.extend([0] * (constants.USB_NUM_CHANNELS - len(values)))
    return CommandPacket(
        raw_state_byte=_state_byte(state, watchdog),
        state=state,
        watchdog=bool(watchdog),
        dac_values=values,
        checksum_ok=True,
    )


def encode_command_packet(
    state: RobotState, watchdog: bool, dac_values: Sequence[int]
) -> bytes:
    """Encode a command packet.

    ``dac_values`` may have up to 8 channels; missing channels are zero.

    Raises
    ------
    PacketError
        If a DAC value does not fit in a signed 16-bit field.
    """
    values = check_dac_values(dac_values)
    payload = bytearray(COMMAND_PACKET_SIZE)
    payload[constants.USB_STATE_BYTE] = _state_byte(state, watchdog)
    for channel, value in enumerate(values):
        offset = constants.USB_DAC_OFFSET + 2 * channel
        payload[offset : offset + 2] = value.to_bytes(2, "big", signed=True)
    payload[constants.USB_CHECKSUM_OFFSET] = _checksum(
        bytes(payload[: constants.USB_CHECKSUM_OFFSET])
    )
    return bytes(payload)


def decode_command_packet(data: bytes) -> CommandPacket:
    """Decode a command packet (reports, but does not enforce, the checksum)."""
    if len(data) != COMMAND_PACKET_SIZE:
        raise PacketError(
            f"command packet must be {COMMAND_PACKET_SIZE} bytes, got {len(data)}"
        )
    raw_state = data[constants.USB_STATE_BYTE]
    state = RobotState.from_byte(raw_state)
    watchdog = bool(raw_state & (1 << constants.USB_WATCHDOG_BIT))
    dac_values = []
    for channel in range(constants.USB_NUM_CHANNELS):
        offset = constants.USB_DAC_OFFSET + 2 * channel
        dac_values.append(int.from_bytes(data[offset : offset + 2], "big", signed=True))
    checksum_ok = data[constants.USB_CHECKSUM_OFFSET] == _checksum(
        data[: constants.USB_CHECKSUM_OFFSET]
    )
    return CommandPacket(
        raw_state_byte=raw_state,
        state=state,
        watchdog=watchdog,
        dac_values=dac_values,
        checksum_ok=checksum_ok,
    )


def encode_feedback_packet(
    state: RobotState, watchdog: bool, encoder_counts: Sequence[int]
) -> bytes:
    """Encode a feedback packet with up to 8 encoder channels."""
    if len(encoder_counts) > constants.USB_NUM_CHANNELS:
        raise PacketError(f"at most {constants.USB_NUM_CHANNELS} encoder channels")
    payload = bytearray(FEEDBACK_PACKET_SIZE)
    payload[0] = _state_byte(state, watchdog)
    for channel, value in enumerate(encoder_counts):
        value = int(value)
        if not (_INT24_MIN <= value <= _INT24_MAX):
            raise PacketError(f"encoder count {value} out of int24 range")
        offset = 1 + 3 * channel
        payload[offset : offset + 3] = value.to_bytes(3, "big", signed=True)
    payload[FEEDBACK_PACKET_SIZE - 1] = _checksum(
        bytes(payload[: FEEDBACK_PACKET_SIZE - 1])
    )
    return bytes(payload)


def decode_feedback_packet(data: bytes) -> FeedbackPacket:
    """Decode a feedback packet."""
    if len(data) != FEEDBACK_PACKET_SIZE:
        raise PacketError(
            f"feedback packet must be {FEEDBACK_PACKET_SIZE} bytes, got {len(data)}"
        )
    raw_state = data[0]
    state = RobotState.from_byte(raw_state)
    watchdog = bool(raw_state & (1 << constants.USB_WATCHDOG_BIT))
    counts = []
    for channel in range(constants.USB_NUM_CHANNELS):
        offset = 1 + 3 * channel
        counts.append(int.from_bytes(data[offset : offset + 3], "big", signed=True))
    checksum_ok = data[FEEDBACK_PACKET_SIZE - 1] == _checksum(
        data[: FEEDBACK_PACKET_SIZE - 1]
    )
    return FeedbackPacket(
        raw_state_byte=raw_state,
        state=state,
        watchdog=watchdog,
        encoder_counts=counts,
        checksum_ok=checksum_ok,
    )
