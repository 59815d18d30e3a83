"""Tests for repro.hw.usb_packet."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.control.state_machine import RobotState
from repro.errors import PacketError
from repro.hw.usb_packet import (
    COMMAND_PACKET_SIZE,
    FEEDBACK_PACKET_SIZE,
    command_packet,
    decode_command_packet,
    decode_feedback_packet,
    encode_command_packet,
    encode_feedback_packet,
)


class TestCommandPackets:
    def test_size(self):
        data = encode_command_packet(RobotState.PEDAL_DOWN, True, [1, 2, 3])
        assert len(data) == COMMAND_PACKET_SIZE == 18

    def test_roundtrip(self):
        dac = [1200, -800, 32767, -32768, 0, 7, 100, -1]
        data = encode_command_packet(RobotState.PEDAL_DOWN, False, dac)
        packet = decode_command_packet(data)
        assert packet.dac_values == dac
        assert packet.state is RobotState.PEDAL_DOWN
        assert not packet.watchdog
        assert packet.checksum_ok

    def test_watchdog_bit_in_byte0(self):
        lo = encode_command_packet(RobotState.PEDAL_DOWN, False, [0])
        hi = encode_command_packet(RobotState.PEDAL_DOWN, True, [0])
        assert hi[0] == lo[0] | (1 << constants.USB_WATCHDOG_BIT)

    def test_state_nibble_in_byte0(self):
        for state in RobotState:
            data = encode_command_packet(state, False, [])
            assert data[0] == state.byte_value

    def test_short_channel_list_zero_filled(self):
        data = encode_command_packet(RobotState.INIT, False, [5])
        packet = decode_command_packet(data)
        assert packet.dac_values[1:] == [0] * 7

    def test_too_many_channels_rejected(self):
        with pytest.raises(PacketError):
            encode_command_packet(RobotState.INIT, False, list(range(9)))

    def test_out_of_range_dac_rejected(self):
        with pytest.raises(PacketError):
            encode_command_packet(RobotState.INIT, False, [40000])

    def test_wrong_length_rejected(self):
        with pytest.raises(PacketError):
            decode_command_packet(b"\x00" * 5)

    def test_corrupted_packet_decodes_with_bad_checksum(self):
        # The decoder reports, but does not enforce, integrity — the boards
        # execute corrupted packets (the paper's vulnerability).
        data = bytearray(encode_command_packet(RobotState.PEDAL_DOWN, True, [100]))
        data[2] ^= 0xFF
        packet = decode_command_packet(bytes(data))
        assert not packet.checksum_ok
        assert packet.dac_values[0] != 100


class TestFeedbackPackets:
    def test_size(self):
        data = encode_feedback_packet(RobotState.PEDAL_UP, True, [1, 2, 3])
        assert len(data) == FEEDBACK_PACKET_SIZE == 26

    def test_roundtrip(self):
        counts = [100000, -100000, 8388607, -8388608, 0, 1, -1, 42]
        data = encode_feedback_packet(RobotState.PEDAL_DOWN, True, counts)
        packet = decode_feedback_packet(data)
        assert packet.encoder_counts == counts
        assert packet.state is RobotState.PEDAL_DOWN
        assert packet.watchdog
        assert packet.checksum_ok

    def test_out_of_range_count_rejected(self):
        with pytest.raises(PacketError):
            encode_feedback_packet(RobotState.INIT, False, [1 << 23])

    def test_too_many_channels_rejected(self):
        with pytest.raises(PacketError):
            encode_feedback_packet(RobotState.INIT, False, [0] * 9)

    def test_wrong_length_rejected(self):
        with pytest.raises(PacketError):
            decode_feedback_packet(b"\x00" * COMMAND_PACKET_SIZE)

    def test_tampered_feedback_flagged(self):
        data = bytearray(encode_feedback_packet(RobotState.INIT, False, [5]))
        data[3] ^= 0x10
        assert not decode_feedback_packet(bytes(data)).checksum_ok


def _outcome(build):
    try:
        return build()
    except PacketError as exc:
        return ("PacketError", str(exc))


class TestDirectCommandPacket:
    """``command_packet`` is the encode/decode round trip without bytes."""

    @settings(max_examples=300, deadline=None)
    @given(
        state=st.sampled_from(list(RobotState)),
        watchdog=st.booleans(),
        dac=st.lists(
            st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1),
            max_size=constants.USB_NUM_CHANNELS,
        ),
    )
    def test_equals_the_round_trip(self, state, watchdog, dac):
        expected = decode_command_packet(encode_command_packet(state, watchdog, dac))
        assert command_packet(state, watchdog, dac) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        state=st.sampled_from(list(RobotState)),
        dac=st.lists(
            st.integers(min_value=-(1 << 17), max_value=1 << 17),
            max_size=constants.USB_NUM_CHANNELS + 2,
        ),
    )
    def test_raises_exactly_where_the_round_trip_does(self, state, dac):
        direct = _outcome(lambda: command_packet(state, True, dac))
        round_trip = _outcome(
            lambda: decode_command_packet(encode_command_packet(state, True, dac))
        )
        assert direct == round_trip
