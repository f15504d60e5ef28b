"""Wire protocol tests: value codec, framing, error and result frames."""

import datetime
import socket
import string
import threading
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.net.protocol as protocol
from repro.core.faults import BackendCrashedError, InjectedFaultError
from repro.core.request import RequestResult
from repro.errors import (
    AuthenticationError,
    DatabaseError,
    NoMoreBackendError,
    ProtocolError,
    SQLSyntaxError,
)
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    RESULT_CHUNK_ROWS,
    ConnectionClosed,
    FrameSocket,
    MessageType,
    decode_body,
    decode_error,
    decode_frame_payload,
    decode_value,
    encode_body,
    encode_error,
    encode_frame,
    encode_value,
    result_frames,
    result_from_frames,
)

# SQL values the request API can legitimately carry across the wire.
sql_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=40),
    st.datetimes(),
    st.dates(),
    st.times(),
    st.decimals(allow_nan=False, allow_infinity=False, places=6),
)
sql_values = st.recursive(
    sql_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(alphabet=string.printable, max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)
# ... plus the texts that sit next to the codec's tag: the tag itself, a
# tag-shaped mapping and strings ending in a quote and the tag character
tag_texts = st.sampled_from(["$", '"$', 'x"$', "$$", '"$"', "m", "v", "b"])
tagged_values = st.recursive(
    st.one_of(sql_scalars, tag_texts),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.one_of(tag_texts, st.text(max_size=4)), children, max_size=4),
    ),
    max_leaves=20,
)


def normalize(value):
    """Tuples arrive as lists; everything else must round-trip exactly."""
    if isinstance(value, tuple):
        return [normalize(item) for item in value]
    if isinstance(value, list):
        return [normalize(item) for item in value]
    if isinstance(value, dict):
        return {key: normalize(item) for key, item in value.items()}
    return value


class TestValueCodec:
    @given(value=sql_values)
    def test_round_trip_through_body(self, value):
        body = decode_body(encode_body({"v": value}))
        assert body["v"] == normalize(value)

    @given(body=st.dictionaries(st.one_of(tag_texts, st.text(max_size=6)), tagged_values))
    def test_bodies_next_to_the_tag_round_trip(self, body):
        assert decode_body(encode_body(body)) == normalize(body)

    def test_a_plain_body_is_one_encoder_call_and_no_walk(self, monkeypatch):
        encodes, walks = [], []
        encoder = protocol._ENCODER

        class CountingEncoder:
            def encode(self, document):
                encodes.append(document)
                return encoder.encode(document)

        def counting_decode_value(value):
            walks.append(value)
            return decode_value(value)

        monkeypatch.setattr(protocol, "_ENCODER", CountingEncoder())
        monkeypatch.setattr(protocol, "decode_value", counting_decode_value)
        monkeypatch.setattr(protocol, "encode_value", lambda value: walks.append(value))
        body = {"rows": [[1, "one", 2.5, None, True]] * 50, "more": False, "m": {"a": [1]}}
        assert decode_body(encode_body(body)) == body
        assert (len(encodes), walks) == (1, [])

    @pytest.mark.parametrize(
        "body",
        [{"v": b"\x00"}, {"v": Decimal("1.5")}, {"v": {"$": 1}}, {"v": "$"}, {"v": ['a"$']}],
    )
    def test_a_typed_or_tag_shaped_body_takes_the_walk(self, body):
        encoded = encode_body(body)
        assert b'"$"' in encoded
        assert decode_body(encoded) == body

    def test_scalar_types_preserved(self):
        moment = datetime.datetime(2004, 6, 27, 12, 30, 15, 250000)
        body = {
            "bytes": b"\x00\xffbinary",
            "dt": moment,
            "d": moment.date(),
            "t": moment.time(),
            "dec": Decimal("123.456"),
        }
        decoded = decode_body(encode_body(body))
        assert decoded == body
        for key in body:
            assert type(decoded[key]) is type(body[key])

    def test_mapping_keys_cannot_collide_with_tags(self):
        # a user mapping that *looks* like a tagged value must survive
        tricky = {"$": "b", "v": "not base64!"}
        assert decode_value(encode_value(tricky)) == tricky

    def test_unencodable_value_rejected(self):
        with pytest.raises(ProtocolError, match="cannot encode"):
            encode_value(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolError, match="unknown value tag"):
            decode_value({"$": "zz", "v": 1})


class TestFraming:
    @given(
        message_type=st.sampled_from(list(MessageType)),
        body=st.dictionaries(st.text(max_size=8), sql_scalars, max_size=5),
    )
    def test_frame_round_trip(self, message_type, body):
        frame = encode_frame(message_type, body)
        decoded_type, decoded_body = decode_frame_payload(frame[4:])
        assert decoded_type is message_type
        assert decoded_body == {key: normalize(value) for key, value in body.items()}

    def test_length_prefix_counts_type_byte_and_body(self):
        frame = encode_frame(MessageType.PING, {})
        length = int.from_bytes(frame[:4], "big")
        assert length == len(frame) - 4

    def test_empty_payload_rejected(self):
        with pytest.raises(ProtocolError, match="empty frame"):
            decode_frame_payload(b"")

    def test_unknown_type_byte_rejected(self):
        with pytest.raises(ProtocolError, match="unknown frame type"):
            decode_frame_payload(b"\x7f{}")

    def test_garbage_body_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_frame_payload(bytes([MessageType.PING]) + b"\xff\xfe")

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="must be a JSON object"):
            decode_body(b"[1,2]")

    @pytest.mark.parametrize("data", [b"", b"{}{}", b'{"a":1} ', b" {}"])
    def test_missing_or_trailing_data_rejected(self, data):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_body(data)

    def test_oversized_frame_rejected_on_encode(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(MessageType.EXECUTE, {"sql": "x" * (MAX_FRAME_BYTES + 1)})


class TestFrameSocket:
    def _pair(self):
        server, client = socket.socketpair()
        return FrameSocket(server), FrameSocket(client)

    def test_send_recv_accounting(self):
        left, right = self._pair()
        try:
            left.send(MessageType.EXECUTE, {"sql": "SELECT 1"})
            message_type, body = right.recv()
            assert message_type is MessageType.EXECUTE
            assert body == {"sql": "SELECT 1"}
            assert left.frames_out == 1 and right.frames_in == 1
            assert left.bytes_out == right.bytes_in > 0
        finally:
            left.close()
            right.close()

    def test_peer_close_raises_connection_closed(self):
        left, right = self._pair()
        left.close()
        with pytest.raises(ConnectionClosed):
            right.recv()
        right.close()

    def test_bad_length_prefix_rejected(self):
        left, right = self._pair()
        try:
            left.sock.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError, match="invalid frame length"):
                right.recv()
        finally:
            left.close()
            right.close()

    def test_idle_callback_not_fired_mid_frame(self):
        """A half-received frame waits for its remainder; idle fires only between frames."""
        left, right = self._pair()
        idle_calls = []
        try:
            right.sock.settimeout(0.05)
            frame = encode_frame(MessageType.PING, {})
            # send only half the frame, then the rest after a delay longer
            # than the poll timeout: the idle callback must never fire
            # because the frame has started
            left.sock.sendall(frame[:3])
            timer = threading.Timer(0.2, left.sock.sendall, args=(frame[3:],))
            timer.start()
            message_type, _body = right.recv(idle_callback=lambda: idle_calls.append(1))
            assert message_type is MessageType.PING
            assert idle_calls == []
            timer.join()
        finally:
            left.close()
            right.close()


class _ScriptedSocket:
    """A socket whose ``recv`` plays a script and whose ``sendall`` records.

    A script item is the bytes one ``recv`` returns, or ``None`` for a timeout.
    """

    def __init__(self, script=()):
        self.script = list(script)
        self.recv_calls = 0
        self.sent = []

    def recv(self, _count):
        self.recv_calls += 1
        if not self.script:
            return b""
        chunk = self.script.pop(0)
        if chunk is None:
            raise socket.timeout()
        return chunk

    def sendall(self, data):
        self.sent.append(bytes(data))

    def close(self):
        pass


class TestOneSegmentPerResponse:
    """A response is one ``sendall`` and one ``recv`` when it fits one row chunk."""

    def _result(self, rows):
        return RequestResult(
            columns=["id", "name"],
            rows=[(i, f"row{i}") for i in range(rows)],
            update_count=-1,
            backend_name="backend0",
            backends_executed=1,
        )

    def _decode_all(self, sent):
        reader = FrameSocket(_ScriptedSocket([b"".join(sent)]))
        frames = []
        with pytest.raises(ConnectionClosed):
            while True:
                frames.append(reader.recv())
        return frames, reader

    @pytest.mark.parametrize("rows", [0, 1, RESULT_CHUNK_ROWS])
    def test_result_that_fits_one_chunk_is_one_sendall(self, rows):
        frames = FrameSocket(_ScriptedSocket())
        result = self._result(rows)
        frames.send_frames(result_frames(result))
        assert len(frames.sock.sent) == 1 and frames.sends == 1
        expected = list(result_frames(result))
        assert frames.frames_out == len(expected)
        assert frames.bytes_out == len(frames.sock.sent[0])
        # frame for frame what separate sends put on the wire: same format, same bytes
        assert frames.sock.sent[0] == b"".join(encode_frame(t, b) for t, b in expected)

    def test_larger_result_streams_and_reassembles_identically(self):
        frames = FrameSocket(_ScriptedSocket())
        result = self._result(RESULT_CHUNK_ROWS + 1)
        frames.send_frames(result_frames(result))
        assert len(frames.sock.sent) > 1 and frames.sends == len(frames.sock.sent)
        decoded, reader = self._decode_all(frames.sock.sent)
        assert reader.sock.recv_calls == 2  # everything in one read, then end of stream
        assert [message_type for message_type, _body in decoded] == [
            MessageType.RESULT_HEADER, MessageType.RESULT_ROWS
        ]
        (_, header), (_, last) = decoded
        assert (len(header["rows"]), header["more"]) == (RESULT_CHUNK_ROWS, True)
        assert (len(last["rows"]), last["more"]) == (1, False)
        assert result_from_frames(header, iter([last["rows"]])).rows == result.rows
        assert reader.bytes_in == frames.bytes_out and reader.frames_in == frames.frames_out

    def test_frames_are_consumed_lazily(self):
        """A streamed result is never held whole: frames are pulled as they are sent."""
        sock = _ScriptedSocket()
        frames = FrameSocket(sock)
        pulled_when_first_sent = []

        def generate():
            for index in range(10):
                if sock.sent and not pulled_when_first_sent:
                    pulled_when_first_sent.append(index)
                yield MessageType.RESULT_ROWS, {"rows": [[index]]}

        frames.send_frames(generate())
        assert pulled_when_first_sent == [2]
        assert frames.frames_out == 10

    def test_each_segment_of_a_streamed_result_holds_one_row_chunk(self):
        frames = FrameSocket(_ScriptedSocket())
        frames.send_frames(result_frames(self._result(3 * RESULT_CHUNK_ROWS + 1)))
        segments = [self._decode_all([data])[0] for data in frames.sock.sent]
        kinds = [[message_type for message_type, _body in segment] for segment in segments]
        rows = MessageType.RESULT_ROWS
        assert kinds == [[MessageType.RESULT_HEADER], [rows], [rows], [rows]]

    def test_batching_follows_the_response_not_a_frame_count(self):
        """Frames added around one row chunk still leave in the same ``sendall``."""
        frames = FrameSocket(_ScriptedSocket())
        extra = [(MessageType.OK, {"n": n}) for n in range(3)]
        frames.send_frames(extra + list(result_frames(self._result(5))) + extra)
        assert len(frames.sock.sent) == 1 and frames.frames_out == 7

    def test_frame_split_across_three_recvs(self):
        frame = encode_frame(MessageType.EXECUTE, {"sql": "SELECT 1"})
        sock = _ScriptedSocket([frame[:2], frame[2:9], frame[9:]])
        assert FrameSocket(sock).recv() == (MessageType.EXECUTE, {"sql": "SELECT 1"})
        assert sock.recv_calls == 3

    def test_two_frames_in_one_recv(self):
        first = encode_frame(MessageType.OK, {"n": 1})
        second = encode_frame(MessageType.OK, {"n": 2})
        sock = _ScriptedSocket([first + second])
        frames = FrameSocket(sock)
        assert frames.recv() == (MessageType.OK, {"n": 1})
        assert frames.recv() == (MessageType.OK, {"n": 2})
        assert sock.recv_calls == 1
        assert frames.frames_in == 2 and frames.bytes_in == len(first + second)

    def test_idle_callback_only_fires_with_nothing_buffered(self):
        first = encode_frame(MessageType.OK, {"n": 1})
        second = encode_frame(MessageType.OK, {"n": 2})
        heartbeat = encode_frame(MessageType.HEARTBEAT, {})
        # idle / a whole frame plus the head of the next / timeout mid-frame /
        # its remainder / a heartbeat alone / idle again / the last frame
        sock = _ScriptedSocket(
            [None, first + second[:5], None, second[5:], heartbeat, None, first]
        )
        frames = FrameSocket(sock)
        idle_at = []

        def idle():
            idle_at.append(sock.recv_calls)

        assert frames.recv(idle_callback=idle) == (MessageType.OK, {"n": 1})
        assert idle_at == [1]
        assert frames.recv(idle_callback=idle) == (MessageType.OK, {"n": 2})
        assert idle_at == [1]  # the timeout at call 3 found five bytes pending
        assert frames.recv(idle_callback=idle) == (MessageType.OK, {"n": 1})
        assert idle_at == [1, 6] and frames.heartbeats_in == 1


class TestErrorFrames:
    @pytest.mark.parametrize(
        "error",
        [
            AuthenticationError("bad login"),
            NoMoreBackendError("no backends left"),
            SQLSyntaxError("no such table 'x'"),
            InjectedFaultError("injected"),
            BackendCrashedError("crashed"),
        ],
    )
    def test_typed_errors_round_trip(self, error):
        rebuilt = decode_error(decode_body(encode_body(encode_error(error))))
        assert type(rebuilt) is type(error)
        assert str(rebuilt) == str(error)

    def test_unknown_error_degrades_to_database_error(self):
        rebuilt = decode_error(encode_error(ValueError("surprise")))
        assert type(rebuilt) is DatabaseError
        assert "surprise" in str(rebuilt)

    def test_missing_fields_degrade_gracefully(self):
        assert type(decode_error({})) is DatabaseError


class TestResultFrames:
    def test_streams_header_then_chunks(self):
        result = RequestResult(
            columns=["id", "name"],
            rows=[(i, f"row{i}") for i in range(10)],
            update_count=-1,
            backend_name="backend0",
            backends_executed=1,
        )
        frames = list(result_frames(result, chunk_rows=3))
        types = [frame_type for frame_type, _ in frames]
        assert types == [MessageType.RESULT_HEADER] + [MessageType.RESULT_ROWS] * 3
        assert [len(body["rows"]) for _, body in frames] == [3, 3, 3, 1]
        assert [body["more"] for _, body in frames] == [True, True, True, False]

        header = frames[0][1]
        chunks = [body["rows"] for frame_type, body in frames[1:]]
        rebuilt = result_from_frames(header, iter(chunks))
        assert rebuilt.columns == result.columns
        assert rebuilt.rows == result.rows
        assert rebuilt.backend_name == "backend0"

    def test_empty_result_has_no_row_chunks(self):
        result = RequestResult(columns=[], rows=[], update_count=3)
        frames = list(result_frames(result))
        assert [frame_type for frame_type, _ in frames] == [MessageType.RESULT_HEADER]
        assert (frames[0][1]["rows"], frames[0][1]["more"]) == ([], False)
        rebuilt = result_from_frames(frames[0][1], iter([]))
        assert rebuilt.update_count == 3
        assert rebuilt.rows == []
