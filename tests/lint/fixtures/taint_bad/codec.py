"""Fixture codec: the decode entry points taint flows from."""


def decode(data):
    return ("frame", data)


def decode_frame(data):
    return decode(data)


class FrameDecoder:
    def __init__(self):
        self._buffer = b""

    def feed(self, data):
        self._buffer += data
        return [decode(self._buffer)]
