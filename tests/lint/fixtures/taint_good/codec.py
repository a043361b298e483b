"""Fixture codec for the clean receive path (see taint_good/node.py)."""


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
