"""CDR-style marshaling of Python values to bytes.

CORBA's Common Data Representation is an aligned, typed binary encoding.
This module implements a tagged, big-endian subset sufficient for the
reproduction: ``None``, booleans, integers, floats, strings, bytes, lists,
tuples, dicts with string keys, and frozensets.  The encoding is
deterministic (dict entries are sorted by key), which matters because
replicated servants must marshal identical replies.
"""

import struct

from repro.orb.exceptions import MarshalError

_TAG_NONE = 0
_TAG_TRUE = 1
_TAG_FALSE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_BYTES = 6
_TAG_LIST = 7
_TAG_TUPLE = 8
_TAG_DICT = 9
_TAG_FROZENSET = 10
_TAG_BIGINT = 11


class CdrEncoder:
    """Accumulates a CDR byte stream."""

    def __init__(self):
        self._parts = []

    def octet(self, value):
        self._parts.append(struct.pack(">B", value))
        return self

    def ulong(self, value):
        self._parts.append(struct.pack(">I", value))
        return self

    def longlong(self, value):
        self._parts.append(struct.pack(">q", value))
        return self

    def double(self, value):
        self._parts.append(struct.pack(">d", value))
        return self

    def raw(self, data):
        self._parts.append(bytes(data))
        return self

    def string(self, text):
        encoded = text.encode("utf-8")
        self.ulong(len(encoded))
        self._parts.append(encoded)
        return self

    def sequence(self, data):
        self.ulong(len(data))
        self._parts.append(bytes(data))
        return self

    def value(self, obj):
        """Encode one tagged value (recursive)."""
        if obj is None:
            self.octet(_TAG_NONE)
        elif obj is True:
            self.octet(_TAG_TRUE)
        elif obj is False:
            self.octet(_TAG_FALSE)
        elif isinstance(obj, int):
            if -(2 ** 63) <= obj < 2 ** 63:
                self.octet(_TAG_INT).longlong(obj)
            else:
                text = repr(obj)
                self.octet(_TAG_BIGINT).string(text)
        elif isinstance(obj, float):
            self.octet(_TAG_FLOAT).double(obj)
        elif isinstance(obj, str):
            self.octet(_TAG_STR).string(obj)
        elif isinstance(obj, (bytes, bytearray)):
            self.octet(_TAG_BYTES).sequence(obj)
        elif isinstance(obj, list):
            self.octet(_TAG_LIST).ulong(len(obj))
            for item in obj:
                self.value(item)
        elif isinstance(obj, tuple):
            self.octet(_TAG_TUPLE).ulong(len(obj))
            for item in obj:
                self.value(item)
        elif isinstance(obj, dict):
            keys = sorted(obj)
            if not all(isinstance(k, str) for k in keys):
                raise MarshalError("dict keys must be strings")
            self.octet(_TAG_DICT).ulong(len(keys))
            for key in keys:
                self.string(key)
                self.value(obj[key])
        elif isinstance(obj, frozenset):
            try:
                items = sorted(obj)
            except TypeError:
                raise MarshalError("frozenset items must be sortable") from None
            self.octet(_TAG_FROZENSET).ulong(len(items))
            for item in items:
                self.value(item)
        else:
            raise MarshalError("cannot marshal %r" % type(obj).__name__)
        return self

    def getvalue(self):
        return b"".join(self._parts)


class CdrDecoder:
    """Reads a CDR byte stream."""

    def __init__(self, data):
        # Zero-copy when handed a memoryview (the repro.wire framing layer
        # slices frame bodies out of a single received buffer); bytes and
        # bytearray are wrapped without copying either.
        if isinstance(data, memoryview):
            self._data = data
        elif isinstance(data, (bytes, bytearray)):
            self._data = memoryview(data)
        else:
            self._data = memoryview(bytes(data))
        self._pos = 0

    def _take(self, count):
        if self._pos + count > len(self._data):
            raise MarshalError("truncated CDR stream")
        chunk = self._data[self._pos:self._pos + count]
        self._pos += count
        return chunk

    def octet(self):
        return struct.unpack(">B", self._take(1))[0]

    def ulong(self):
        return struct.unpack(">I", self._take(4))[0]

    def longlong(self):
        return struct.unpack(">q", self._take(8))[0]

    def double(self):
        return struct.unpack(">d", self._take(8))[0]

    def string(self):
        length = self.ulong()
        return bytes(self._take(length)).decode("utf-8")

    def sequence(self):
        length = self.ulong()
        return bytes(self._take(length))

    def value(self):
        """Decode one tagged value (recursive)."""
        tag = self.octet()
        if tag == _TAG_NONE:
            return None
        if tag == _TAG_TRUE:
            return True
        if tag == _TAG_FALSE:
            return False
        if tag == _TAG_INT:
            return self.longlong()
        if tag == _TAG_BIGINT:
            return int(self.string())
        if tag == _TAG_FLOAT:
            return self.double()
        if tag == _TAG_STR:
            return self.string()
        if tag == _TAG_BYTES:
            return self.sequence()
        if tag == _TAG_LIST:
            return [self.value() for _ in range(self.ulong())]
        if tag == _TAG_TUPLE:
            return tuple(self.value() for _ in range(self.ulong()))
        if tag == _TAG_DICT:
            count = self.ulong()
            result = {}
            for _ in range(count):
                key = self.string()
                result[key] = self.value()
            return result
        if tag == _TAG_FROZENSET:
            return frozenset(self.value() for _ in range(self.ulong()))
        raise MarshalError("unknown CDR tag %d" % tag)

    def skip(self, count):
        """Advance past ``count`` bytes (e.g. frame padding) without copying."""
        self._take(count)
        return self

    def buffer(self):
        """``(view, offset)`` for codecs that parse fixed layouts in place
        with ``struct.unpack_from``; they report the new offset via
        :meth:`seek`."""
        return self._data, self._pos

    def seek(self, offset):
        """Move the read offset to ``offset`` (after an in-place parse)."""
        if offset > len(self._data):
            raise MarshalError("truncated CDR stream")
        self._pos = offset
        return self

    def rest(self):
        """The unread tail as a zero-copy memoryview; consumes the stream."""
        chunk = self._data[self._pos:]
        self._pos = len(self._data)
        return chunk

    def remaining(self):
        return len(self._data) - self._pos


def encode_value(obj):
    """Marshal one Python value to bytes."""
    return CdrEncoder().value(obj).getvalue()


def decode_value(data):
    """Demarshal bytes produced by :func:`encode_value`."""
    decoder = CdrDecoder(data)
    result = decoder.value()
    if decoder.remaining():
        raise MarshalError("%d trailing bytes after value" % decoder.remaining())
    return result
