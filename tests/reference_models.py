"""Plain reference models of the TCP stream buffers.

Each model keeps the buffer's semantics in the simplest storage — one
``bytearray`` for stream bytes, a ``dict`` for the reassembly stash —
and has the interface ``TcpEngine`` uses, so it can stand in for the
real buffer in a whole run (see the ``scalar_datapath`` fixture) as
well as be compared with it step by step in the property tests.
"""

from repro.errors import ResourceError


class SendBufferModel:
    """The reference send-buffer semantics: unacked bytes in one
    bytearray, appended on write, copied out on peek and trimmed from
    the front on a cumulative ACK."""

    def __init__(self, capacity=4 * 1024 * 1024):
        self.capacity = capacity
        self.data = bytearray()

    def __len__(self):
        return len(self.data)

    @property
    def free_space(self):
        return self.capacity - len(self.data)

    def write(self, data):
        take = min(len(data), self.free_space)
        self.data.extend(data[:take])
        return take

    def peek(self, offset, length):
        return bytes(self.data[offset:offset + length])

    def advance(self, acked):
        if not 0 <= acked <= len(self.data):
            raise ResourceError(f"bad ack advance: {acked}")
        del self.data[:acked]


class ReceiveBufferModel:
    """The reference reassembly semantics: ready bytes in one bytearray,
    out-of-order segments in a dict re-sorted on every purge, and the
    window recomputed from scratch on every query."""

    def __init__(self, capacity=4 * 1024 * 1024, initial_seq=0):
        self.capacity = capacity
        self.rcv_nxt = initial_seq
        self.ready = bytearray()
        self.stash = {}

    def __len__(self):
        return len(self.ready)

    @property
    def window(self):
        pending = len(self.ready) + sum(map(len, self.stash.values()))
        return max(0, self.capacity - pending)

    def deliver(self, seq, data):
        if not data or seq + len(data) <= self.rcv_nxt:
            return 0  # empty or entirely duplicate
        if seq < self.rcv_nxt:
            data = data[self.rcv_nxt - seq:]
            seq = self.rcv_nxt
        if seq > self.rcv_nxt:
            # Out of order: stash a copy if the window holds it.
            if len(data) <= self.window and seq not in self.stash:
                self.stash[seq] = bytes(data)
            return 0
        take = min(len(data), self.window)
        if take <= 0:
            return 0
        self.ready.extend(data[:take])
        self.rcv_nxt += take
        return take + self._drain()

    def _drain(self):
        drained = 0
        while True:
            self._purge()
            chunk = self.stash.pop(self.rcv_nxt, None)
            if chunk is None:
                return drained
            take = min(len(chunk), self.capacity - len(self.ready))
            if take <= 0:
                self.stash[self.rcv_nxt] = chunk  # window closed
                return drained
            self.ready.extend(chunk[:take])
            self.rcv_nxt += take
            drained += take
            if take < len(chunk):
                self.stash[self.rcv_nxt] = chunk[take:]
                return drained

    def _purge(self):
        """Drop or trim stashed segments the cursor has passed."""
        for seq in sorted(self.stash):
            if seq >= self.rcv_nxt:
                break
            chunk = self.stash.pop(seq)
            if seq + len(chunk) > self.rcv_nxt:
                trimmed = chunk[self.rcv_nxt - seq:]
                existing = self.stash.get(self.rcv_nxt)
                if existing is None or len(existing) < len(trimmed):
                    self.stash[self.rcv_nxt] = trimmed

    def read(self, max_bytes):
        data = bytes(self.ready[:max_bytes])
        del self.ready[:max_bytes]
        return data
