"""Fixed-size memo shared by the module-level caches.

Each memo holds at most the number of entries it was created with; storing
one more drops the entry used least recently.  The bound is a constant of the
module that owns the memo, not a setting.  A lock keeps lookups and
insertions consistent when several threads share the library.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


def read_only(v):
    """v, an array or a double-double pair, with its write flag cleared."""
    v.setflags(write=False)
    return v


class BoundedMemo:
    """Mapping of at most `maxsize` entries, least recently used out first."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        """The entry stored under `key`, or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key, entry):
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self):
        with self._lock:
            self._entries.clear()

    def __len__(self):
        return len(self._entries)
