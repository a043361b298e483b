"""Clean counterpart of async_bad.py: the same shape, done right.

Must stay fully clean under every pass.  The write pair sits on one
side of the ``await``, and a write in ``finally`` restores state
instead of tearing it.
"""

import asyncio


class CleanLayer:
    def __init__(self):
        self.view = None
        self.beats = 0

    async def tick(self):
        await asyncio.sleep(0)
        self.view = ("installed", self.beats)
        self.beats = self.beats + 1

    async def install(self, view):
        self.view = ("installing", view)
        try:
            await asyncio.sleep(0)
        finally:
            self.view = ("installed", view)
