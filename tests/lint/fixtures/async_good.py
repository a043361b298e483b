"""Clean counterpart of async_bad.py: the same shapes, done right.

Must stay fully clean under every pass.  The facade blocks only on
the *caller* thread (``fut.result`` / ``time.sleep`` in sync methods
never reached from a coroutine), tasks are retained and reaped, and
the torn write pair sits on one side of the ``await``.
"""

import asyncio
import threading
import time


class CleanFacade:
    def __init__(self):
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, daemon=True
        )
        self._tasks = set()
        self.view = None
        self.beats = 0

    def start(self):
        self._thread.start()

    def wait(self, timeout):
        # Blocking on the caller thread is the facade's whole point.
        fut = asyncio.run_coroutine_threadsafe(self._poll(), self._loop)
        return fut.result(timeout)

    def pause(self, seconds):
        time.sleep(seconds)

    async def _poll(self):
        task = asyncio.ensure_future(self._tick())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        await asyncio.sleep(0)

    async def _tick(self):
        await asyncio.sleep(0)
        self.view = ("installed", self.beats)
        self.beats = self.beats + 1
