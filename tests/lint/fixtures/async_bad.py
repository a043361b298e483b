"""Seeded async hazards: every DVS016-DVS018 shape in one file.

Linted with ``runtime_globs`` pointed at this file (see
FIXTURE_CONFIGS in test_rules.py).  Expected findings:

- DVS016 x3: ``time.sleep`` and ``subprocess.run`` inside ``resync``
  (sync, but reachable from the coroutine ``ack``), and
  ``fut.result()`` on a ``run_coroutine_threadsafe`` future awaited
  from inside a coroutine;
- DVS017 x1: ``ensure_future`` result dropped in ``kick``;
- DVS018 x1: ``install`` writes ``self.view`` on both sides of an
  ``await``.
"""

import asyncio
import subprocess
import time


class TornLayer:
    def __init__(self):
        self.view = None

    def resync(self):
        time.sleep(0.5)
        subprocess.run(["true"])

    async def ack(self, view):
        # Interprocedural: the blocking calls live two hops away.
        self.resync()

    async def install(self, view):
        self.view = ("installing", view)
        await self.ack(view)
        self.view = ("installed", view)

    def kick(self):
        asyncio.ensure_future(self.install(None))

    async def wait_remote(self, loop, coro):
        fut = asyncio.run_coroutine_threadsafe(coro, loop)
        return fut.result()
