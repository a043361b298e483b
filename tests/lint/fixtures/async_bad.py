"""Seeded async hazard: the DVS018 shape.

Linted with ``runtime_globs`` pointed at this file (see
FIXTURE_CONFIGS in test_rules.py).  Expected finding:

- DVS018 x1: ``install`` writes ``self.view`` on both sides of an
  ``await``.
"""


class TornLayer:
    def __init__(self):
        self.view = None

    async def ack(self, view):
        return view

    async def install(self, view):
        self.view = ("installing", view)
        await self.ack(view)
        self.view = ("installed", view)
