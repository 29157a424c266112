"""The live single-line progress meter for ``repro check --progress``.

One ``\\r``-repainted stderr line per snapshot - states, transitions,
throughput, frontier size and depth - finished with a
newline on close so the run summary starts clean.  Writes go to stderr
(stdout stays machine-consumable: ``--json`` output and the summary are
unpolluted), and repaints are rate-limited so a fast engine does not
turn the terminal into the bottleneck.
"""

import sys
import time

#: minimum seconds between repaints (snapshots can arrive far faster)
REFRESH_SECONDS = 0.1


def _count(value):
    """Humanize a count: 1234567 -> '1,234,567'."""
    return format(int(value), ",d")


class ProgressMeter:
    """Single-line live meter over telemetry snapshot dicts."""

    def __init__(self, label=None, stream=None, refresh=REFRESH_SECONDS):
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.refresh = refresh
        self._last_paint = 0.0
        self._last_width = 0
        self._painted = False

    def render(self, fields):
        """The meter line for one snapshot (no trailing newline)."""
        elapsed = fields.get("elapsed", 0.0)
        states = fields.get("states", 0)
        rate = states / elapsed if elapsed > 0 else 0.0
        parts = ["[%6.1fs]" % elapsed,
                 "%s states" % _count(states),
                 "%s trans" % _count(fields.get("transitions", 0)),
                 "%s st/s" % _count(rate)]
        if "frontier" in fields:
            parts.append("frontier %s" % _count(fields["frontier"]))
        if fields.get("depth") is not None:
            parts.append("depth %d" % fields["depth"])
        line = " | ".join(parts)
        if self.label:
            line = "%s: %s" % (self.label, line)
        return line

    def update(self, fields, force=False):
        now = time.monotonic()
        if not force and now - self._last_paint < self.refresh:
            return
        self._last_paint = now
        line = self.render(fields)
        # pad over the previous paint so a shrinking line leaves no tail
        padding = " " * max(0, self._last_width - len(line))
        self._last_width = len(line)
        self._painted = True
        try:
            self.stream.write("\r" + line + padding)
            self.stream.flush()
        except (OSError, ValueError):
            pass  # a closed/broken stderr must never kill the run

    def close(self):
        """Finish the meter line so subsequent output starts clean."""
        if not self._painted:
            return
        self._painted = False
        try:
            self.stream.write("\n")
            self.stream.flush()
        except (OSError, ValueError):
            pass
