"""A speed probe of the machine, for scaling the benchmark's timings.

On a shared machine, speed drifts by a third or more within a minute, and
every timing of a run moves with it. Each timing is therefore scaled by
``REFERENCE_PROBE_S`` over the median time of this probe in the same process
and period: the figure reads as seconds on a machine where the probe takes
the reference time, and a change to the program moves it as it moves wall
time, because the probe never touches the program.
"""

from __future__ import annotations

import json
import random
import re
import statistics
import time

import gen

# Probe time on the machine the bounds were set on (2 shared x86-64 vCPUs,
# Python 3.11), so scaled timings read close to wall time there.
REFERENCE_PROBE_S = 0.012
PATTERNS = (r"\b(?:growth|model)\s+\w+", r"[A-Z][a-z]+", r"\w+\.", r"(?i)RESULTS?",
            r"\[\d+\]", r"©\s*\d{4}")


class SpeedProbe:
    """The machine's current speed, from fixed work that resembles the
    program's: regex scans, a word count in Python, and JSON lines decoded
    into small records. Each call adds one sample."""

    def __init__(self) -> None:
        rng = random.Random("probe")
        words = gen.VOCAB + ["Results.", "(Fig. 2)", "[12]", "© 2020"]
        self.text = " ".join(rng.choice(words) for _ in range(6000))
        self.lines = [
            json.dumps({"id": f"p{i}", "text": " ".join(rng.choices(words, k=40)),
                        "meta": {"year": 1995 + i % 30, "fields": ["Physics"]}})
            for i in range(600)
        ]
        self.patterns = [re.compile(p) for p in PATTERNS]
        self.samples: list[float] = []

    def __call__(self) -> None:
        started = time.perf_counter()
        for pattern in self.patterns:
            [m.span() for m in pattern.finditer(self.text)]
        counts: dict[str, int] = {}
        for word in self.text.split():
            counts[word] = counts.get(word, 0) + 1
        for line in self.lines:
            obj = json.loads(line)
            (obj["id"], obj["text"].strip(), tuple(sorted(obj["meta"].items())))
        self.samples.append(time.perf_counter() - started)

    def factor(self) -> float:
        """What to multiply a timing of this period by."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)

    def __str__(self) -> str:
        return f"probe median {statistics.median(self.samples) * 1e3:.3g} ms of {len(self.samples)}"
