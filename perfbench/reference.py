"""Fixed reference program: measures how fast the host runs Python right now.

Usage: python3 -I perfbench/reference.py

It uses the standard library only and reads no file of the repository, so no
change to tracegen can alter its work. The harness runs it once per round,
next to the CLI, and scales every end-to-end time by how long it took (see
README.md, "Host speed"). Its work resembles the CLI's: interpreter start,
regular expressions over text, dictionary building, JSON round trips and
sorting.
"""

import json
import random
import re

REPEATS = 4

rng = random.Random(20240427)
words = ["".join(rng.choices("abcdefghijklmnop", k=rng.randint(3, 10))) for _ in range(4000)]
text = "\n".join(" ".join(rng.choices(words, k=12)) for _ in range(20000))
for _ in range(REPEATS):
    counts: dict[str, int] = {}
    for word in re.findall(r"\w+", text):
        counts[word] = counts.get(word, 0) + 1
    rows = [{"uid": f"E_{i:05d}", "words": line.split()[:4], "n": i}
            for i, line in enumerate(text.splitlines())]
    rows = json.loads(json.dumps(rows))
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
print(len(rows), ranked[0][0], len(ranked))
