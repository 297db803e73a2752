"""A fixed amount of work that measures how fast the machine is right now.

The benchmark runs this file as a child process, the way it runs each
``canonpose`` command, right before that command. It does what a command
does, with no canonpose code: start an interpreter, import numpy, parse
NDJSON-like records into arrays and format floats back to text. On a
shared machine the speed of this work drifts by 20-40% over seconds to
minutes, and a command run next to it drifts with it, so a command's wall
time over the probe's is steady where the wall time alone is not.
"""

import json
import random

import numpy as np

rng = random.Random(0)
lines = [json.dumps({"frame": i, "joints": [[rng.uniform(-2.0, 2.0) for _ in range(3)] for _ in range(17)]})
         for i in range(200)]
out = []
for line in lines:
    record = json.loads(line)
    joints = np.asarray(record["joints"], dtype=float)
    joints = joints - joints[0]
    out.append(json.dumps({"frame": record["frame"], "joints": [[repr(float(v)) for v in row] for row in joints]}))
assert len(out) == len(lines)
