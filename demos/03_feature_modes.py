"""The three feature modes side by side.

Extracts mfcc (42 values), wavelet (20), and combined (60) vectors from two
synthetic clips of different classes, prints the schema layout, and shows
that the vectors actually separate the classes more than the takes.
"""

import numpy as np

from emorec.dsp.features import MODES, extract, mfcc_sequence
from emorec.synth import synth_clip

clips = {
    "neutral take 1": synth_clip(0, 1, seconds=1.0),
    "neutral take 2": synth_clip(0, 2, seconds=1.0),
    "angry take 1": synth_clip(4, 1, seconds=1.0),
}
# one MFCC pass per clip: extract derives every mode's row from the cepstra
rows = {name: extract(clip, MODES, mfcc_sequence(clip)) for name, clip in clips.items()}

for mode, (vec, schema) in rows["neutral take 1"].items():
    head = ", ".join(schema[:3])
    tail = ", ".join(schema[-2:])
    print(f"{mode:<9} D={len(schema):<3} [{head}, ..., {tail}]")

# schema layout: combined = mfcc schema + wavelet schema minus the shared
# zcr/rms scalars, which appear exactly once
s_m, s_w, s_c = (schema for _, schema in rows["angry take 1"].values())
assert s_c == s_m + s_w[:-2]
print(f"\ncombined keeps zcr/rms once: {len(s_m)} + {len(s_w)} - 2 = {len(s_c)}")

print("\ndistances between feature vectors (combined mode):")
vecs = {name: row["combined"][0] for name, row in rows.items()}
names = list(vecs)
for i, a in enumerate(names):
    for b in names[i + 1 :]:
        d = float(np.linalg.norm(vecs[a] - vecs[b]))
        print(f"  {a}  <->  {b}: {d:8.2f}")
print("same class sits closer than different classes — that gap is what the models learn")
