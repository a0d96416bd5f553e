"""Index a corpus and look at one clip.

Without arguments this generates a small synthetic corpus first, so the demo
runs anywhere; point it at a real corpus root with

    python3 demos/01_scan_and_look.py /data/ravdess ravdess

Outputs land in ./demo_out/01: a manifest, per-class counts, and a
waveplot + spectrogram pair for the first angry clip.
"""

import os
import sys

from emorec.audio_io import load_clip, scan_dataset_detailed, write_manifest
from emorec.synth import generate_corpus
from emorec.viz import class_histogram, spectrogram_export, waveplot_export

out_dir = os.path.join("demo_out", "01")
os.makedirs(out_dir, exist_ok=True)

if len(sys.argv) >= 3:
    root, dataset = sys.argv[1], sys.argv[2]
else:
    root, dataset = os.path.join(out_dir, "synthetic_corpus"), "ravdess"
    generate_corpus(root, clips_per_class=4, seconds=1.0)
    print(f"no corpus given; generated a synthetic one under {root}")

records, skipped = scan_dataset_detailed(root, dataset)
if not records:
    sys.exit(f"no labeled .wav files under {root}")
print(f"{len(records)} clips under {root} ({dataset} naming), {len(skipped)} skipped")

counts = class_histogram(records, os.path.join(out_dir, "class_counts.csv"))
for emotion, count in counts.items():
    print(f"  {emotion:<9} {count}")

write_manifest(records, os.path.join(out_dir, "manifest.csv"))

angry = next(r for r in records if r.emotion == "angry")
clip = load_clip(angry.path, 16000)
print(f"looking at {os.path.basename(angry.path)}: "
      f"{clip.samples.shape[0]} samples at {clip.sample_rate_hz} Hz")

waveplot_export(clip, os.path.join(out_dir, "waveplot.csv"), max_points=2000)
pgm, csv_path = spectrogram_export(clip, None, os.path.join(out_dir, "spectrogram"))
print(f"wrote {out_dir}/waveplot.csv, {pgm} and {csv_path}")
print("open the .pgm in any image viewer; rows are frequency bins (DC at the bottom)")
