#!/usr/bin/env bash
#===- learn_memory.sh - Peak memory of `uspec learn` on 20k programs -----===#
#
# Part of the USpec reproduction (PLDI 2019). MIT license.
#
# The learner's memory bounds the corpus one machine can learn from
# (DESIGN.md §8). This check generates the 20k-program Java corpus
# (`gen --profile java -n 20000 --seed 601`), runs `learn --threads 1` over
# it, and fails if the learner's peak resident set (the child's ru_maxrss)
# exceeds LIMIT_MB. With each event graph freed inside its program's Phase 1
# iteration the peak is about 118 MB; keeping every graph alive until
# Phase 3 costs about 80 MB more.
#
# Usage: scripts/learn_memory.sh [path/to/uspec]
#
#===----------------------------------------------------------------------===#
set -euo pipefail

USPEC=$(realpath "${1:-build/tools/uspec}")
LIMIT_MB=150

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "== gen --profile java -n 20000 --seed 601"
"$USPEC" gen --profile java -n 20000 --seed 601 -o "$WORK/corpus" > /dev/null

echo "== learn --threads 1 (peak RSS limit ${LIMIT_MB} MB)"
python3 - "$USPEC" "$WORK" "$LIMIT_MB" <<'EOF'
import os, resource, subprocess, sys

uspec, work, limit_mb = sys.argv[1], sys.argv[2], float(sys.argv[3])
corpus = os.path.join(work, "corpus")
files = sorted(f for f in os.listdir(corpus) if f.endswith(".mini"))
if len(files) != 20000:
    sys.exit("FAIL: expected 20000 generated programs, found %d" % len(files))
# Relative names keep the argument list short; the learner is this
# process's only child, so RUSAGE_CHILDREN's max RSS is the learner's.
# The candidate table it prints is not needed here; its errors are.
run = subprocess.run([uspec, "learn", *files, "--threads", "1",
                      "-o", os.path.join(work, "learn.txt")],
                     cwd=corpus, stdout=subprocess.DEVNULL,
                     stderr=subprocess.PIPE, text=True)
if run.returncode != 0:
    sys.stderr.write(run.stderr)
    sys.exit("FAIL: learn exited with status %d" % run.returncode)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
print("learn peak RSS: %.1f MB" % peak_mb)
if peak_mb > limit_mb:
    sys.exit("FAIL: learn peak RSS %.1f MB exceeds %.0f MB" % (peak_mb, limit_mb))
EOF

echo "OK: learn_memory"
