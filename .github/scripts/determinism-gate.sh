#!/usr/bin/env bash
# The whole pipeline twice on the smoke config, into two output trees under
# the directory $1, the second with two BLAS threads (as on the benchmark
# machine); the first tree's train and evaluate run on one CPU, so with one
# worker process, the second's with one per usable CPU. Any differing byte
# fails, and so does a fedsurg process still running after a train or an
# evaluate. Run it from the root of a checkout; whatever the environment
# sets (OPENBLAS_CORETYPE, say) holds for both trees.
set -euo pipefail
work=$1
mkdir -p "$work"
for run in one two; do
  threads=$([ "$run" = one ] && echo 1 || echo 2)
  cfg="$work/smoke-$run.yaml"
  sed "s|^output_dir:.*|output_dir: $work/smoke-$run|" configs/smoke.yaml > "$cfg"
  for cmd in generate train evaluate compare; do
    case "$cmd" in train|evaluate) workers=yes ;; *) workers= ;; esac
    pin=$([ "$run" = one ] && [ -n "$workers" ] && echo "taskset -c 0" || true)
    OPENBLAS_NUM_THREADS=$threads PYTHONPATH=src $pin python -m fedsurg.cli --log-level WARNING "$cmd" --config "$cfg" > /dev/null
    if [ -n "$workers" ] && pgrep -f '^[^ ]*python[0-9.]* -m fedsurg[.]cli' > /dev/null; then
      echo "::error::$run: a fedsurg process is still running after $cmd"; exit 1
    fi
  done
done
diff -r "$work/smoke-one" "$work/smoke-two"
# train writes nothing but checkpoints into checkpoints/
for run in one two; do
  extra=$(find "$work/smoke-$run/checkpoints" -type f ! -name '*.ckpt')
  [ -z "$extra" ] || { echo "::error::not a checkpoint: $extra"; exit 1; }
done
# evaluate over its own outputs writes the same scores and reports
for cmd in evaluate compare; do
  OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python -m fedsurg.cli --log-level WARNING "$cmd" --config "$work/smoke-two.yaml" > /dev/null
done
for sub in scores reports; do
  diff -r "$work/smoke-one/$sub" "$work/smoke-two/$sub"
done
