#!/usr/bin/env bash
# The smoke pipeline, then a socket scaffold run (the coordinator and one
# process per development site, each waited for, any failure failing the
# script), with the code of the checkout $1 (the base) and with this
# checkout's code, both on this checkout's smoke config, into output trees
# under the directory $2. Any differing byte fails. Run it from the root of
# a checkout; whatever the environment sets (OPENBLAS_CORETYPE, say) holds
# for both sides.
set -euo pipefail
base=$1
work=$2
mkdir -p "$work"
for side in base head; do
  src=$([ "$side" = base ] && echo "$base" || pwd)
  PYTHONPATH="$src/src" python -c 'import fedsurg, sys; sys.exit(not fedsurg.__file__.startswith(sys.argv[1]))' "$src/src/" \
    || { echo "::error::fedsurg was not imported from $src"; exit 1; }
  cfg="$work/equiv-$side.yaml"
  sed "s|^output_dir:.*|output_dir: $work/equiv-$side|" configs/smoke.yaml > "$cfg"
  for cmd in generate train evaluate compare; do
    PYTHONPATH="$src/src" python -m fedsurg.cli --log-level WARNING "$cmd" --config "$cfg" > /dev/null
  done
  PYTHONPATH="$src/src" python -m fedsurg.cli --log-level WARNING serve-coordinator --algo scaffold --config "$cfg" > /dev/null &
  pids=($!)
  sites=$(PYTHONPATH="$src/src" python -c 'import sys; from fedsurg.experiment import load_config; print(*load_config(sys.argv[1]).development_sites)' "$cfg")
  for site in $sites; do
    PYTHONPATH="$src/src" python -m fedsurg.cli --log-level WARNING serve-site --site "$site" --algo scaffold --config "$cfg" > /dev/null &
    pids+=($!)
  done
  for pid in "${pids[@]}"; do
    wait "$pid" || { echo "::error::$side: a socket scaffold process failed"; exit 1; }
  done
done
diff -r "$work/equiv-base" "$work/equiv-head"
