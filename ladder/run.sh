#!/bin/sh
# Build the benchmark in the checkout it is run from (the current
# directory must be the repository root), then run `main.exe ladder`
# with the given arguments.  The build writes only under _build and uses
# no dune cache or user config; its output goes to stderr, and only when
# it fails, so the last line of standard output is the benchmark's
# result.  The binary is run directly rather than through `dune exec`,
# so nothing of dune's stays in the measured process.
if ! log=$(dune build --root . --no-config --cache=disabled --display=quiet ladder/main.exe 2>&1)
then
  printf '%s\n' "$log" >&2
  echo "ladder/run.sh: the build failed; run from the repository root" >&2
  exit 1
fi
exec ./_build/default/ladder/main.exe ladder "$@"
