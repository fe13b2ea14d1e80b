#!/usr/bin/env bash
# Run `cargo test -q "$@"` and fail unless at least one test passed: a
# filter that matches no test (a fence renamed or moved) fails the CI step
# instead of passing it.
out=$(cargo test -q "$@" 2>&1) || { echo "$out"; exit 1; }
echo "$out"
if ! echo "$out" | grep -qE 'test result: ok\. [1-9][0-9]* passed'; then
  echo "no test matched: cargo test $*" >&2
  exit 1
fi
