#!/usr/bin/env bash
# `cloudwf run --dot FILE` writes the workflow's Graphviz DOT rendering to
# exactly FILE (and nothing next to it).
#
#   cli_dot_test.sh <path-to-cloudwf>
set -u

CLOUDWF=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
out="$dir/g.dot"

if ! "$CLOUDWF" run --workflow montage --strategy GAIN --dot "$out" >/dev/null; then
  echo "FAIL: cloudwf run --dot exited nonzero" >&2
  exit 1
fi
if [ ! -f "$out" ]; then
  echo "FAIL: $out was not written" >&2
  exit 1
fi
if [ "$(head -c 7 "$out")" != "digraph" ]; then
  echo "FAIL: $out does not begin with 'digraph': $(head -c 40 "$out")" >&2
  exit 1
fi
if [ -e "$out.wf" ]; then
  echo "FAIL: $out.wf was written next to the DOT file" >&2
  exit 1
fi
echo "ok: --dot wrote a digraph to $out"
