#!/bin/sh
# Symbolize a sample file written by sampler.so:
#
#   sh bench/sampler/symbolize.sh EXECUTABLE SAMPLES [ROWS]
#
# Prints the ROWS (default 40) symbols with the most samples, each with
# its count and share of all samples.  Offsets are looked up in
# `nm -n EXECUTABLE` (the enclosing symbol is the last one at or below
# the offset); samples outside the executable (shared libraries, the
# vDSO) count as "[outside]".
set -eu
exe=$1
samples=$2
rows=${3:-40}
nm -n --defined-only "$exe" | awk -v rows="$rows" '
function hex(s,    i, n, c) {
  n = 0
  for (i = 1; i <= length(s); i++) {
    c = index("0123456789abcdef", tolower(substr(s, i, 1))) - 1
    n = n * 16 + c
  }
  return n
}
FILENAME == "-" {
  if (NF >= 3 && $2 ~ /^[tTwW]$/) { syms++; addr[syms] = hex($1); name[syms] = $3 }
  next
}
{
  total++
  pc = $1 + 0
  if (pc < 0 || syms == 0 || pc < addr[1]) { hits["[outside]"]++; next }
  lo = 1; hi = syms
  while (lo < hi) {
    mid = int((lo + hi + 1) / 2)
    if (addr[mid] <= pc) lo = mid; else hi = mid - 1
  }
  hits[name[lo]]++
}
END {
  printf "%d samples\n", total
  for (s in hits) printf "%8d %6.2f%%  %s\n", hits[s], 100 * hits[s] / total, s | "sort -rn | head -n " rows
}' - "$samples"
