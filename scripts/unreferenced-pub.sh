#!/usr/bin/env bash
# Lists every `pub fn` under crates/*/src whose name occurs, as a whole
# word, nowhere but in its own definition across the code, tests,
# examples, benchmark sources and docs.  Prints one `file:line: name` per
# such function and nothing when every public function is referenced.
#
# Run from anywhere in the repository:
#
#     scripts/unreferenced-pub.sh
#
# A name shared by two definitions counts as referenced, so a collision
# can only hide an unreferenced function, never flag a used one.
set -euo pipefail
cd "$(dirname "$0")/.."

search=(crates src tests examples benchmark/src docs README.md)

# First input: how often each identifier occurs as a whole word.
# Second input: `file:line:pub fn name` for every public function.
awk '
    NR == FNR { count[$2] = $1; next }
    {
        split($0, at, ":")
        name = substr(at[3], length("pub fn ") + 1)
        if (count[name] <= 1) print at[1] ":" at[2] ": " name
    }
' <(grep -rhoE '[A-Za-z0-9_]+' "${search[@]}" | sort | uniq -c) \
  <(grep -rnoE '\bpub fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src)
