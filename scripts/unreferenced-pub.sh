#!/usr/bin/env bash
# Lists every public item under crates/*/src (`pub fn`, `pub const fn`,
# `pub struct`, `pub enum`, `pub trait`, `pub type`, `pub const` and
# `pub static`) whose name occurs, as a whole word, nowhere but in its
# own definition across the code, tests, examples, benchmark sources and
# docs.  Prints one `file:line: name` per such item and nothing when every
# public item is referenced.
#
# Run from anywhere in the repository:
#
#     scripts/unreferenced-pub.sh
#
# A name shared by two definitions counts as referenced, so a collision
# can only hide an unreferenced item, never flag a used one.
set -euo pipefail
cd "$(dirname "$0")/.."

search=(crates src tests examples benchmark/src docs README.md)

# First input: how often each identifier occurs as a whole word.
# Second input: `file:line:pub <kind> name` for every public item.
awk '
    NR == FNR { count[$2] = $1; next }
    {
        split($0, at, ":")
        n = split(at[3], words, " ")
        name = words[n]
        if (count[name] <= 1) print at[1] ":" at[2] ": " name
    }
' <(grep -rhoE '[A-Za-z0-9_]+' "${search[@]}" | sort | uniq -c) \
  <(grep -rnoE '\bpub (const )?(fn|struct|enum|trait|type|const|static) [A-Za-z_][A-Za-z0-9_]*' crates/*/src)
