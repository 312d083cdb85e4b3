#!/bin/sh
# Prints every `pub fn` / `pub(crate) fn` that non-test code names only
# where it is defined, one `name<TAB>file` per line, sorted.
#
# Non-test code is every tracked `.rs` file under `crates/*/src`, `src`,
# `examples` and `benchmark/src`, each read down to its first
# `#[cfg(test)]`. A name counts as used when it appears there more often
# than it is defined, in code or in a doc comment; tests do not count.
# Run it from the repository root.
git ls-files ':(glob)crates/*/src/**/*.rs' ':(glob)src/**/*.rs' \
    ':(glob)examples/**/*.rs' ':(glob)benchmark/src/**/*.rs' | xargs awk '
  FNR == 1 { live = 1 }
  /#\[cfg\(test\)\]/ { live = 0 }
  !live { next }
  {
    if (match($0, /pub(\(crate\))? (const )?fn [A-Za-z_][A-Za-z0-9_]*/)) {
      name = substr($0, RSTART, RLENGTH)
      sub(/.* /, "", name)
      defs[name]++
      where[name] = FILENAME
    }
    n = split($0, words, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) seen[words[i]]++
  }
  END { for (name in defs) if (seen[name] == defs[name]) print name "\t" where[name] }
' | sort
