#!/bin/sh
# Prints every `pub fn` / `pub(crate) fn` that only tests call, or
# nothing does, one `Type::name<TAB>file` per line (`name<TAB>file`
# for a free function), sorted. Run it from the repository root; it
# needs `cargo` and leaves the tree as it was.
#
# The compiler decides, not a word count. In a throwaway copy of the
# working tree, every such definition in `crates/*/src` and `src`
# (each file read down to its first `#[cfg(test)]`) gets a
# `#[cfg(test)]` of its own, except what
# `.github/public-api-allowlist.txt` keeps: a `name` entry keeps every
# definition of that name, a `Type` entry every method of that type.
# A method is keyed by the self type of the inherent `impl` block
# around it, a free function by its name. Then `cargo check` of the
# workspace's libraries, binaries and examples, and of `benchmark/`,
# runs again and again until both pass, and every error unmarks what
# it points at: a "no method / associated item named `x` found for
# `T`" error (E0599) unmarks `T::x` alone when `T::x` is marked; any
# other error, or one whose `T::x` is not marked (a generic, a trait
# object, a macro's `$name`), unmarks every definition of the names it
# points at. The allowlisted definitions are then marked too and the
# checks settle again, so a kept function's callees count as called
# and a kept function that found a caller drops out. The definitions
# still marked are the report, less a `T::is_empty` whose `T::len` is
# called (clippy's `len_without_is_empty` requires that method). What
# the check cannot see is a trait impl, an enum variant, or a method a
# macro generates; CI refuses by name the ones already removed.
set -eu

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

existing() {
    while IFS= read -r f; do
        if [ -f "$f" ]; then printf '%s\n' "$f"; fi
    done
}

git ls-files -co --exclude-standard | existing | tar -cf - -T - | tar -xf - -C "$work"

# Definitions: `file<TAB>line<TAB>key`, the key `Type::name` inside an
# `impl` block (rustfmt closes one with a `}` at its own indent) and
# `name` outside.
git ls-files -co --exclude-standard ':(glob)crates/*/src/**/*.rs' ':(glob)src/**/*.rs' |
    existing | xargs awk '
  FNR == 1 { live = 1; type = "" }
  /#\[cfg\(test\)\]/ { live = 0 }
  !live { next }
  type != "" && $0 == closer { type = "" }
  /^[ \t]*impl[< \t]/ && !/}[ \t]*$/ {
    indent = $0
    sub(/[^ \t].*/, "", indent)
    closer = indent "}"
    rest = $0
    sub(/^[ \t]*impl/, "", rest)
    if (rest ~ /^</) {
      depth = 0
      for (i = 1; i <= length(rest); i++) {
        ch = substr(rest, i, 1)
        if (ch == "<") depth++
        else if (ch == ">" && --depth == 0) break
      }
      rest = substr(rest, i + 1)
    }
    sub(/^[ \t]*/, "", rest)
    if (match(rest, / for /)) rest = substr(rest, RSTART + 5)
    match(rest, /^[A-Za-z0-9_:$]+/)
    type = substr(rest, RSTART, RLENGTH)
    sub(/.*::/, "", type)
  }
  match($0, /^[ \t]*pub(\(crate\))? (const )?fn [A-Za-z_][A-Za-z0-9_]*/) {
    name = substr($0, RSTART, RLENGTH)
    sub(/.* /, "", name)
    print FILENAME "\t" FNR "\t" (type != "" ? type "::" : "") name
  }' > "$work/defs"
cut -f1 "$work/defs" | sort -u > "$work/files"
sed 's/#.*//' .github/public-api-allowlist.txt | awk 'NF { print $1 }' > "$work/allowed"

# Rewrites every file holding a definition from its pristine copy,
# with `#[cfg(test)] ` in front of each marked line.
apply_marks() {
    while IFS= read -r f; do
        awk -F '\t' -v file="$f" '
          FILENAME == ARGV[1] { if ($1 == file) mark[$2] = 1; next }
          { print (FNR in mark ? "#[cfg(test)] " : "") $0 }
        ' "$work/marked" "$f" > "$work/$f"
    done < "$work/files"
}

# Runs `cargo check` in directory $1 of the copy, with the remaining
# arguments, until it passes. An E0599 error names `T::x`; any other
# error names the identifier its span starts at and the last segment
# of every path it quotes (a path at the span too: `use a::b::f`
# points at `a`). A named `T::x` that is marked loses its mark; every
# other name unmarks each definition of that name. Fails if an error
# unmarks nothing, which no further round can fix.
e0599="error\\[E0599\\]: no [a-z ]+ named \`([A-Za-z0-9_]+)\` found for [a-z ]+ \`&?('[a-z_]+ )?(mut )?([A-Za-z0-9_]+::)*([A-Za-z0-9_\\$]+)"
settle() {
    dir=$1
    shift
    while :; do
        apply_marks
        if (cd "$work/$dir" && cargo check --offline --quiet --message-format short "$@") \
            > "$work/out" 2>&1; then
            return 0
        fi
        grep -E '^[^ :]+:[0-9]+:[0-9]+: error' "$work/out" > "$work/errors" || true
        sed -nE "s/.*$e0599.*/\\5::\\1/p" "$work/errors" > "$work/pointed"
        grep -vE "$e0599" "$work/errors" > "$work/others" || true
        {
            grep -o '`[^`]*::[^`]*`' "$work/others" || true
            while IFS=: read -r f l c _; do
                case $f in /*) ;; *) f=$work/$dir/$f ;; esac
                sed -n "${l}p" "$f" | cut -c "$c"- |
                    grep -oE '^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*' || true
            done < "$work/others"
        } | sed 's/.*:://; s/`//g' >> "$work/pointed"
        awk -F '\t' '
          FILENAME == ARGV[1] { if ($1 ~ /::/) keys[$1] = 1; else names[$1] = 1; next }
          { marked[$3] = 1; line[++n] = $0; key[n] = $3 }
          END {
            for (k in keys) if (!(k in marked)) { x = k; sub(/.*::/, "", x); names[x] = 1 }
            for (i = 1; i <= n; i++) {
              x = key[i]
              sub(/.*::/, "", x)
              if (!(key[i] in keys) && !(x in names)) print line[i]
            }
          }
        ' "$work/pointed" "$work/marked" > "$work/next"
        if cmp -s "$work/next" "$work/marked"; then
            echo "public-surface: cargo check $* fails on its own:" >&2
            grep 'error' "$work/out" >&2
            return 1
        fi
        mv "$work/next" "$work/marked"
    done
}

settle_all() {
    settle . --workspace --lib --bins --examples
    settle benchmark
}

# Whether a definition's key is kept: its name or its type is listed.
kept='FILENAME == ARGV[1] { allowed[$1] = 1; next }
  { n = $3; t = ""; if (sub(/.*::/, "", n)) { t = $3; sub(/::.*/, "", t) } }'
awk -F '\t' "$kept"' !(n in allowed) && !(t in allowed)' \
    "$work/allowed" "$work/defs" > "$work/marked"
settle_all
awk -F '\t' "$kept"' (n in allowed) || (t in allowed)' \
    "$work/allowed" "$work/defs" >> "$work/marked"
settle_all

awk -F '\t' '
  FILENAME == ARGV[1] { marked[$3] = 1; next }
  { defined[$3] = 1 }
  END {
    for (k in marked) {
      if (k ~ /::is_empty$/) {
        len = k
        sub(/is_empty$/, "len", len)
        if ((len in defined) && !(len in marked)) continue
      }
      print k
    }
  }' "$work/marked" "$work/defs" > "$work/keys"
awk -F '\t' 'FILENAME == ARGV[1] { want[$1] = 1; next }
  ($3 in want) && !seen[$3]++ { print $3 "\t" $1 }' "$work/keys" "$work/defs" | sort
