#!/bin/sh
# Prints every `pub fn` / `pub(crate) fn` that only tests call, or
# nothing does, one `name<TAB>file` per line, sorted. Run it from the
# repository root; it needs `cargo` and leaves the tree as it was.
#
# The compiler decides, not a word count. In a throwaway copy of the
# working tree, every such definition in `crates/*/src` and `src`
# (each file read down to its first `#[cfg(test)]`) gets a
# `#[cfg(test)]` of its own, except the names
# `.github/public-api-allowlist.txt` keeps. Then `cargo check` of the
# workspace's libraries, binaries and examples, and of `benchmark/`,
# runs again and again: every marked name an error points at loses its
# mark (every definition of that name), until both checks pass. The
# allowlisted names are then marked too and the checks settle again,
# so a kept function's callees count as called and a kept function
# that found a caller drops out. The names still marked are the
# report. Unmarking is by name, so a name any non-test code calls is
# never reported; what the check cannot see is an enum variant, or a
# type whose methods share their names with others.
set -eu

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

existing() {
    while IFS= read -r f; do
        if [ -f "$f" ]; then printf '%s\n' "$f"; fi
    done
}

git ls-files -co --exclude-standard | existing | tar -cf - -T - | tar -xf - -C "$work"

# Definitions: `file<TAB>line<TAB>name`.
git ls-files -co --exclude-standard ':(glob)crates/*/src/**/*.rs' ':(glob)src/**/*.rs' |
    existing | xargs awk '
  FNR == 1 { live = 1 }
  /#\[cfg\(test\)\]/ { live = 0 }
  !live { next }
  match($0, /^[ \t]*pub(\(crate\))? (const )?fn [A-Za-z_][A-Za-z0-9_]*/) {
    name = substr($0, RSTART, RLENGTH)
    sub(/.* /, "", name)
    print FILENAME "\t" FNR "\t" name
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
# arguments, until it passes. An error unmarks the name its span
# starts at, and the last segment of every path it quotes (a path at
# the span too: `use a::b::f` points at `a`). Fails if an error unmarks
# nothing, which no further round can fix.
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
        {
            grep -o '`[^`]*::[^`]*`' "$work/errors" || true
            while IFS=: read -r f l c _; do
                case $f in /*) ;; *) f=$work/$dir/$f ;; esac
                sed -n "${l}p" "$f" | cut -c "$c"- |
                    grep -oE '^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*' || true
            done < "$work/errors"
        } | sed 's/.*:://; s/`//g' | sort -u > "$work/pointed"
        awk -F '\t' 'FILENAME == ARGV[1] { pointed[$1] = 1; next } !($3 in pointed)' \
            "$work/pointed" "$work/marked" > "$work/next"
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

awk -F '\t' 'FILENAME == ARGV[1] { allowed[$1] = 1; next } !($3 in allowed)' \
    "$work/allowed" "$work/defs" > "$work/marked"
settle_all
awk -F '\t' 'FILENAME == ARGV[1] { allowed[$1] = 1; next } $3 in allowed' \
    "$work/allowed" "$work/defs" >> "$work/marked"
settle_all

awk -F '\t' '!seen[$3]++ { print $3 "\t" $1 }' "$work/marked" | sort
