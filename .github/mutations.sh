#!/bin/sh
# Plants every mutation under `.github/mutations/` in turn and checks
# that the tests its header names still catch it. Run it from the
# repository root; it needs `git` (for `git apply`), `cargo` and
# `timeout`, and leaves the tree as it was.
#
# A mutation is one file, `NN-slug.patch`: a unified diff against the
# tree, after header lines that `git apply` skips —
#
#     Row: NN
#     Claim: the fault the diff plants, in one sentence.
#     Fails: <package> <--lib | --test T> <exact test path>
#
# with one `Fails:` line per test that must fail, and `#` lines for
# anything else worth keeping beside the row. In a throwaway copy of
# the working tree, each patch is applied; each `Fails:` test is looked
# up (`-- --list --exact`, which also builds the mutated target) and
# must name exactly one test; then it runs (`-- --exact`, release
# profile, at most 600 s) and must fail; then the patch is reversed.
# Every row shares the copy's target directory, or `CARGO_TARGET_DIR`
# when that is set. One line per row:
#
#     row NN caught by k/k (names) in S s
#
# The exit status is non-zero if any patch no longer applies, a
# mutated target does not build, a `Fails:` name matches no test (or
# more than one), a listed test passes, or a run times out; every row
# is still tried, and each failure is printed with the cargo output
# behind it.
set -eu

root=$(pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

existing() {
    while IFS= read -r f; do
        if [ -f "$f" ]; then printf '%s\n' "$f"; fi
    done
}

git ls-files -co --exclude-standard | existing | tar -cf - -T - | tar -xf - -C "$work"

status=0
# Prints a failure of the row being checked, with the last of `$work/out`.
fail() {
    echo "row $row: $1" >&2
    tail -n 30 "$work/out" >&2
    status=1
}

for patch in "$root"/.github/mutations/*.patch; do
    row=$(sed -n 's/^Row: *//p' "$patch")
    : "${row:=${patch##*/}}"
    if ! (cd "$work" && git apply "$patch") > "$work/out" 2>&1; then
        fail "the patch no longer applies"
        continue
    fi
    sed -n 's/^Fails: *//p' "$patch" > "$work/fails"
    if [ ! -s "$work/fails" ]; then
        : > "$work/out"
        fail "the patch names no test that must fail"
    fi
    start=$(date +%s)
    caught=0
    listed=0
    names=
    # One `Fails:` line: a package, `--lib` or `--test T`, and a name.
    # `$target` is left unquoted below: it is one word or two.
    while read -r package kind target name; do
        if [ "$kind" = --lib ]; then
            name=$target
            target=--lib
        else
            target="--test $target"
        fi
        listed=$((listed + 1))
        if ! (cd "$work" && cargo test --release -q -p "$package" $target -- --list --exact "$name") \
            > "$work/out" 2>&1 < /dev/null; then
            fail "$package $target does not build or list under the patch"
            continue
        fi
        found=$(grep -cxF "$name: test" "$work/out" || true)
        if [ "$found" != 1 ]; then
            fail "$package $target $name names $found tests, not one"
            continue
        fi
        if (cd "$work" && timeout 600 cargo test --release -q -p "$package" $target -- --exact "$name") \
            > "$work/out" 2>&1 < /dev/null; then
            fail "$package $target $name passes under the patch: not caught"
        else
            code=$?
            if [ "$code" = 124 ]; then
                fail "$package $target $name ran past 600 s"
            else
                caught=$((caught + 1))
                names="$names${names:+, }$name"
            fi
        fi
    done < "$work/fails"
    if ! (cd "$work" && git apply -R "$patch") > "$work/out" 2>&1; then
        fail "the patch does not reverse"
        exit 1
    fi
    echo "row $row caught by $caught/$listed ($names) in $(($(date +%s) - start)) s"
done
exit "$status"
