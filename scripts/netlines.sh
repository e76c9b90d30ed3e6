#!/bin/sh
# netlines.sh BASE [REV]
#
# Prints the Go lines added, removed and net between BASE and REV
# (default HEAD), with program files and test files (*_test.go) counted
# apart. hcbench/, the repository benchmark's own module, is excluded.
# A change that removes code reports these numbers; `make netlines
# BASE=<rev>` runs this script. Renames count as a removal plus an
# addition, which leaves the net unchanged.
#
# A last line counts program code alone: the lines of every changed
# program file at BASE and at REV that are neither blank nor comment-only,
# since deleting comments removes no code.
set -eu

base=${1:?usage: netlines.sh BASE [REV]}
rev=${2:-HEAD}
git diff --numstat --no-renames "$base" "$rev" -- '*.go' ':(exclude)hcbench' |
awk -v range="$base..$rev" '
$1 == "-" { next }
{
    kind = ($3 ~ /_test\.go$/) ? "tests" : "program"
    add[kind] += $1
    del[kind] += $2
}
END {
    printf "Go lines %s (hcbench/ excluded)\n", range
    split("program tests", kinds, " ")
    for (i = 1; i <= 2; i++) {
        k = kinds[i]
        net = add[k] - del[k]
        printf "%-8s +%d -%d net %s%d\n", k, add[k], del[k], (net > 0 ? "+" : ""), net
    }
}'

# code_lines REV FILE prints FILE's lines at REV that are neither blank
# nor comment-only (// lines and /* */ blocks); 0 if FILE is absent there.
code_lines() {
    git show "$1:$2" 2>/dev/null | awk '
    { sub(/^[ \t]+/, "") }
    block { if (index($0, "*/")) block = 0; next }
    /^\/\*/ { if (!index(substr($0, 3), "*/")) block = 1; next }
    $0 == "" || /^\/\// { next }
    { n++ }
    END { print n + 0 }'
}

before=0
after=0
for f in $(git diff --name-only --no-renames "$base" "$rev" -- '*.go' ':(exclude)hcbench' ':(exclude)*_test.go'); do
    before=$((before + $(code_lines "$base" "$f")))
    after=$((after + $(code_lines "$rev" "$f")))
done
net=$((after - before))
printf 'program code, blank and comment-only lines excluded: %d -> %d net %s%d\n' \
    "$before" "$after" "$([ "$net" -gt 0 ] && echo +)" "$net"
