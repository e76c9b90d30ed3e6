#!/bin/sh
# netlines.sh BASE [REV]
#
# Prints the Go lines added, removed and net between BASE and REV
# (default HEAD), with program files and test files (*_test.go) counted
# apart. hcbench/, the repository benchmark's own module, is excluded.
# A change that removes code reports these numbers; `make netlines
# BASE=<rev>` runs this script. Renames count as a removal plus an
# addition, which leaves the net unchanged.
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
