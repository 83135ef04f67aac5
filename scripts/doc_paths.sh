#!/usr/bin/env bash
# doc_paths.sh — every cmd/…, scripts/… or examples/… path and every
# BENCH*.json that README.md, DESIGN.md or EXPERIMENTS.md names must exist,
# and every -flag on a cmd/<tool> command line they quote must be one the
# tool's -h lists, so a deleted tool or flag cannot outlive itself in the
# docs.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for doc in README.md DESIGN.md EXPERIMENTS.md; do
    for path in $(grep -oE '\b(cmd|scripts|examples)/[A-Za-z0-9_./-]+|\bBENCH[A-Za-z0-9_]*\.json' "$doc" | sed 's/[./]*$//' | sort -u); do
        if [[ ! -e "$path" ]]; then
            echo "doc_paths.sh: $doc names $path, which does not exist" >&2
            status=1
        fi
    done
done

# A command line runs from cmd/<tool> to the end of the (backslash-joined)
# line, or to the backtick, comment or table bar that closes it.
for tool in $(ls cmd); do
    known=$(go run "./cmd/$tool" -h 2>&1 | sed -nE 's/^  -([A-Za-z0-9_-]+).*/\1/p')
    for doc in README.md DESIGN.md EXPERIMENTS.md; do
        for flag in $(sed -e ':a' -e '/\\$/{N;s/\\\n//;ba' -e '}' "$doc" | grep -oE "cmd/$tool [^\`#|]*" |
            grep -oE ' -[a-z][A-Za-z0-9_-]*' | sed 's/^ -//' | sort -u); do
            if [[ "$flag" != h && "$flag" != help ]] && ! grep -qx -- "$flag" <<<"$known"; then
                echo "doc_paths.sh: $doc runs cmd/$tool with -$flag, which $tool -h does not list" >&2
                status=1
            fi
        done
    done
done
exit $status
