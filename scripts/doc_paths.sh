#!/usr/bin/env bash
# doc_paths.sh — every cmd/…, scripts/… or examples/… path and every
# BENCH*.json that README.md, DESIGN.md or EXPERIMENTS.md names must exist,
# so a deleted tool cannot outlive itself in the docs.
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
exit $status
