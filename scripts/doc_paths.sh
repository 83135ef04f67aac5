#!/usr/bin/env bash
# doc_paths.sh — keeps README.md, DESIGN.md and EXPERIMENTS.md true to the
# tree they describe. It fails when
#   - a cmd/…, scripts/… or examples/… path or a BENCH*.json they name does
#     not exist, or a -flag on a cmd/<tool> command line they quote is not
#     one the tool's -h lists;
#   - a Test…/Benchmark…/Fuzz…/Example… name they cite is not a func in
#     some _test.go (a trailing * cites a name prefix);
#   - a `DESIGN.md §N` or `DESIGN.md, "Heading"` citation in a doc or a Go
#     file resolves to no DESIGN.md heading;
#   - a law the invariant checker reports is not named in DESIGN.md;
#   - DESIGN.md exceeds 40 960 bytes or README.md 20 480 bytes.
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md DESIGN.md EXPERIMENTS.md)
status=0
fail() {
    echo "doc_paths.sh: $*" >&2
    status=1
}

for doc in "${docs[@]}"; do
    for path in $(grep -oE '\b(cmd|scripts|examples)/[A-Za-z0-9_./-]+|\bBENCH[A-Za-z0-9_]*\.json' "$doc" | sed 's/[./]*$//' | sort -u); do
        [[ -e "$path" ]] || fail "$doc names $path, which does not exist"
    done
done

# A command line runs from cmd/<tool> to the end of the (backslash-joined)
# line, or to the backtick, comment or table bar that closes it.
for tool in $(ls cmd); do
    known=$(go run "./cmd/$tool" -h 2>&1 | sed -nE 's/^  -([A-Za-z0-9_-]+).*/\1/p')
    for doc in "${docs[@]}"; do
        for flag in $(sed -e ':a' -e '/\\$/{N;s/\\\n//;ba' -e '}' "$doc" | grep -oE "cmd/$tool [^\`#|]*" |
            grep -oE ' -[a-z][A-Za-z0-9_-]*' | sed 's/^ -//' | sort -u); do
            if [[ "$flag" != h && "$flag" != help ]] && ! grep -qx -- "$flag" <<<"$known"; then
                fail "$doc runs cmd/$tool with -$flag, which $tool -h does not list"
            fi
        done
    done
done

funcs=$(git ls-files -co --exclude-standard '*_test.go' | xargs grep -hoE '^func (Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*' |
    sed 's/^func //' | sort -u)
for doc in "${docs[@]}"; do
    for name in $(grep -oE '\b(Test|Benchmark|Fuzz|Example)[A-Z0-9_][A-Za-z0-9_]*\*?' "$doc" | sort -u); do
        if [[ "$name" == *'*' ]]; then
            grep -q "^${name%\*}" <<<"$funcs" || fail "$doc cites $name, but no test func has that prefix"
        else
            grep -qx "$name" <<<"$funcs" || fail "$doc cites $name, which no _test.go defines"
        fi
    done
done

# DESIGN.md headings as "N<TAB>Title"; a citation matches the number or
# the start of the title.
headings=$(sed -nE 's/^#+ ([0-9]+)\. (.*)$/\1\t\2/p; s/^#+ ([^0-9].*)$/\t\1/p' DESIGN.md)
for file in "${docs[@]}" $(git ls-files -co --exclude-standard '*.go'); do
    body=$(tr '\n' ' ' <"$file" | sed -E 's#[[:space:]]+//[[:space:]]*# #g; s/[[:space:]]+/ /g')
    while IFS= read -r n; do
        [[ -z "$n" ]] || cut -f1 <<<"$headings" | grep -qx "$n" ||
            fail "$file cites DESIGN.md §$n, which is no DESIGN.md section"
    done < <(grep -oE 'DESIGN(\.md)?`? §[0-9]+' <<<"$body" | sed 's/.*§//' | sort -u)
    while IFS= read -r title; do
        [[ -z "$title" ]] || awk -F'\t' -v t="$title" 'index($2, t) == 1 { f = 1 } END { exit !f }' <<<"$headings" ||
            fail "$file cites DESIGN.md, \"$title\", which is no DESIGN.md heading"
    done < <(grep -oE 'DESIGN\.md`?, "[^"]+"' <<<"$body" | sed -E 's/^[^"]*"(.*)"$/\1/' | sort -u)
done

for law in $(git ls-files internal/invariant internal/network | grep -v '_test\.go$' | grep '\.go$' |
    xargs grep -hoE '(Check: |reportf\()"[a-z-]+"' | sed -E 's/.*"(.*)"/\1/' | sort -u); do
    grep -qF "\`$law\`" DESIGN.md || fail "the checker reports law $law, which DESIGN.md does not name"
done

for limit in DESIGN.md:40960 README.md:20480; do
    size=$(wc -c <"${limit%%:*}")
    ((size <= ${limit##*:})) || fail "${limit%%:*} is $size bytes, over its ${limit##*:}-byte budget"
done
exit $status
