#!/usr/bin/env bash
# Lists the functions of the root package and internal/* that no command,
# example or perfbench binary links. Every binary is built with inlining
# off (-gcflags=all=-l), so a function the linker keeps shows up in
# `go tool nm` even when all its callers would inline it. Compiler-made
# symbols are dropped: closures, generic instantiations, pointer-receiver
# wrappers of value methods and interface method stubs.
#
#   bash scripts/unlinked.sh            # run from the repository root
#
# Build outputs go to a temporary directory that is removed on exit.
set -euo pipefail

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
mkdir -p "$out/bin" "$out/pkg"

for p in ./cmd/* ./examples/*; do
	go build -gcflags=all=-l -o "$out/bin/$(basename "$p")" "$p"
done
go -C perfbench build -gcflags=all=-l -o "$out/bin/perfbench" .
while read -r p; do
	go build -gcflags=all=-l -o "$out/pkg/$(echo "$p" | tr / _).a" "$p"
done < <(go list . ./internal/...)

syms() { for f in "$@"; do go tool nm "$f"; done | awk '$2 == "T" { print $3 }' | sort -u; }
syms "$out"/bin/* > "$out/linked"
syms "$out"/pkg/*.a | grep -E '^opsched(/internal/[a-z]+)?\.' > "$out/defined"

# Interface types, as "importpath.Name.": their method stubs never link by name.
go list -f '{{.ImportPath}} {{.Dir}}' . ./internal/... | while read -r ip dir; do
	for f in "$dir"/*.go; do
		case "$f" in *_test.go) continue ;; esac
		sed -nE "s#^type ([A-Za-z0-9_]+) interface.*#$ip.\\1.#p" "$f"
	done
done > "$out/ifaces"

comm -23 "$out/defined" "$out/linked" |
	grep -vE '\.func[0-9]|\.gowrap|\.deferwrap|\.init|\[' |
	grep -vF -f <(cat "$out/ifaces"; echo '#none#') |
	awk -v defs="$out/defined" '
		BEGIN { while ((getline l < defs) > 0) def[l] = 1 }
		match($0, /\.\(\*[A-Za-z0-9_]+\)\./) {
			v = substr($0, 1, RSTART) substr($0, RSTART + 3, RLENGTH - 5) "." substr($0, RSTART + RLENGTH)
			if (v in def) next
		}
		{ print }'
