#!/usr/bin/env bash
# Name every `pub` item in crates/*/src that no other target uses, and exit
# non-zero if there is one.
#
# The method, on a temporary copy of the tree, one crate at a time: rewrite
# the crate's `pub` items (fn, struct, enum, trait, type, const, static) and
# re-exports to `pub(crate)`, then `cargo check --all-targets` the workspace
# and the standalone `benchmark/` package. Every privacy error, and every
# `private_interfaces` / `private_bounds` warning, names an item some other
# target needs: its `pub` is put back and the check runs again, until it is
# clean. What is still `pub(crate)` then is wider than its callers. Items in
# private modules (and in binaries) are already crate-local and are skipped;
# doc tests are not compiled (run `cargo test --doc` after narrowing).
#
# Usage: .github/surface.sh   (from anywhere inside the repository)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
tree="$work/tree"
mkdir "$tree"
tar -C "$root" --exclude=./target --exclude=./.git --exclude=./benchmark/target \
  --exclude=./.bench_build -cf - . | tar -C "$tree" -xf -
export CARGO_TARGET_DIR="$work/target"

item_re='^([[:space:]]*)pub ((const |async |unsafe )*(fn|struct|enum|trait|type|static|const|union)[[:space:]])'
use_re='^([[:space:]]*)pub (use[[:space:]])'

# Whether the module a source file defines is reachable from its crate root
# through `pub mod` declarations only.
public_file() {
  local f=$1 dir base parent
  case "$f" in
    */src/lib.rs) return 0 ;;
    */src/main.rs | */src/bin/*) return 1 ;;
  esac
  dir=$(dirname "$f")
  base=$(basename "$f" .rs)
  if [ "$base" = mod ]; then
    base=$(basename "$dir")
    dir=$(dirname "$dir")
  fi
  if [ -f "$dir/mod.rs" ]; then parent="$dir/mod.rs"
  elif [ -f "$dir.rs" ]; then parent="$dir.rs"
  elif [ "$(basename "$dir")" = src ]; then parent="$dir/lib.rs"
  else return 1
  fi
  grep -qE "^[[:space:]]*pub mod $base;" "$parent" && public_file "$parent"
}

# `line<TAB>kind<TAB>last line` of each public item and re-export in a
# file, skipping the bodies of private inline modules (`mod tests {`,
# `mod fib {`), which rustfmt closes with a `}` at the opening line's
# indentation. A re-export's last line is the one with its `;`.
candidates() {
  awk -v item="$item_re" -v use="$use_re" '
    open != "" { if ($0 ~ /;[[:space:]]*$/) { print open "\tuse\t" NR; open = "" } next }
    skip { if ($0 == indent "}") skip = 0; next }
    /^[[:space:]]*mod [a-z_0-9]+ \{/ { match($0, /^[[:space:]]*/); indent = substr($0, 1, RLENGTH); skip = 1; next }
    $0 ~ item { print NR "\titem\t" NR; next }
    $0 ~ use { if ($0 ~ /;[[:space:]]*$/) print NR "\tuse\t" NR; else open = NR }
  ' "$1"
}

# Diagnostics of both builds as `span<TAB>file<TAB>line` and
# `name<TAB>item` records; `fail` if any error was reported at all.
diagnose() {
  local out="$work/diag.json"
  : > "$out"
  (cd "$tree" && cargo check --offline -q --keep-going --all-targets --message-format=json >> "$out" 2>/dev/null) || true
  (cd "$tree" && cargo check --offline -q --keep-going --all-targets --message-format=json \
    --manifest-path benchmark/Cargo.toml >> "$out" 2>/dev/null) || true
  jq -r --arg tree "$tree/" '
    select(.reason == "compiler-message") | .message
    | select(.level == "error" or ((.code.code // "") | test("^private_(interfaces|bounds)$")))
    | (if .level == "error" then "fail" else empty end),
      ((.spans[], .children[].spans[])
        | "span\t\(.file_name | ltrimstr($tree) | sub("^(\\.\\./)+"; ""))\t\(.line_start)"),
      (if ((.code.code // "") | test("^E036[45]$")) then
         "name\t\(.message | capture("`(?<n>[^`]+)`").n)" else empty end)
  ' "$out" | sort -u
}

report="$work/report"
: > "$report"
for src in "$tree"/crates/*/src; do
  crate=$(basename "$(dirname "$src")")
  list="$work/narrowed.$crate" # file<TAB>line<TAB>kind<TAB>last line, still narrowed
  : > "$list"
  while IFS= read -r f; do
    public_file "$f" || continue
    rel=${f#"$tree/"}
    candidates "$f" | while IFS=$'\t' read -r line kind last; do
      sed -i -E "${line}s/^([[:space:]]*)pub /\\1pub(crate) /" "$f"
      printf '%s\t%s\t%s\t%s\n' "$rel" "$line" "$kind" "$last" >> "$list"
    done
  done < <(find "$src" -name '*.rs' | sort)

  while :; do
    diag=$(diagnose)
    restore=$(
      {
        printf '%s\n' "$diag" | awk -F'\t' '$1 == "span" { print $2 "\t" $3 }'
        printf '%s\n' "$diag" | awk -F'\t' '$1 == "name" { print $2 }' | while read -r name; do
          awk -F'\t' '$3 == "item" { print $1 "\t" $2 }' "$list" | while IFS=$'\t' read -r rel line; do
            if sed -n "${line}p" "$tree/$rel" | grep -qE "(fn|struct|enum|trait|type|static|const|union)[[:space:]]+$name([^a-zA-Z0-9_]|$)"; then
              printf '%s\t%s\n' "$rel" "$line"
            fi
          done
        done
      } | sort -u | awk -F'\t' '
        NR == FNR { n++; file[n] = $1; at[n] = $2; next }
        { for (i = 1; i <= n; i++) if (file[i] == $1 && at[i] >= $2 && at[i] <= $4) { print; next } }
      ' - "$list"
    )
    if [ -z "$restore" ]; then
      if printf '%s\n' "$diag" | grep -qx fail; then
        jq -r 'select(.reason == "compiler-message") | .message | select(.level == "error")
          | .rendered' "$work/diag.json" | head -80 >&2 || true
        echo "surface.sh: $crate: the errors above name no narrowed item" >&2
        exit 2
      fi
      break
    fi
    while IFS=$'\t' read -r rel line _; do
      sed -i -E "${line}s/^([[:space:]]*)pub\\(crate\\) /\\1pub /" "$tree/$rel"
    done <<< "$restore"
    grep -vxFf <(printf '%s\n' "$restore") "$list" > "$list.next" || true
    mv "$list.next" "$list"
  done

  awk -F'\t' '$3 == "item"' "$list" | while IFS=$'\t' read -r rel line _; do
    printf '%s:%s: %s\n' "$rel" "$line" "$(sed -n "${line}p" "$tree/$rel" | sed -E 's/^[[:space:]]*pub\(crate\) //; s/[[:space:]]*[({=].*//')"
  done >> "$report"
done

if [ -s "$report" ]; then
  cat "$report"
  echo "surface.sh: $(wc -l < "$report") pub items are used by no other target: make them pub(crate) or delete them" >&2
  exit 1
fi
echo "surface.sh: every pub item in crates/*/src is used by another target"
