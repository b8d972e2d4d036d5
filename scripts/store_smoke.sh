#!/bin/sh
# Store-path smoke: persist a named collection into a pfstore catalog
# through one pfserver process, restart the server over the same catalog
# directory, and assert the second process — which never saw the source
# XML — answers collection-bound queries through both front doors. This
# is the reopen-without-re-shredding contract, end to end. A last leg
# does the same for -snapshot: the default store is saved as one pfstore
# file and restored from it.
set -eu

workdir=$(mktemp -d)
catdir="$workdir/catalog"
log="$workdir/pfserver.log"
srv_pid=""

cleanup() {
    [ -n "$srv_pid" ] && kill "$srv_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/pfserver" ./cmd/pfserver
go build -o "$workdir/pfshell" ./cmd/pfshell
mkdir -p "$catdir"

# start_server [pfserver flags]: defaults to the catalog directory.
start_server() {
    : >"$log"
    [ $# -gt 0 ] || set -- -store "$catdir"
    "$workdir/pfserver" -listen 127.0.0.1:0 -http 127.0.0.1:0 "$@" 2>"$log" &
    srv_pid=$!
    i=0
    while [ $i -lt 100 ]; do
        http_addr=$(sed -n 's/^pfserver: http on //p' "$log")
        tcp_addr=$(sed -n 's/^pfserver: listening on //p' "$log")
        [ -n "$http_addr" ] && [ -n "$tcp_addr" ] && return 0
        kill -0 "$srv_pid" 2>/dev/null || { echo "pfserver died:"; cat "$log"; exit 1; }
        sleep 0.1
        i=$((i + 1))
    done
    echo "pfserver never became ready:"; cat "$log"; exit 1
}

stop_server() {
    kill -TERM "$srv_pid"
    wait "$srv_pid" || { echo "pfserver exited non-zero after TERM:"; cat "$log"; exit 1; }
    srv_pid=""
}

# First life: persist a collection over HTTP.
start_server
put=$(curl -fsS -X PUT --data-binary '<crew><member>Ada</member><member>Grace</member></crew>' \
    "http://$http_addr/collections/smoke?doc=a.xml")
echo "$put" | grep -q '"generation": *1' || { echo "unexpected PUT response: $put"; exit 1; }

out=$(curl -fsS -X POST --data-binary 'count(collection("smoke")//member)' \
    "http://$http_addr/query/text?collection=smoke")
[ "$out" = "2" ] || { echo "first-life query returned $out, want 2"; exit 1; }
stop_server

ls "$catdir"/smoke.pfc >/dev/null || { echo "no smoke.pfc in catalog dir"; exit 1; }

# Second life: same catalog directory, no source XML anywhere in sight.
start_server
grep -q 'catalog .*1 collection(s): smoke' "$log" || {
    echo "restarted server did not list the persisted collection:"; cat "$log"; exit 1; }

out=$(curl -fsS -X POST --data-binary 'count(collection("smoke")//member)' \
    "http://$http_addr/query/text?collection=smoke")
[ "$out" = "2" ] || { echo "reopened HTTP query returned $out, want 2"; exit 1; }

out=$("$workdir/pfshell" -addr "$tcp_addr" -collection smoke '/crew/member/text()')
[ "$out" = "AdaGrace" ] || { echo "reopened TCP query returned $out, want AdaGrace"; exit 1; }

# Delete, and the catalog file goes with it.
curl -fsS -X DELETE "http://$http_addr/collections/smoke" >/dev/null
if ls "$catdir"/smoke.pfc >/dev/null 2>&1; then
    echo "smoke.pfc survived DELETE"; exit 1
fi
stop_server

# -snapshot: the first life shreds a generated document and saves the
# store as a pfstore file; the second restores it without the -gen.
snap="$workdir/s.pfc"
query='count(doc("xmark.xml")//closed_auction)'
start_server -gen xmark.xml=0.002 -snapshot "$snap"
want=$(curl -fsS -X POST --data-binary "$query" "http://$http_addr/query/text")
[ "$want" = "24" ] || { echo "fresh store answered $want, want 24"; exit 1; }
stop_server

magic=$(head -c 8 "$snap")
[ "$magic" = "PFSTORE1" ] || { echo "snapshot starts with '$magic', want PFSTORE1"; exit 1; }

start_server -snapshot "$snap"
grep -q "restored store from $snap" "$log" || {
    echo "restarted server did not restore the snapshot:"; cat "$log"; exit 1; }
out=$(curl -fsS -X POST --data-binary "$query" "http://$http_addr/query/text")
[ "$out" = "$want" ] || { echo "restored snapshot answered $out, want $want"; exit 1; }
stop_server

echo "store smoke OK"
