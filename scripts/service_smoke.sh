#!/bin/sh
# Service-path smoke: boot a real pfserver (HTTP + TCP front doors over a
# tiny XMark instance), drive it with curl — point lookups mixed with
# XMark Q8 joins on POST /query/text, every reply 200 — assert /stats
# counts every one of them as completed, then check the graceful SIGTERM
# drain path end to end.
set -eu

workdir=$(mktemp -d)
log="$workdir/pfserver.log"
srv_pid=""

cleanup() {
    [ -n "$srv_pid" ] && kill "$srv_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/pfserver" ./cmd/pfserver

"$workdir/pfserver" -listen 127.0.0.1:0 -http 127.0.0.1:0 -gen xmark.xml=0.002 2>"$log" &
srv_pid=$!

# Wait for the readiness line and pick up the bound HTTP address.
addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/^pfserver: http on //p' "$log")
    [ -n "$addr" ] && break
    kill -0 "$srv_pid" 2>/dev/null || { echo "pfserver died:"; cat "$log"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$addr" ] || { echo "pfserver never became ready:"; cat "$log"; exit 1; }

point='for $b in /site/people/person where $b/@id = "person0" return $b/name/text()'
join='for $p in /site/people/person
      let $a := for $t in /site/closed_auctions/closed_auction
                where $t/buyer/@person = $p/@id
                return $t
      return <item person="{$p/name/text()}">{count($a)}</item>'

requests=40
i=0
while [ $i -lt $requests ]; do
    q=$point
    [ $((i % 4)) -eq 3 ] && q=$join
    code=$(curl -sS -o "$workdir/reply" -w '%{http_code}' -X POST --data-binary "$q" \
        "http://$addr/query/text?doc=xmark.xml")
    [ "$code" = "200" ] || { echo "request $i: HTTP $code:"; cat "$workdir/reply"; exit 1; }
    i=$((i + 1))
done

# The service-wide counter (the first "completed" in /stats) must count
# every request above.
stats=$(curl -fsS "http://$addr/stats")
completed=$(echo "$stats" | sed -n 's/^ *"completed": \([0-9]*\).*/\1/p' | head -n 1)
[ -n "$completed" ] && [ "$completed" -ge $requests ] || {
    echo "/stats reports completed=${completed:-none}, want >= $requests:"; echo "$stats"; exit 1; }

# Graceful shutdown: TERM drains and the process exits cleanly.
kill -TERM "$srv_pid"
wait "$srv_pid" || { echo "pfserver exited non-zero after TERM:"; cat "$log"; exit 1; }
srv_pid=""
grep -q "shut down" "$log" || { echo "no graceful shutdown line:"; cat "$log"; exit 1; }

echo "service smoke OK ($completed queries completed)"
