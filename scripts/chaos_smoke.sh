#!/bin/sh
# chaos_smoke.sh — end-to-end rehearsal of the robustness path, run by
# `make chaos-smoke` and CI:
#
#   1. build a 2-shard multi container and keep a pristine copy
#   2. flip one byte inside the last member's body: the strict loader must
#      refuse the whole file, the degraded loader (-degraded) must
#      quarantine exactly that member and keep serving the healthy one
#   3. assert the degraded server's contract: healthy member 200,
#      quarantined member 503, /healthz 200 + degraded flag, /readyz 503
#      (1 healthy of 2 is below quorum), /statsz carries the ops block.
#      Steps 2 and 3 run twice: reading the file (core.Load) and mapping
#      it (-mmap, core.LoadBytesOpts), the two callers of the one decoder
#   4. fail a tile of a 4-shard 2-level LOD container by chaos
#      (-chaos-fail-member tile-1-1 -degraded) and assert the survivors
#      still serve as a degraded LOD: an unnamed global-id pair across
#      healthy tiles and a straddling coordinate pair answer 200, routed
#      through portals or the coarse level, and a global id the failed tile
#      owns answers 503 like any other request that reaches it
#   5. fire loadgen at a chaos-injected server (-chaos-latency,
#      -chaos-error-rate) and assert on its JSON: injected 503s and added
#      latency are visible, nothing else breaks
#   6. restore the pristine file, SIGHUP the degraded server, and assert
#      /readyz recovers to 200 on the next generation with the formerly
#      quarantined member serving again
#
# Requires: go, curl, awk. Exits non-zero on any broken assertion.
set -eu

PORT="${CHAOS_PORT:-18090}"
TMP="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

say() { echo "chaos-smoke: $*"; }

# field FILE KEY -> numeric value of "key": extracted without jq.
field() { awk -v k="\"$2\":" 'BEGIN{RS=","} index($0,k){sub(/.*:/,""); gsub(/[^0-9.eE+-]/,""); print; exit}' "$1"; }

# code URL -> the HTTP status, body discarded.
code() { curl -s -o /dev/null -w '%{http_code}' "$1"; }

wait_status() { # wait_status PATH WANT
    for _ in $(seq 1 50); do
        if [ "$(code "http://127.0.0.1:$PORT$1")" = "$2" ]; then
            return 0
        fi
        sleep 0.1
    done
    say "$1 never answered $2"; exit 1
}

say "building binaries"
go build -o "$TMP" ./cmd/terraingen ./cmd/sebuild ./cmd/seserve ./cmd/loadgen

say "generating terrain and 2-shard multi container"
"$TMP/terraingen" -out "$TMP/terrain.off" -pois "$TMP/pois.txt" \
    -nx 13 -ny 13 -dx 10 -amp 30 -npoi 40 -seed 7
"$TMP/sebuild" -kind=se -shards=2 -terrain "$TMP/terrain.off" -pois "$TMP/pois.txt" \
    -out "$TMP/multi.sedx" -eps 0.2 -seed 7
cp "$TMP/multi.sedx" "$TMP/pristine.sedx"

# --- corrupt one member body ------------------------------------------------
# Member sections are the last sections of a multi container, so the byte at
# filesize-8 (4 bytes before the outer CRC footer) sits inside the LAST
# member's body — flipping it breaks that member's inner CRC (and the
# advisory outer CRC) while leaving the manifest and the other member intact.
SIZE="$(wc -c < "$TMP/multi.sedx")"
OFF="$((SIZE - 8))"
say "flipping byte at offset $OFF of $SIZE"
dd if="$TMP/multi.sedx" of="$TMP/byte" bs=1 skip="$OFF" count=1 2>/dev/null
ORIG="$(od -An -tu1 "$TMP/byte" | tr -d ' ')"
printf "$(printf '\\%03o' $((ORIG ^ 255)))" \
    | dd of="$TMP/multi.sedx" bs=1 seek="$OFF" count=1 conv=notrunc 2>/dev/null

for MODE in read mmap; do
    MMAP=""
    if [ "$MODE" = mmap ]; then MMAP="-mmap"; fi

    say "[$MODE] strict load must refuse the corrupt container"
    if "$TMP/seserve" -index "$TMP/multi.sedx" -addr "127.0.0.1:$PORT" $MMAP >"$TMP/strict.log" 2>&1; then
        say "[$MODE] strict seserve served a corrupt container"; exit 1
    fi
    grep -qi 'crc' "$TMP/strict.log" || { say "[$MODE] strict failure does not mention the CRC: $(cat "$TMP/strict.log")"; exit 1; }

    # --- degraded serving ---------------------------------------------------
    say "[$MODE] degraded load must quarantine the broken member and serve the rest"
    "$TMP/seserve" -index "$TMP/multi.sedx" -addr "127.0.0.1:$PORT" -degraded $MMAP >"$TMP/serve.log" 2>&1 &
    SERVER_PID=$!
    wait_status /healthz 200

    QUAR="$(sed -n 's/.*DEGRADED: member "\([^"]*\)".*/\1/p' "$TMP/serve.log" | head -1)"
    [ -n "$QUAR" ] || { say "[$MODE] server log names no quarantined member: $(cat "$TMP/serve.log")"; exit 1; }
    if [ "$QUAR" = "tile-0-0" ]; then HEALTHY="tile-1-0"; else HEALTHY="tile-0-0"; fi
    say "[$MODE] quarantined member: $QUAR (healthy: $HEALTHY)"

    [ "$(code "http://127.0.0.1:$PORT/v1/query?index=$HEALTHY&s=0&t=1")" = "200" ] \
        || { say "[$MODE] healthy member does not serve"; exit 1; }
    [ "$(code "http://127.0.0.1:$PORT/v1/query?index=$QUAR&s=0&t=1")" = "503" ] \
        || { say "[$MODE] quarantined member did not answer 503"; exit 1; }
    [ "$(code "http://127.0.0.1:$PORT/v1/query?index=no-such-tile&s=0&t=1")" = "404" ] \
        || { say "[$MODE] unknown member did not stay 404 while degraded"; exit 1; }

    # 1 healthy of 2 is below quorum: alive (healthz 200) but not ready.
    curl -fsS "http://127.0.0.1:$PORT/healthz" >"$TMP/health.json"
    grep -q '"degraded":true' "$TMP/health.json" || { say "[$MODE] healthz does not flag degradation: $(cat "$TMP/health.json")"; exit 1; }
    [ "$(code "http://127.0.0.1:$PORT/readyz")" = "503" ] || { say "[$MODE] readyz below quorum is not 503"; exit 1; }
    curl -s "http://127.0.0.1:$PORT/readyz" >"$TMP/ready.json"
    grep -q "\"$QUAR\"" "$TMP/ready.json" || { say "[$MODE] readyz does not name the quarantined member: $(cat "$TMP/ready.json")"; exit 1; }

    # The ops block is the overload/degradation dashboard.
    curl -fsS "http://127.0.0.1:$PORT/statsz" >"$TMP/stats.json"
    for key in '"ops"' '"in_flight"' '"shed"' '"panics"' '"deadline_exceeded"' '"quarantined"'; do
        grep -q "$key" "$TMP/stats.json" || { say "[$MODE] statsz lacks $key: see /statsz"; exit 1; }
    done

    kill "$SERVER_PID" && wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
done

# --- a degraded LOD rehearsed by chaos --------------------------------------
# Failing tile-1-1 (the last fine tile, so it owns the highest global ids)
# must leave the hierarchy in place: global ids owned by healthy tiles keep
# answering across tiles, and a coordinate pair straddling two healthy tiles
# is answered by coarse-1.
say "building a 4-shard 2-level LOD container"
"$TMP/sebuild" -kind=se -shards=4 -lod=2 -terrain "$TMP/terrain.off" -pois "$TMP/pois.txt" \
    -out "$TMP/lod.sedx" -eps 0.2 -seed 7
say "serving it with tile-1-1 failed by chaos"
"$TMP/seserve" -index "$TMP/lod.sedx" -addr "127.0.0.1:$PORT" -degraded \
    -chaos-fail-member tile-1-1 >"$TMP/lod.log" 2>&1 &
SERVER_PID=$!
wait_status /healthz 200
stat_count() { curl -fsS "http://127.0.0.1:$PORT/statsz" >"$TMP/lodstats.json" && field "$TMP/lodstats.json" "$1"; }
[ "$(code "http://127.0.0.1:$PORT/v1/query?s=0&t=39")" = "503" ] \
    || { say "global id 39 of the failed tile-1-1 did not answer 503"; exit 1; }
# The highest global id that still answers sits in the last healthy tile,
# so the pair (0, T) crosses tiles and must take a portal or the coarse level.
T=""
for t in $(seq 38 -1 1); do
    if [ "$(code "http://127.0.0.1:$PORT/v1/query?s=0&t=$t")" = "200" ]; then T="$t"; break; fi
done
[ -n "$T" ] || { say "no global id pair answers 200 on the degraded LOD"; exit 1; }
BEFORE="$(( $(stat_count portal_queries) + $(stat_count coarse_queries) ))"
[ "$(code "http://127.0.0.1:$PORT/v1/query?s=0&t=$T")" = "200" ] || { say "global ids 0 and $T do not answer 200"; exit 1; }
AFTER="$(( $(stat_count portal_queries) + $(stat_count coarse_queries) ))"
[ "$AFTER" -gt "$BEFORE" ] || { say "global ids 0 and $T answered without a portal or the coarse level"; exit 1; }
COARSE="$(stat_count coarse_queries)"
[ "$(code "http://127.0.0.1:$PORT/v1/query?sx=10&sy=10&tx=100&ty=20")" = "200" ] \
    || { say "a straddling coordinate pair does not answer 200 on the degraded LOD"; exit 1; }
[ "$(stat_count coarse_queries)" -gt "$COARSE" ] || { say "the straddling coordinate pair did not route to coarse-1"; exit 1; }
say "degraded LOD: ids 0,$T and a straddling coordinate pair answer 200 with tile-1-1 failed"
kill "$SERVER_PID" && wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# --- chaos injection under load ---------------------------------------------
# Every 4th request fails with an injected 503 and every data request gains
# 20ms — loadgen's report must show exactly that shape: successes AND
# injected unavailability, p50 over the injected floor, no transport errors
# (chaos must degrade responses, never break the protocol).
say "serving the pristine container with chaos injection (20ms, 25% errors)"
cp "$TMP/pristine.sedx" "$TMP/multi.sedx"
"$TMP/seserve" -index "$TMP/multi.sedx" -addr "127.0.0.1:$PORT" \
    -chaos-latency 20ms -chaos-error-rate 0.25 >"$TMP/chaos.log" 2>&1 &
SERVER_PID=$!
wait_status /healthz 200
grep -q 'CHAOS ACTIVE' "$TMP/chaos.log" || { say "chaos flags did not announce themselves"; exit 1; }

"$TMP/loadgen" -url "http://127.0.0.1:$PORT/v1/query?index=tile-0-0&s=0&t=1" \
    -rate 100 -duration 2s -json >"$TMP/load.json"
OK="$(field "$TMP/load.json" ok)"
UNAVAIL="$(field "$TMP/load.json" unavailable)"
TRANSPORT="$(field "$TMP/load.json" transport_errors)"
P50="$(field "$TMP/load.json" p50_ms)"
P99="$(field "$TMP/load.json" p99_ms)"
say "loadgen: ok=$OK unavailable=$UNAVAIL transport=$TRANSPORT p50=${P50}ms p99=${P99}ms"
[ "${OK:-0}" -ge 1 ] || { say "no successful requests under chaos"; exit 1; }
[ "${UNAVAIL:-0}" -ge 1 ] || { say "error-rate 0.25 injected no 503s"; exit 1; }
[ "${TRANSPORT:-1}" = "0" ] || { say "chaos produced $TRANSPORT transport errors"; exit 1; }
awk -v p="$P50" 'BEGIN{exit !(p >= 20)}' || { say "p50 ${P50}ms under the injected 20ms floor"; exit 1; }
awk -v a="$P50" -v b="$P99" 'BEGIN{exit !(b >= a)}' || { say "p99 ${P99}ms below p50 ${P50}ms"; exit 1; }

kill "$SERVER_PID" && wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# --- hot-reload recovery ----------------------------------------------------
say "recovery: corrupt start, restore the file, SIGHUP, expect ready"
printf "$(printf '\\%03o' $((ORIG ^ 255)))" \
    | dd of="$TMP/multi.sedx" bs=1 seek="$OFF" count=1 conv=notrunc 2>/dev/null
"$TMP/seserve" -index "$TMP/multi.sedx" -addr "127.0.0.1:$PORT" -degraded >"$TMP/reload.log" 2>&1 &
SERVER_PID=$!
wait_status /healthz 200
[ "$(code "http://127.0.0.1:$PORT/readyz")" = "503" ] || { say "degraded restart is unexpectedly ready"; exit 1; }

cp "$TMP/pristine.sedx" "$TMP/multi.sedx"
kill -HUP "$SERVER_PID"
wait_status /readyz 200
curl -s "http://127.0.0.1:$PORT/readyz" >"$TMP/ready2.json"
grep -q '"generation":1' "$TMP/ready2.json" || { say "reload did not advance the generation: $(cat "$TMP/ready2.json")"; exit 1; }
[ "$(code "http://127.0.0.1:$PORT/v1/query?index=$QUAR&s=0&t=1")" = "200" ] \
    || { say "formerly quarantined member still unserved after reload"; exit 1; }

say "OK (strict refusal and degraded quarantine + quorum, read and mmap; degraded LOD by chaos; chaos visible to loadgen, SIGHUP recovery)"
