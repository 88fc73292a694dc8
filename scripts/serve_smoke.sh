#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the index build/store/serve
# pipeline, run by `make serve-smoke` and CI:
#
#   1. generate a small terrain + POI set (terraingen)
#   2. build and serialize an SE index (sebuild -kind=se), an A2A index
#      (sebuild -kind=a2a), a 2-shard multi container (sebuild -shards=2)
#      and a 4-shard 2-level LOD hierarchy (sebuild -shards=4 -lod=2); build
#      the se and LOD containers again with another -workers and cmp them
#   3. answer a query offline with sequery
#   4. start seserve on the same container, hit /healthz, /v1/query,
#      /v1/path, /v1/nearest (single and k=3), /v1/matrix, /v1/isochrone
#      and /statsz with curl
#   5. assert the served distance equals sequery's answer, for every kind;
#      assert /v1/path returns a GeoJSON LineString on the single and the
#      2-shard containers; assert a 1x1 /v1/matrix cell equals the scalar
#      answer (single and named-member); for the multi container also
#      assert routing by member name and by coordinates, the unnamed
#      k-nearest fan-out with member tags, that a repeated path is a
#      query cache hit in /statsz and that a repeated id distance, which
#      the index answers directly, is not
#
# Requires: go, curl, awk. Exits non-zero on any mismatch.
set -eu

PORT="${SMOKE_PORT:-18080}"
TMP="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

say() { echo "serve-smoke: $*"; }

say "building binaries"
go build -o "$TMP" ./cmd/terraingen ./cmd/sebuild ./cmd/sequery ./cmd/seserve

say "generating terrain"
"$TMP/terraingen" -out "$TMP/terrain.off" -pois "$TMP/pois.txt" \
    -nx 13 -ny 13 -dx 10 -amp 30 -npoi 40 -seed 7

wait_healthy() {
    for _ in $(seq 1 50); do
        if curl -fsS "http://127.0.0.1:$PORT/healthz" >"$TMP/health.json" 2>/dev/null; then
            return 0
        fi
        sleep 0.1
    done
    say "server did not become healthy"; exit 1
}

# curl_json URL -> stdout; fails loudly on HTTP errors.
curl_json() { curl -fsS "$1"; }

# field FILE KEY -> numeric value of "key": extracted without jq.
field() { awk -v k="\"$2\":" 'BEGIN{RS=","} index($0,k){sub(/.*:/,""); gsub(/[^0-9.eE+-]/,""); print; exit}' "$1"; }

# same_across_workers OUT ARGS... rebuilds $TMP/OUT (built with -workers 4)
# sequentially from the same ARGS and fails unless the two files are
# byte-identical: the build's output must not depend on the worker count.
same_across_workers() {
    out="$1"; shift
    "$TMP/sebuild" "$@" -out "$TMP/w1-$out" -workers 1 >/dev/null
    cmp "$TMP/$out" "$TMP/w1-$out" || { say "$out differs between -workers 4 and -workers 1"; exit 1; }
    say "$out is byte-identical at -workers 4 and 1"
}

# --- SE kind ----------------------------------------------------------------
say "building se index"
"$TMP/sebuild" -kind=se -terrain "$TMP/terrain.off" -pois "$TMP/pois.txt" \
    -out "$TMP/se.sedx" -eps 0.2 -seed 7 -check -workers 4
same_across_workers se.sedx -kind=se -terrain "$TMP/terrain.off" -pois "$TMP/pois.txt" -eps 0.2 -seed 7

WANT_SE="$("$TMP/sequery" -oracle "$TMP/se.sedx" -s 0 -t 5 | awk -F'= ' '{print $2}' | awk '{print $1}')"
[ -n "$WANT_SE" ] || { say "sequery produced no SE answer"; exit 1; }
say "sequery says d(0,5) = $WANT_SE"

"$TMP/seserve" -index "$TMP/se.sedx" -addr "127.0.0.1:$PORT" &
SERVER_PID=$!
wait_healthy
grep -q '"kind":"se"' "$TMP/health.json" || { say "healthz kind mismatch: $(cat "$TMP/health.json")"; exit 1; }

curl_json "http://127.0.0.1:$PORT/v1/query?s=0&t=5" >"$TMP/q.json"
GOT_SE="$(field "$TMP/q.json" distance)"
say "seserve says d(0,5) = $GOT_SE"
[ "$GOT_SE" = "$WANT_SE" ] || { say "SE distance mismatch: sequery=$WANT_SE server=$GOT_SE"; exit 1; }

# Path reporting on the single container: a GeoJSON LineString Feature
# whose vertex count is sane, served and via the CLI.
curl_json "http://127.0.0.1:$PORT/v1/path?s=0&t=5" >"$TMP/p.json"
grep -q '"LineString"' "$TMP/p.json" || { say "/v1/path is not a LineString: $(cat "$TMP/p.json")"; exit 1; }
PVERTS="$(field "$TMP/p.json" vertices)"
[ "${PVERTS:-0}" -ge 2 ] 2>/dev/null || { say "/v1/path has $PVERTS vertices, want >= 2"; exit 1; }
PDIST="$(field "$TMP/p.json" distance)"
say "seserve path d(0,5) = $PDIST over $PVERTS vertices"
"$TMP/sequery" -oracle "$TMP/se.sedx" -path -s 0 -t 5 >"$TMP/pcli.json" 2>/dev/null
grep -q '"LineString"' "$TMP/pcli.json" || { say "sequery -path produced no LineString"; exit 1; }

curl_json "http://127.0.0.1:$PORT/v1/nearest?x=40&y=40" >/dev/null

# The matrix endpoint: a 1x1 sources×targets matrix must equal the scalar
# answer, served and via the CLI.
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"sources":[0],"targets":[5]}' "http://127.0.0.1:$PORT/v1/matrix" >"$TMP/m.json"
GOT_MX="$(field "$TMP/m.json" distances)"
say "seserve matrix cell (0,5) = $GOT_MX"
[ "$GOT_MX" = "$WANT_SE" ] || { say "matrix cell mismatch: scalar=$WANT_SE matrix=$GOT_MX"; exit 1; }
CLI_MX="$("$TMP/sequery" -oracle "$TMP/se.sedx" -matrix -sources 0 -targets 5 2>/dev/null)"
[ "$CLI_MX" = "$WANT_SE" ] || { say "sequery -matrix mismatch: scalar=$WANT_SE matrix=$CLI_MX"; exit 1; }

# k-nearest: three neighbors, in ascending distance order.
curl_json "http://127.0.0.1:$PORT/v1/nearest?x=40&y=40&k=3" >"$TMP/k.json"
grep -q '"k":3' "$TMP/k.json" || { say "nearest k=3 reply lacks k: $(cat "$TMP/k.json")"; exit 1; }
KCOUNT="$(field "$TMP/k.json" count)"
[ "${KCOUNT:-0}" = "3" ] || { say "nearest k=3 returned count=$KCOUNT"; exit 1; }

# Isochrone: a GeoJSON FeatureCollection with a contour.
curl_json "http://127.0.0.1:$PORT/v1/isochrone?s=0&d=500" >"$TMP/iso.json"
grep -q '"FeatureCollection"' "$TMP/iso.json" || { say "/v1/isochrone is not a FeatureCollection"; exit 1; }
grep -q '"contour"' "$TMP/iso.json" || { say "/v1/isochrone has no contour feature"; exit 1; }

curl_json "http://127.0.0.1:$PORT/statsz" >"$TMP/stats.json"
grep -q '"/v1/query"' "$TMP/stats.json" || { say "statsz missing endpoint metrics"; exit 1; }
grep -q '"/v1/matrix"' "$TMP/stats.json" || { say "statsz missing /v1/matrix metrics"; exit 1; }

kill "$SERVER_PID" && wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# --- A2A kind ---------------------------------------------------------------
say "building a2a index"
"$TMP/sebuild" -kind=a2a -terrain "$TMP/terrain.off" -out "$TMP/a2a.sedx" -eps 0.3 -seed 7

WANT_A2A="$("$TMP/sequery" -oracle "$TMP/a2a.sedx" -xy -sx 20 -sy 20 -tx 100 -ty 110 | awk -F'= ' '{print $2}' | awk '{print $1}')"
[ -n "$WANT_A2A" ] || { say "sequery produced no A2A answer"; exit 1; }
say "sequery says d((20,20),(100,110)) = $WANT_A2A"

"$TMP/seserve" -index "$TMP/a2a.sedx" -addr "127.0.0.1:$PORT" -mmap &
SERVER_PID=$!
wait_healthy
grep -q '"kind":"a2a"' "$TMP/health.json" || { say "healthz kind mismatch: $(cat "$TMP/health.json")"; exit 1; }

curl_json "http://127.0.0.1:$PORT/v1/query?sx=20&sy=20&tx=100&ty=110" >"$TMP/q2.json"
GOT_A2A="$(field "$TMP/q2.json" distance)"
say "seserve says d((20,20),(100,110)) = $GOT_A2A"
[ "$GOT_A2A" = "$WANT_A2A" ] || { say "A2A distance mismatch: sequery=$WANT_A2A server=$GOT_A2A"; exit 1; }

# Coordinate-addressed path on the a2a container.
curl_json "http://127.0.0.1:$PORT/v1/path?sx=20&sy=20&tx=100&ty=110" >"$TMP/p2.json"
grep -q '"LineString"' "$TMP/p2.json" || { say "a2a /v1/path is not a LineString: $(cat "$TMP/p2.json")"; exit 1; }

kill "$SERVER_PID" && wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# --- sharded multi kind -----------------------------------------------------
say "building 2-shard multi index"
"$TMP/sebuild" -kind=se -shards=2 -terrain "$TMP/terrain.off" -pois "$TMP/pois.txt" \
    -out "$TMP/multi.sedx" -eps 0.2 -seed 7

WANT_M="$("$TMP/sequery" -oracle "$TMP/multi.sedx" -index tile-0-0 -s 0 -t 1 | awk -F'= ' '{print $2}' | awk '{print $1}')"
[ -n "$WANT_M" ] || { say "sequery produced no multi answer"; exit 1; }
say "sequery says tile-0-0 d(0,1) = $WANT_M"

"$TMP/seserve" -index "$TMP/multi.sedx" -addr "127.0.0.1:$PORT" -cache 256 &
SERVER_PID=$!
wait_healthy
grep -q '"kind":"multi"' "$TMP/health.json" || { say "healthz kind mismatch: $(cat "$TMP/health.json")"; exit 1; }
grep -q 'tile-0-0' "$TMP/health.json" || { say "healthz lists no members: $(cat "$TMP/health.json")"; exit 1; }

# Route by member name. Id distances are answered from the index, never
# from the query cache, so the repeat of the same query must add no hit.
for _ in 1 2; do
    curl_json "http://127.0.0.1:$PORT/v1/query?index=tile-0-0&s=0&t=1" >"$TMP/qm.json"
done
GOT_M="$(field "$TMP/qm.json" distance)"
say "seserve says tile-0-0 d(0,1) = $GOT_M"
[ "$GOT_M" = "$WANT_M" ] || { say "multi distance mismatch: sequery=$WANT_M server=$GOT_M"; exit 1; }
curl_json "http://127.0.0.1:$PORT/statsz" >"$TMP/statsq.json"
HITS_Q="$(field "$TMP/statsq.json" hits)"
[ "$HITS_Q" = "0" ] || { say "repeated id query recorded cache hits ('$HITS_Q'), want 0"; exit 1; }

# Route /v1/nearest by coordinates: the left half of the terrain belongs to
# tile-0-0, the right half to tile-1-0.
curl_json "http://127.0.0.1:$PORT/v1/nearest?x=10&y=60" >"$TMP/n0.json"
grep -q '"index":"tile-0-0"' "$TMP/n0.json" || { say "nearest (10,60) routed wrong: $(cat "$TMP/n0.json")"; exit 1; }
curl_json "http://127.0.0.1:$PORT/v1/nearest?x=110&y=60" >"$TMP/n1.json"
grep -q '"index":"tile-1-0"' "$TMP/n1.json" || { say "nearest (110,60) routed wrong: $(cat "$TMP/n1.json")"; exit 1; }

# Path reporting routes across the sharded container by member name and
# returns valid GeoJSON carrying the answering member; the repeat of the
# same path must be a cache hit (checked in /statsz below).
for _ in 1 2; do
    curl_json "http://127.0.0.1:$PORT/v1/path?index=tile-0-0&s=0&t=1" >"$TMP/pm.json"
done
grep -q '"LineString"' "$TMP/pm.json" || { say "sharded /v1/path is not a LineString: $(cat "$TMP/pm.json")"; exit 1; }
grep -q '"index":"tile-0-0"' "$TMP/pm.json" || { say "sharded /v1/path lost its member name: $(cat "$TMP/pm.json")"; exit 1; }
PMV="$(field "$TMP/pm.json" vertices)"
[ "${PMV:-0}" -ge 2 ] 2>/dev/null || { say "sharded /v1/path has $PMV vertices, want >= 2"; exit 1; }
say "sharded path tile-0-0 d(0,1): $PMV vertices"

# Matrix on the sharded container: member-name routing, cell equals the
# scalar answer of the same member-local pair.
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"index":"tile-0-0","sources":[0],"targets":[1]}' "http://127.0.0.1:$PORT/v1/matrix" >"$TMP/mm.json"
GOT_MM="$(field "$TMP/mm.json" distances)"
say "seserve matrix tile-0-0 cell (0,1) = $GOT_MM"
[ "$GOT_MM" = "$WANT_M" ] || { say "sharded matrix mismatch: scalar=$WANT_M matrix=$GOT_MM"; exit 1; }

# Unnamed k-nearest fans out across every member and tags each neighbor
# with the member that owns its id.
curl_json "http://127.0.0.1:$PORT/v1/nearest?x=60&y=60&k=3" >"$TMP/km.json"
KMC="$(field "$TMP/km.json" count)"
[ "${KMC:-0}" = "3" ] || { say "sharded nearest k=3 returned count=$KMC"; exit 1; }
grep -q '"index":"tile-' "$TMP/km.json" || { say "sharded nearest k=3 lost member tags: $(cat "$TMP/km.json")"; exit 1; }

# Unknown member names are 404s.
CODE="$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT/v1/query?index=nope&s=0&t=1")"
[ "$CODE" = "404" ] || { say "unknown member returned $CODE, want 404"; exit 1; }

curl_json "http://127.0.0.1:$PORT/statsz" >"$TMP/statsm.json"
grep -q '"tile-1-0"' "$TMP/statsm.json" || { say "statsz missing per-member stats"; exit 1; }
HITS="$(field "$TMP/statsm.json" hits)"
MISSES="$(field "$TMP/statsm.json" misses)"
say "cache: hits=$HITS misses=$MISSES"
[ "${HITS:-0}" -ge 1 ] 2>/dev/null || { say "expected >= 1 cache hit (the repeated path), got '$HITS'"; exit 1; }
[ "${MISSES:-0}" -ge 1 ] 2>/dev/null || { say "expected >= 1 cache miss, got '$MISSES'"; exit 1; }

kill "$SERVER_PID" && wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# --- 2-level LOD hierarchy under a memory budget ----------------------------
say "building 4-shard 2-level LOD index"
"$TMP/sebuild" -kind=se -shards=4 -lod=2 -terrain "$TMP/terrain.off" -pois "$TMP/pois.txt" \
    -out "$TMP/lod.sedx" -eps 0.2 -seed 7 -workers 4
same_across_workers lod.sedx -kind=se -shards=4 -lod=2 -terrain "$TMP/terrain.off" -pois "$TMP/pois.txt" -eps 0.2 -seed 7

# Global-id queries need no member name on a hierarchical container; pick a
# pair that straddles tiles (id 0 lives in the first fine tile, the last id
# in the last) and get the offline answer.
WANT_X="$("$TMP/sequery" -oracle "$TMP/lod.sedx" -s 0 -t 39 | awk -F'= ' '{print $2}' | awk '{print $1}')"
[ -n "$WANT_X" ] || { say "sequery produced no global-id answer"; exit 1; }
say "sequery says global d(0,39) = $WANT_X"

# Serve under a 1-byte budget: every member is lazy, every fault immediately
# exceeds the budget, so the resident set must evict — the container serves
# while never holding more than ~one decoded tile.
"$TMP/seserve" -index "$TMP/lod.sedx" -addr "127.0.0.1:$PORT" -mem-budget 1 &
SERVER_PID=$!
wait_healthy
grep -q '"kind":"multi"' "$TMP/health.json" || { say "healthz kind mismatch: $(cat "$TMP/health.json")"; exit 1; }

# Cross-tile global-id query: the served answer must equal sequery's.
curl_json "http://127.0.0.1:$PORT/v1/query?s=0&t=39" >"$TMP/qx.json"
GOT_X="$(field "$TMP/qx.json" distance)"
say "seserve says global d(0,39) = $GOT_X"
[ "$GOT_X" = "$WANT_X" ] || { say "cross-tile distance mismatch: sequery=$WANT_X server=$GOT_X"; exit 1; }

# Cross-tile path: one LineString stitched across the seam.
curl_json "http://127.0.0.1:$PORT/v1/path?s=0&t=39" >"$TMP/px.json"
grep -q '"LineString"' "$TMP/px.json" || { say "cross-tile /v1/path is not a LineString: $(cat "$TMP/px.json")"; exit 1; }
PXV="$(field "$TMP/px.json" vertices)"
[ "${PXV:-0}" -ge 2 ] 2>/dev/null || { say "cross-tile /v1/path has $PXV vertices, want >= 2"; exit 1; }

# A coordinate pair straddling two tiles routes through the hierarchy
# instead of the legacy cross-member rejection.
curl_json "http://127.0.0.1:$PORT/v1/query?sx=10&sy=60&tx=110&ty=60" >"$TMP/qc.json"
GOT_C="$(field "$TMP/qc.json" distance)"
[ -n "$GOT_C" ] || { say "straddling coordinate query failed: $(cat "$TMP/qc.json")"; exit 1; }
say "straddling d((10,60),(110,60)) = $GOT_C"

# A few more global pairs to churn the resident set under the 1-byte budget.
for T in 10 20 30 39; do
    curl_json "http://127.0.0.1:$PORT/v1/query?s=0&t=$T" >/dev/null
done

# The /statsz tiles block must show the hierarchy and the budget at work:
# 2 levels, portals present, faults recorded, and at least one eviction.
curl_json "http://127.0.0.1:$PORT/statsz" >"$TMP/statsl.json"
grep -q '"tiles"' "$TMP/statsl.json" || { say "statsz has no tiles block"; exit 1; }
TLEVELS="$(field "$TMP/statsl.json" levels)"
[ "${TLEVELS:-0}" = "2" ] || { say "tiles.levels=$TLEVELS, want 2"; exit 1; }
TPORTALS="$(field "$TMP/statsl.json" portals)"
[ "${TPORTALS:-0}" -ge 1 ] 2>/dev/null || { say "tiles.portals=$TPORTALS, want >= 1"; exit 1; }
TBUDGET="$(field "$TMP/statsl.json" budget_bytes)"
[ "${TBUDGET:-0}" = "1" ] || { say "tiles.budget_bytes=$TBUDGET, want 1"; exit 1; }
TFAULTS="$(field "$TMP/statsl.json" faults)"
[ "${TFAULTS:-0}" -ge 1 ] 2>/dev/null || { say "tiles.faults=$TFAULTS, want >= 1"; exit 1; }
TEVICT="$(field "$TMP/statsl.json" evictions)"
[ "${TEVICT:-0}" -ge 1 ] 2>/dev/null || { say "tiles.evictions=$TEVICT, want >= 1"; exit 1; }
say "tiles: levels=$TLEVELS portals=$TPORTALS faults=$TFAULTS evictions=$TEVICT (budget 1 byte)"

say "OK (se + a2a + sharded multi + LOD-under-budget served, answers match sequery, path cache hit recorded, id query uncached)"
