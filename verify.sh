#!/bin/sh
# Tier-1 verification gate. CI runs exactly this; run it locally before
# pushing. The pjslint step enforces the determinism and invariant
# checks described in DESIGN.md ("Determinism invariants & static
# analysis"; `go run ./cmd/pjslint -list` prints them); the -race test
# run includes the double-run audit-log determinism regression for every
# scheduler in the registry. The pjsperf benchmark harness is its own
# module (go.mod with a replace of the root), which the ./... patterns
# above skip, so it is vetted and tested in its own step: its seed-1
# golden digests pin the tallies and audit logs it measures.
set -eu

echo '>> go vet ./...'
go vet ./...
echo '>> go run ./cmd/pjslint ./...'
go run ./cmd/pjslint ./...
echo '>> go build ./...'
go build ./...
echo '>> go test -race ./...'
go test -race ./...
echo '>> (cd pjsperf && go vet ./... && go test ./...)'
(cd pjsperf && go vet ./... && go test ./...)
echo 'verify: ok'
