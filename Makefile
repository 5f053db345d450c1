GO ?= go

.PHONY: check vet build test race cover recovery protect determinism fuzz bench bench-diff soak kv kv-large

# check is the everyday gate: build plus the full -race suite and the
# servebench module's vet and tests.
check: build test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# test is the tier-1 gate: vet plus the full suite under the race
# detector (the parallel experiment harness and the concurrent telemetry
# determinism tests make every package worth racing). The explicit
# -timeout covers internal/experiments on a single-core host, where the
# racing suite overshoots go test's default 600s per-package limit.
# servebench/ is a nested module that root ./... never builds, so it is
# vetted and tested on its own: a change to an API it calls fails here.
test: vet
	$(GO) test -race -timeout 1800s ./...
	cd servebench && $(GO) vet ./... && $(GO) test ./...

race: test

# cover prints the per-package statement-coverage summary.
cover:
	$(GO) test -cover ./...

# recovery runs the failure-recovery suite on its own under the race
# detector: QP state machine, crash/restart, deadlines, reconnects.
recovery:
	$(GO) test -race -run 'Recovery|Crash|Deadline|QPState|Reconnect' ./internal/roce ./internal/core ./internal/experiments .

# protect runs the memory-protection suite on its own under the race
# detector: MR table semantics, the responder NAK matrix at both the
# transport and NIC level, the kernel DMA sandbox, the rogue-requester
# sweep and the invariant-9 fire drill.
protect:
	$(GO) test -race ./internal/mr
	$(GO) test -race -run 'MR|NAKMatrix|RKey|RemoteKey|Protect|Rogue|Invariant9|Sandbox|Revalidat|Fault' ./internal/roce ./internal/core ./internal/kernels/traversal ./internal/experiments .

# determinism runs the byte-identity suite on its own under the race
# detector: same-seed repeated runs and -j invariance of the figure
# generators, the engine, the JSONL recorder, and the metrics/trace/JSONL
# exports of every experiments.Scenarios() entry (clean, chaos, incast,
# kv, kvlarge — TestScenarioExportsByteIdentical).
determinism:
	$(GO) test -race -count=1 -run 'Determinis|ByteIdentical|IdenticalAcross' ./internal/sim ./internal/experiments ./internal/telemetry/... .

# kv runs the replicated-KV suite on its own under the race detector:
# slot codec and layout, clean protocol semantics, failover edge cases,
# the Pilaf-table tombstone machinery,
# and the chaos-kv sweep with its JSONL alert assertions.
kv:
	$(GO) test -race ./internal/kvserve ./internal/kvstore
	$(GO) test -race -run 'KV' ./internal/experiments

# kv-large runs the large-value torn-read suite on its own under the
# race detector: extent codec and spill refs, the consistency-kernel
# read path, torn-read detection/classification/retry, orphan reaping,
# the failover edge cases around the extent-then-publish window, and
# the chaos-kv-large sweep with its JSONL alert assertions.
kv-large:
	$(GO) test -race -run 'Extent|Large|Torn|Spill|MidRepair' ./internal/kvserve
	$(GO) test -race -run 'KVLarge' ./internal/experiments

# fuzz smoke-runs the checked-in fuzzers for 10s each on top of their
# seed corpora (packet header round-trip, CRC slicing equivalence, QP
# state-machine exactly-once under random fault interleavings, RETH
# validation never-false-accept, switch arbitration conservation
# under random arrival interleavings, extent codec round-trip with any
# single-bit flip detected as torn).
fuzz:
	$(GO) test ./internal/packet -fuzz=FuzzHeaderRoundTrip -fuzztime=10s
	$(GO) test ./internal/crc -fuzz=FuzzCRCSlicingEquivalence -fuzztime=10s
	$(GO) test ./internal/roce -fuzz=FuzzQPStateMachine -fuzztime=10s
	$(GO) test ./internal/roce -fuzz=FuzzRETHValidation -fuzztime=10s
	$(GO) test ./internal/telemetry/export -fuzz=FuzzEnvelopeRoundTrip -fuzztime=10s
	$(GO) test ./internal/fabric -fuzz=FuzzSwitchArbitration -fuzztime=10s
	$(GO) test ./internal/kvserve -fuzz=FuzzExtentCodec -fuzztime=10s

# soak runs the monitoring gate (DESIGN.md §14): every strombench
# -scenario (clean, chaos, incast, kv, kvlarge) under -quick — the
# chaos, kv and kvlarge ones with their sweeps — each streaming JSONL
# telemetry that stromtail then gates on. The
# clean stream may only trip the loss-phase rules (out-discards,
# fcs-err, and their per-QP retransmission view retry-storm) and must
# trip out-discards (the 4% phase is deliberate); the chaos stream must
# trip out-discards, remote-access, qp-errors and link-flap (the flap
# phases are scheduled, so a silent flap rule means the drop-cause
# breakdown went dark), and may additionally trip fcs-err, retry-storm
# and the no-progress watchdog. The incast
# stream puts the PFC/ECN switch in the path (4→1 storm, DCQCN enabled
# mid-run) and must trip the pfc-pause and ecn-marked rules;
# resume-burst pool overflows may additionally trip out-discards and,
# through the retransmissions those discards force, retry-storm. The
# kv stream runs the replicated-KV storm regime (loss + crash cycles +
# incast blast + rogue) and must trip kv-heartbeat — that alert IS the
# failure detector the failover controller runs on — and retry-storm;
# the rest of its allowlist is the chaos fallout (crash-flushed QPs,
# rogue NAKs, discarded in-flight frames, failover latency tails). The
# kvlarge stream runs the large-value full-fault regime (racing
# overwriter + loss + crash cycles) and must trip torn-read — that
# alert IS the torn-read detection surface — and kv-heartbeat. Any
# other alert fails the target.
soak:
	$(GO) run ./cmd/strombench -quick -jsonl SOAK_clean.jsonl table1 > /dev/null
	$(GO) run ./cmd/stromtail -allow 'out-discards|fcs-err|retry-storm' -require 'out-discards' SOAK_clean.jsonl
	$(GO) run ./cmd/strombench -quick -scenario chaos -jsonl SOAK_chaos.jsonl > /dev/null
	$(GO) run ./cmd/stromtail -allow 'out-discards|fcs-err|link-flap|remote-access|qp-errors|watchdog|retry-storm' -require 'out-discards|link-flap|remote-access|qp-errors' SOAK_chaos.jsonl
	$(GO) run ./cmd/strombench -quick -scenario incast -jsonl SOAK_incast.jsonl table1 > /dev/null
	$(GO) run ./cmd/stromtail -allow 'pfc-pause|ecn-marked|out-discards|retry-storm' -require 'pfc-pause|ecn-marked' SOAK_incast.jsonl
	$(GO) run ./cmd/strombench -quick -scenario kv -jsonl SOAK_kv.jsonl > /dev/null
	$(GO) run ./cmd/stromtail -allow 'out-discards|retry-storm|kv-heartbeat|qp-errors|remote-access|watchdog|pfc-pause|ecn-marked|op-latency-p99|fcs-err' -require 'kv-heartbeat|retry-storm' SOAK_kv.jsonl
	$(GO) run ./cmd/strombench -quick -scenario kvlarge -jsonl SOAK_kvlarge.jsonl > /dev/null
	$(GO) run ./cmd/stromtail -allow 'out-discards|retry-storm|kv-heartbeat|torn-read|qp-errors|remote-access|watchdog|pfc-pause|ecn-marked|op-latency-p99|fcs-err' -require 'torn-read|kv-heartbeat' SOAK_kvlarge.jsonl

# bench runs the microbenchmarks (macro benches plus the scheduler and
# process, telemetry, recorder tick, packet, crc and roce hot paths),
# then records bench snapshots: BENCH_quick.json (quick suite — the
# bench-diff gate) and BENCH_pr6.json (default suite — the committed
# per-PR trajectory). Snapshot wall times are host dependent; figure
# values are deterministic.
BENCHNOTE = figure values are deterministic at seed 1; wall_ms series depend on the host (see gomaxprocs/num_cpu)
bench:
	$(GO) test -bench=. -benchmem . ./internal/sim ./internal/telemetry ./internal/telemetry/export ./internal/packet ./internal/crc ./internal/roce
	$(GO) run ./cmd/strombench -quick -bench BENCH_quick.json -benchnote "$(BENCHNOTE)" > /dev/null
	$(GO) run ./cmd/strombench -bench BENCH_pr6.json -benchnote "$(BENCHNOTE)" > /dev/null
	$(GO) run ./cmd/strombench -quick -scenario chaos chaos-recovery > /dev/null

# bench-diff reruns the quick suite and gates against the committed
# snapshot: non-zero exit when a deterministic figure value drifted by
# more than 10%, a series vanished, or the whole-suite wall total grew
# by more than 50%. Per-experiment wall times are recorded but not
# gated — on a shared host they spike too much to fail CI on; the
# deterministic values are the tight gate.
bench-diff:
	$(GO) run ./cmd/strombench -quick -bench BENCH_head.json > /dev/null
	$(GO) run ./cmd/stromres diff BENCH_quick.json BENCH_head.json
