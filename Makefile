GO ?= go

.PHONY: check fmt vet test bench-module race lint-fixtures analysis-smoke bench telemetry-smoke compile-smoke serve-smoke trace-smoke mvcc-smoke

## check: everything CI runs — formatting, vet, build+tests, the
## tests of the nested benchmarks module (also the compile gate for the
## signatures benchmarks/ uses), the race detector over the
## concurrency-sensitive packages, the sppc -lint
## self-check over the shipped IR fixtures, the per-diagnostic
## analysis smoke test, the disabled-telemetry overhead smoke test,
## the compiled-vs-interpreted differential tests with the call-path,
## call-depth and allocation guards, ten seconds of their fuzz target
## and a tiny run of the compile experiment, the KV service suite
## plus a tiny run of the serve experiment, the request-tracing smoke
## test plus a sampled run of the serve experiment, and the MVCC snapshot, scan-index and hash-layout suite and ten seconds
## of the scan fuzz target.
check: fmt vet test bench-module race lint-fixtures analysis-smoke telemetry-smoke compile-smoke serve-smoke trace-smoke mvcc-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) build ./...
	$(GO) test ./...

## bench-module: benchmarks/ is its own Go module (BENCHMARK.json's
## ledger), which `go test ./...` from the root does not reach.
bench-module:
	$(GO) test -C benchmarks ./...

## race: the concurrency-sensitive packages under the race detector —
## the memory path (address space and device, which share the store
## bracket, allocator, lanes), the runtimes above it (SafePM's shadow
## writes take the bracket too),
## the concurrent kvstore workloads (writers maintaining the ordered
## index under scanning snapshots among them), and the compiled
## dispatch.
race:
	$(GO) test -race ./internal/vmem ./internal/pmem ./internal/pmemobj ./internal/hooks ./internal/safepm ./internal/kvstore ./internal/telemetry ./internal/trace ./internal/interp ./internal/server ./internal/wire ./client

## lint-fixtures: the clean fixture must lint clean; the laundered one
## must be flagged (non-zero exit) — both outcomes are asserted.
lint-fixtures:
	$(GO) run ./cmd/sppc -lint examples/compiler-pass/clean.ir
	@if $(GO) run ./cmd/sppc -lint examples/compiler-pass/laundered.ir; then \
		echo "laundered.ir unexpectedly passed lint"; exit 1; \
	else echo "laundered.ir flagged as expected"; fi

## analysis-smoke: every seeded-bug fixture must produce exactly its
## diagnostic code (non-zero exit + the rule name in the output), and
## the clean fixture must stay clean — one fixture per linter rule.
analysis-smoke:
	@set -e; \
	for pair in \
		double-flush.ir:double-flush \
		fence-no-flush.ir:fence-no-pending-flush \
		store-after-flush.ir:store-after-flush-before-fence \
		missing-flush.ir:unflushed-pm-store \
		laundered.ir:laundered-pointer; do \
		f=$${pair%%:*}; rule=$${pair##*:}; \
		out="$$($(GO) run ./cmd/sppc -lint examples/compiler-pass/$$f 2>&1)" \
			&& { echo "$$f unexpectedly passed lint"; exit 1; } || true; \
		echo "$$out" | grep -q "$$rule" \
			|| { echo "$$f did not report $$rule:"; echo "$$out"; exit 1; }; \
		echo "$$f -> $$rule ok"; \
	done
	$(GO) run ./cmd/sppc -lint examples/compiler-pass/clean.ir

bench:
	$(GO) run ./cmd/sppbench -exp all -scale 0.02 | tee bench_results.txt

## telemetry-smoke: asserts the disabled-path cost of an instrumented
## counter stays within an order of magnitude of a bare loop — the
## "near-zero cost while off" contract, plus the Prometheus text-format
## golden test that keeps scrapers working.
telemetry-smoke:
	$(GO) test -run 'TestDisabledOverheadSmoke|TestWritePromGolden' ./internal/telemetry -count=1

## compile-smoke: the closure-compiled dispatch must agree with the
## reference interpreter — results, fault verdicts, durable images —
## on every call path too (linked, interpreted callee and caller,
## recursion that regrows the register stack, a budget or a trap inside
## a callee, externals that re-enter Run or scribble on their argument
## window, malformed callees), with the call-depth bound in both
## executors and under `sppc -run`, and the allocation guards (a linked
## call and a callext allocate nothing, a run of kernel-param's shape
## <= 2 objects however many calls it makes); the bitmap allocator must
## round-trip its alloc/free/merge cycle and rebuild every free block
## exactly once at open; ten seconds of the
## compiled-vs-interpreted fuzz target; plus a tiny run of the compile
## experiment end to end, which prints the compiled B/run.
compile-smoke:
	$(GO) test -run 'TestCompile|TestCompiled|TestCall|TestRecursion|TestStepBudget|TestCallee|TestExternalBorrows|TestMalformed|TestLateNoCompile|TestBitmap|TestFbits' ./internal/interp ./internal/transform ./internal/pmemobj -count=1
	$(GO) test -run 'TestRunawayRecursion' ./cmd/sppc -count=1
	$(GO) test -run='^$$' -fuzz=FuzzCompiledVsInterpreted -fuzztime=10s ./internal/transform
	$(GO) run ./cmd/sppbench -exp compile -scale 0.005

## serve-smoke: the KV service suite — multi-tenant clients over a
## real socket, malformed-frame rejection, admission-control shedding
## with bounded latency, kill-and-restart crash recovery — with the
## request path's buffer-ownership contract: the allocation guards
## (steady-state ReadRequest = 0, AppendGet with room = 0, a loopback
## Get <= 2), one read and one write per request, no stale bytes across
## requests, the 64 KiB retention cap, caller-owned client results and
## kvstore copying the keys it keeps, and a loopback 32-row scan <= 3
## allocations over a kvstore scan that allocates none
## (TestScanAllocBudget); ten seconds of the wire stream
## fuzz target; plus a tiny closed-loop run of the serve experiment end
## to end. The staged wire.* rows of benchmarks/ compile against the
## wire package's one-line compatibility wrappers: bench-module, which
## `check` runs, is their compile gate.
serve-smoke:
	$(GO) test ./internal/server ./internal/wire ./client -count=1
	$(GO) test -run 'TestAppendGetAllocs|TestPutCopiesCallerBuffers|TestSnapshotFaultVerdictsMatchLocked|TestScanAllocBudget|TestSnapshotUseAfterRelease' ./internal/kvstore -count=1
	$(GO) test -run 'TestStoreScanRowsAreKept' . -count=1
	$(GO) test -run='^$$' -fuzz=FuzzWireStream -fuzztime=10s ./internal/wire
	$(GO) run ./cmd/sppbench -exp serve -scale 0.002

## trace-smoke: the end-to-end tracing contract — a fully sampled run
## must attribute queue, exec and fence time and surface a slow-request
## exemplar on /debug/slow (TestTraceSmoke), the trace-header wire
## extension must stay backward compatible, and a sampled closed-loop
## serve run must populate the attribution columns.
trace-smoke:
	$(GO) test -run 'TestTraceSmoke|TestTrace|TestSampler|TestSlow' ./internal/server ./internal/wire ./internal/trace -count=1
	@out="$$($(GO) run ./cmd/sppbench -exp serve -scale 0.002 -trace-sample 4)"; \
	echo "$$out"; \
	echo "$$out" | awk '$$1=="SPP" && $$2=="64" { found=1; if ($$7=="-" || $$7=="") bad=1 } \
		END { exit (found && !bad) ? 0 : 1 }' \
		|| { echo "attribution columns not populated for the SPP/64 row"; exit 1; }

## mvcc-smoke: the MVCC snapshot contract — frozen-under-storm property
## test (the snapshot reader keeps a non-zero read rate under the write
## storm), epoch-reclaim leak check, differential fault verdicts on the
## snapshot path and on scans against the locked oracle, mid-storm
## crash recovery, scan oracle (persistent heads included), end-to-end
## OpScan — and the ordered index against its chain-walk oracle
## (prefix-copy regression, pre-activation snapshots, rehash and
## reclaim under a pin, crash + reopen, fault verdicts, hook-check and
## telemetry counts, the reply framing), the hash layout (bucket
## occupancy, a version-0 image migrating at open under every variant,
## the migration crashed at every fence, the probe/rehash series, the
## SafePM preload and the allocator regression behind it), the
## one-transaction put path (head versions under a held snapshot, a
## writer storm and the stamp-after-store schedule; a write that folds a
## reclaim crashed at every fence under every variant; the per-variant
## hook counts of an overwrite and a delete; the allocation budget and
## its independence of the bucket count; the spp_mvcc_* series; a stale
## transaction handle on a reused lane), the scan workspace (a scan
## allocates nothing at 64 shards or one, a loopback scan <= 3 times; a
## parked workspace holds capacity only and no row buffer past 64 KiB;
## nested scans and eight scanners against two writers; a released
## snapshot refused; the point-operation counters), and ten seconds of
## the scan fuzz target.
mvcc-smoke:
	$(GO) test -run 'TestSnapshot|TestEpochReclaim|TestScan|TestCrashRecoveryMidStorm|TestRehashMaint|TestIndex|TestFramedResponse|FuzzKVScanModel|TestPlacement|TestLegacyImage|TestMigrationCrash|TestNewerPlacement|TestLayoutTelemetry|TestSafePMPreload|TestHeadVersion|TestHeadEpoch|TestFoldedReclaim|TestWriteHookCounts|TestPutAllocBudget|TestMVCCTelemetry|TestScanAllocBudget|TestLoopbackScanAllocs|TestPointOpTelemetry' ./internal/kvstore ./internal/server ./internal/wire -count=1
	$(GO) test -run 'TestRedoExtensionBeforeLastFreeRun|TestPlannedFreeLeavesLargeRunAllocatable|TestStaleTxHandle' ./internal/pmemobj -count=1
	$(GO) test -run='^$$' -fuzz=FuzzKVScanModel -fuzztime=10s ./internal/kvstore
