// Package repro reproduces Mühlenfeld & Wotawa, "Fault Detection in
// Multi-Threaded C++ Server Applications" (ENTCS 174, 2007) as a Go library:
// an Eraser/Helgrind-style lock-set race detector with the paper's two
// improvements (corrected hardware bus-lock emulation and automatic
// destructor annotation), running on a deterministic virtual machine with a
// synthetic C++ runtime and SIP proxy server as the system under test.
//
// # Analysis pipelines
//
// Analysis runs in two modes, both producing byte-identical reports through
// the same pipeline (engine.Sequential):
//
//   - online: the tool pipeline attached to the VM observes events as the
//     guest executes (internal/core, the paper's on-the-fly mode);
//   - offline: a recorded binary trace (internal/tracelog) is replayed into
//     the same pipeline post-mortem (§2.2).
//
// # The tool registry
//
// Where the paper runs each analysis as a separate Valgrind tool — one
// execution per tool, and one replay per detector configuration — this
// reproduction registers any number of tools (trace.ToolSpec) and runs them
// all over a SINGLE pass of the event stream: several race detector
// configurations side by side, plus the lock-order deadlock detector,
// memcheck and the view-consistency checker. Each detector package exports a
// Spec constructor declaring its name and routing class;
// core.Options.Tools (or the -tools flag of racecheck, traced and
// traceload) selects the registry for a run.
//
// Every tool instance is panic-isolated and writes to its own
// report.Collector, whose sites are stamped with the global sequence number
// of the event that produced them. The single-pass pipeline
// (engine.Sequential) delivers batch-major: events gather in one pooled
// 512-event batch — a recorded log is decoded straight into it
// (tracelog.Decoder.NextBatch), live events are copied into it — and a batch
// is handed to one tool at a time under a single recover, the sequence number
// stamped per event, so the report is the one event-by-event delivery gives.
// A tool that panics is disabled from that event on (the engine keeps the
// error for Close) and its siblings are unaffected; a partly filled batch is
// delivered by Snapshot and Close. At the end of the stream, end-of-phase
// passes (trace.Finisher) run under the same isolation, and report.Merge
// folds all collectors into one report ordered by global first-seen
// occurrence across tools. The wall time each tool spends in its handlers is
// measured per batch (engine.Sequential.ToolTimes).
//
// # The engine (internal/engine)
//
// engine.Sequential decodes the event stream once, on the caller's
// goroutine, and delivers every event to every registered tool; the merged
// multi-tool report is deterministic and the same whether the stream is live
// or replayed. Tools share no state, so one pass over all of them equals
// running each alone and merging the reports — pinned for all six tools at
// once under all three paper configurations.
//
// A tool's routing class (trace.Routing) does not change what it sees. It is
// the tool's shed priority under overload: the ingest server's degradation
// ladder never sheds the block-routed core detectors (trace.RouteBlock —
// lockset, DJIT, hybrid, memcheck), sheds the single-routed view-consistency
// checker first (trace.RouteSingle — highlevel) and the broadcast lock-order
// detector above that (trace.RouteBroadcast — deadlock).
//
// # The snapshot lifecycle
//
// The pipeline additionally supports mid-stream snapshots
// (engine.Sequential.Snapshot): a non-perturbing checkpoint that returns the
// deterministic merged report of everything analysed so far while the stream
// keeps flowing. It delivers the partly filled batch, deep-copies every
// tool's collector (report.Collector.Clone) and merges the copies. Because
// sites are ordered by first-seen sequence, a snapshot's site manifest
// (report.Collector.Manifest) is always a prefix-consistent subset of the
// final manifest (report.PrefixConsistent): same leading sites, counts not
// yet complete. Taking snapshots at any points never changes the final
// report — byte-identical to a snapshot-free run, pinned by
// TestSnapshotDeterminism for all six tools under -race. Finisher passes do
// not run at snapshots (they may mutate tool state), so end-of-stream-only
// warnings appear only in the final report.
//
// # Conformance scenarios (internal/scenario)
//
// The paper's evaluation seeds a handful of known bugs into one SIP server;
// internal/scenario generalises that into a generator: seeded random guest
// programs over the full VM API, each planting bugs from a fixed catalog
// with known ground truth —
//
//   - race-ww: concurrent unlocked writes (lockset + DJIT + hybrid)
//   - race-lockset-only: unlocked writes ordered by a semaphore handoff —
//     the lock-set detector must report, happens-before tools must NOT
//   - lost-signal: a condition-variable signal provably lost under every
//     schedule; the timed-out waiter then races the producer (all three)
//   - lock-order: an inverted acquisition order, serialised so the run
//     itself never deadlocks (deadlock tool)
//   - use-after-free / double-free (memcheck)
//   - highlevel-split: two fields updated as a unit by one thread and
//     field-by-field by another, fully locked (view-consistency checker)
//
// Every bug is constructed to be schedule-independent (its expected tools
// report it under EVERY scheduler seed), and every scenario has a bug-free
// control variant that must produce zero warnings. The conformance suite
// (internal/scenario/scenario_conformance_test.go) runs each scenario
// through all six tools live and as an offline replay across several
// scheduler seeds and asserts byte-identical reports across both shapes,
// zero catalog false negatives and clean controls.
//
// cmd/scenariogen generates, describes and verifies scenarios; a committed
// golden corpus (internal/scenario/testdata/golden) pins the generator and
// the trace encoding, and seeds the tracelog decoder fuzz target. A
// conformance failure prints its generator and scheduler seeds; reproduce it
// with
//
//	go run ./cmd/scenariogen -seed <gen-seed> -sched <sched-seed> -report
//
// # The live trace-ingest server (internal/ingest)
//
// The paper's tools watched a long-running SIP server under production
// traffic; internal/ingest is that deployment shape. It holds the daemon
// alone: the router tier is internal/fleet, and the accept loop and the
// session rollup the two share live in the leaf package internal/serve.
// cmd/traced is a long-running daemon accepting many concurrent connections
// (unix socket or TCP), each carrying one length-framed trace stream; every
// connection becomes an independent session analysed by its own engine
// pipeline (engine.Sequential), so a session's report is byte-identical to
// an offline replay of the same trace.
//
//   - Framing (internal/tracelog frame layer): a framed stream is a 4-byte
//     magic plus [kind][uvarint length][payload] frames; the offline log
//     format is exactly the payload of events frames. An explicit end frame
//     marks the clean end — truncation anywhere else is io.ErrUnexpectedEOF,
//     hostile length claims are rejected before allocation, and
//     FuzzFramedStream covers the whole untrusted surface (metadata frames
//     included).
//   - Streaming resolver: metadata frames (tracelog.FrameMetadata) carry the
//     client's interned stack/block tables, interleaved anywhere in the
//     stream; the server accumulates them into a per-session
//     tracelog.TableResolver, so live reports resolve call stacks and block
//     provenance byte-identically to an offline replay holding the
//     recording VM. Sessions without metadata render unresolved, exactly as
//     before.
//   - Lifecycle: sessions move open → streaming → drained → reported, or
//     fail from any state (torn stream, tool panic, idle timeout, forced
//     shutdown); the registry retains terminal sessions for the
//     cross-session aggregate (per-tool warning counts, summed tool
//     summaries, and a report.Merge of every reported session), served to
//     "aggregate" query connections.
//   - Incremental reports: with Config.ReportInterval set, each streaming
//     session periodically takes an engine snapshot and stores the rendered
//     mid-stream report plus its site manifest; "session <name>" and
//     "snapshots <name>" query connections read them while the stream is
//     still flowing — the never-ending-stream reporting mode a production
//     daemon needs. Every snapshot manifest is prefix-consistent with the
//     session's final manifest, and the final report is unaffected.
//   - Retention: Config.RetainSessions bounds the registry of a long-lived
//     daemon. Beyond the bound, the oldest terminal sessions fold into a
//     running aggregate collector (counts, summaries and merged warnings
//     preserved exactly — folding is aggregate-preserving) and their
//     per-session state is evicted.
//   - Bounded memory: per session via the engine's fixed-size batch (the
//     stream is read only as fast as the tools consume it, which
//     flow-controls the client), across sessions via the MaxSessions slots
//     plus the retention policy.
//     Config.IdleTimeout fails sessions whose clients stall, so they stop
//     holding slots.
//   - Shutdown flushes: in-flight sessions get a grace period to drain and
//     report, then are force-closed as failed — never silently dropped.
//   - Overload survival: admission is bounded — the MaxSessions slot wait
//     is the one gate, queue-with-deadline (Config.AdmitTimeout) and always
//     interruptible by shutdown, and refused connections get a typed busy
//     error (tracelog.ErrBusy) with a retry-after hint. Under pressure a
//     degradation ladder sheds auxiliary tools (never the paper's core
//     block-routed detectors), an adaptive sampler drops a deterministic
//     per-block fraction of access events from the session pipeline's
//     batches before delivery (engine.Options.Keep), with exact sampled-out
//     counts stamped into session reports and the aggregate, and
//     incremental snapshots can be deferred (Config.AdaptiveReportInterval);
//     the retention fold can cap per-site detail (Config.FoldSiteCap). At
//     zero pressure every mechanism is inert and reports stay byte-identical
//     — see the README's "Overload survival" section.
//
// cmd/traceload replays scenario corpora over N concurrent live sessions
// (with -verify pinning live == offline byte-identity against a real
// server, and pinning every server-side incremental snapshot as a
// prefix-consistent subset of the final report), optionally open-loop at a
// target events/sec with a queueing-delay summary (-rate), or as a flood
// (-flood) that counts busy rejections as shed load and redials after the
// server's retry-after hint, at most a second.
//
// # Cross-session site identity and the router tier
//
// Warning sites are identified by report.SiteKey, a content-derived key
// (tool, kind, resolved stacks, block provenance — domain-separated, no
// process-local IDs), so the same bug observed in different sessions,
// different processes or different runs folds to ONE site under
// report.Merge, which is commutative and associative over those keys.
// That identity is what makes a multi-process deployment honest:
//
//	clients → traced -router → traced -backend (×N)
//
// fleet.Router (traced -router -backends <spec,...>) accepts ordinary
// client sessions and relays each one verbatim — frame by frame, no
// re-encode — to a backend analyzer chosen by rendezvous hashing over the
// session name, so one backend's death re-shards only its own names. The
// backend (traced -backend, ingest.Config.BackendMode) analyses the stream
// exactly as a standalone daemon would and returns its rendered report
// (relayed byte-identically to the client) plus a structured
// tracelog.BackendResult — counters, summaries and the session's collector in
// wire form, decoded like every payload from a peer through the one bounded
// reader of internal/wire — which the router folds progressively into a
// fleet-wide aggregate. Because folding is a report.Merge over content-derived keys,
// the fleet aggregate is byte-identical to a single-process run of the same
// sessions, regardless of backend assignment or completion order. Failure
// stays contained and honest: a dead backend is marked and routed around
// (its in-flight sessions are counted lost and disclosed in the
// aggregate), while a backend's busy refusal is relayed to the client as
// the same typed tracelog.ErrBusy a standalone server sends — a refusal is
// an answer, not a death. The tier speaks three dedicated frame kinds
// (assign, backend-report, backend-stats) on the same TLF1 framing, fuzzed
// with the rest of the frame layer; see the README's "The router tier"
// section for the wire diagram and operational details.
//
// Dynamic counters without a warning site (memcheck's error and leak totals)
// flow through trace.Summarizer: the engine collects SummaryCounts per tool
// into core.Result.Summaries and each session's summaries, which the ingest
// aggregate sums across sessions.
//
// # Self-observability (internal/obs)
//
// internal/obs is a zero-dependency metrics registry (atomic counters,
// gauges, fixed-bucket histograms, labelled vectors) rendering a
// deterministic Prometheus text snapshot. engine.NewMetrics threads it
// through the hot paths allocation-free (batched event counting,
// pre-resolved labelled series). The daemon tiers are always metered: an
// ingest.Server or fleet.Router publishes on ingest.Config.Metrics or
// fleet.RouterConfig.Metrics, or on a registry of its own when that is nil,
// so "stats" always answers. engine.Options.Metrics stays optional for the
// library callers that have no registry. Instrumentation never touches
// collectors or tool state, so reports are byte-identical with engine
// metrics on or off and a metered daemon's reports match an unmetered
// offline replay (TestEngineMetricsConformance, TestObsConformance).
// traced exposes the registry via the "stats" query, -http (/metrics,
// /healthz, net/http/pprof) and -stats-interval; see the README's
// "Observability" section for the metric catalog.
//
// # The zero-allocation hot path
//
// Steady-state decode and dispatch allocate nothing per event: the decoder
// parses events in place out of a 64 KiB read window (inline varints, an
// event cut off by the window's end carried over as a tail), with fixed
// field scratch and a chunked block slab (freed descriptors are evicted and
// recycled, bounding the block table by the live set); decoders and the
// engine's batches — each with its segment-edge arena — are pooled across
// sessions, and each decoder hands a repeated allocation tag back from its
// own bounded tag table. Identical metadata frame payloads are content-hash
// deduped in a cache capped at 8 MiB, so concurrent sessions from one binary
// share one table copy and no client grows it for good; it is the only
// process-wide table that keeps what a session sends. The price is a
// copy-on-retain contract: a decoded Event.Segment.In points into the
// decoder's edge arena and is valid only until the next Decoder.Next — for
// the events of a batch, until the next Decoder.NextBatch.
//
// The detectors follow the same discipline: the block-routed tools keep
// their shadow state in flat slices over dense-remapped IDs (trace.Dense)
// with slab-backed per-block arrays (trace.Slab) recycled on free, DJIT and
// hybrid take FastTrack-style same-epoch fast paths on repeated accesses
// (skipping state stores, never race checks), and lockset.SetTable memoises
// lock-set transitions so the canonical-set probe runs once per new edge,
// not once per event. Each mechanism has one home: vclock.HB is the
// happens-before core DJIT and the hybrid share, trace.Shadow the block
// shadow of all three race detectors, and lockset.Held the held lock-sets
// lockset and the hybrid share. The whole layout change is pinned byte-exact by
// TestGoldenReportDigests against report digests committed before it.
// TestZeroAlloc* budget tests pin the allocation claims, including the
// lock-set detector's ≤ 0.01 allocs/event over the §4.5 workload; time is
// measured end to end against a real traced by bench/run.sh, with the
// metrics and bounds declared in BENCHMARK.json. See the README's
// "Performance" section for the full architecture.
//
// See README.md for the architecture overview. The public entry point is
// internal/core; the benchmarks in bench_test.go regenerate every table and
// figure of the paper's evaluation, and internal/engine's benchmarks track
// replay throughput.
package repro
