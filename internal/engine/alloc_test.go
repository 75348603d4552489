package engine_test

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/highlevel"
	"repro/internal/lockset"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/tracelog"
	"repro/internal/vm"
)

// nopTool ignores every event — dispatch overhead with zero analysis cost,
// isolating the engine's own allocation behaviour.
type nopTool struct{ trace.BaseSink }

func nopSpecs() []trace.ToolSpec {
	return []trace.ToolSpec{
		{Name: "nop-block", Routing: trace.RouteBlock, Factory: func(trace.Reporter) trace.Sink { return nopTool{} }},
		{Name: "nop-bcast", Routing: trace.RouteBroadcast, Factory: func(trace.Reporter) trace.Sink { return nopTool{} }},
	}
}

// TestZeroAllocDispatch pins the dispatch side: once the batch and its edge
// arena are warmed, pushing a full event stream through the pipeline's Sink
// methods — batching and tool-major delivery — allocates nothing. GC is
// disabled during the measurement so it cannot drain the sync.Pool mid-run.
func TestZeroAllocDispatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items at random; budget enforced by the non-race CI step")
	}
	s := scenario.Generate(scenario.GenConfig{Seed: 3})
	_, log, err := scenario.Record(s, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	events := decodeEvents(t, log)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	seq, err := engine.NewSequential(engine.Options{Tools: nopSpecs()})
	if err != nil {
		t.Fatal(err)
	}
	push := func() {
		for i := range events {
			events[i].Deliver(seq)
		}
	}
	for i := 0; i < 3; i++ { // warm: take the batch, grow its edge arena
		push()
	}
	allocs := testing.AllocsPerRun(10, push)
	if perEvent := allocs / float64(len(events)); perEvent != 0 {
		t.Errorf("%.4f allocs/event (%.1f allocs per %d-event pass), want 0", perEvent, allocs, len(events))
	}
	if _, err := seq.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroAllocDetectorPath budgets the full analysis path, not just
// dispatch: a registry run end to end over a recorded stream, including
// pipeline construction, detector state growth, end-of-stream passes and the
// merged report, with the fixed costs of a fresh pipeline amortised over one
// trace. The dense-index/slab/epoch state layout keeps the complete six-tool
// registry — lock-set, DJIT, hybrid, deadlock, memcheck, high-level — at ≤ 1
// allocation per event even on a small trace, the lock-set detector alone
// over the §4.5 workload at ≤ 0.01, and the view-consistency checker alone
// over it at ≤ 0.05.
func TestZeroAllocDetectorPath(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments every access; budget enforced by the non-race CI step")
	}
	for _, in := range []struct {
		name   string
		w      harness.PerfWorkload
		tools  func() []trace.ToolSpec
		budget float64
	}{
		// The §4.5 workload, scaled down: a few thousand events is
		// enough to amortise the fixed pipeline/detector construction the
		// budget includes, where the ~100-event conformance scenarios are not.
		{"all-tools", harness.PerfWorkload{Threads: 2, Iters: 200, Slots: 16, Blocks: 16, Seed: 1}, scenario.AllTools, 1.0},
		// The §4.5 workload at full size, one block per table slot.
		{"lockset-4.5", harness.PerfWorkload{Threads: 4, Iters: 2000, Slots: 64, Blocks: 64, Seed: 1},
			func() []trace.ToolSpec { return []trace.ToolSpec{lockset.Spec(lockset.ConfigHWLCDR())} }, 0.01},
		// The view-consistency checker alone over the full §4.5 workload:
		// its critical sections reuse pooled views, so a design that
		// allocates per Access or per section would exceed the budget.
		{"highlevel-4.5", harness.PerfWorkload{Threads: 4, Iters: 2000, Slots: 64, Seed: 1},
			func() []trace.ToolSpec { return []trace.ToolSpec{highlevel.Spec(highlevel.Config{})} }, 0.05},
	} {
		t.Run(in.name, func(t *testing.T) {
			_, log, err := in.w.RecordTrace()
			if err != nil {
				t.Fatal(err)
			}
			events := decodeEvents(t, log)

			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			run := func() {
				seq, err := engine.NewSequential(engine.Options{Tools: in.tools()})
				if err != nil {
					t.Fatal(err)
				}
				for i := range events {
					events[i].Deliver(seq)
				}
				if _, err := seq.Close(); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm shared state (interned strings, pooled buffers)
			allocs := testing.AllocsPerRun(5, run)
			perEvent := allocs / float64(len(events))
			if perEvent > in.budget {
				t.Errorf("%.4f allocs/event (%.0f allocs per %d-event run), budget %g", perEvent, allocs, len(events), in.budget)
			}
			t.Logf("%.4f allocs/event (%d events)", perEvent, len(events))
		})
	}
}

// recordFlood records a scaled-down warning flood: every worker walks the
// same sites (distinct lines in a few functions), each an unlocked
// load+store on its own word, repeated reps times — so nearly every access
// after the first pass folds into an existing site. The block is not freed,
// so its shadow state survives the run.
func recordFlood(t *testing.T, threads, sites, reps int) (*vm.VM, []tracelog.Event) {
	t.Helper()
	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	v := vm.New(vm.Options{Seed: 1, Quantum: 10})
	v.AddTool(rec)
	err := v.Run(func(main *vm.Thread) {
		b := main.Alloc(sites*8, "flood")
		workers := make([]*vm.Thread, threads)
		for th := range workers {
			workers[th] = main.Go(fmt.Sprintf("flood-%d", th), func(t *vm.Thread) {
				for s := 0; s < sites; s++ {
					pop := t.Func(fmt.Sprintf("Flood::stage%d", s/10), "flood.cc", 100*(s/10))
					t.SetLine(100*(s/10) + s%10 + 1)
					for r := 0; r < reps; r++ {
						b.Store64(t, s*8, b.Load64(t, s*8)+1)
					}
					pop()
				}
			})
		}
		for _, w := range workers {
			main.Join(w)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return v, decodeEvents(t, buf.Bytes())
}

// TestZeroAllocFoldedWarning budgets the reporting path: a warning that
// folds into an existing site costs a count increment and nothing on the
// heap, whether it enters the collector directly, after the collector was
// cloned, compacted or merged, or through the lock-set detector's
// SHARED-MODIFIED state, and a flood of such warnings through the whole
// six-tool registry stays within the end-to-end budget. Past the fold, a
// Merge costs a number of allocations set by its map's tables, not by its
// sites, and rendering costs one per distinct block and stack at most.
func TestZeroAllocFoldedWarning(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments every access; budget enforced by the non-race CI step")
	}
	t.Run("collector-add", func(t *testing.T) {
		col := report.NewCollector(nil, nil)
		w := report.Warning{Tool: "helgrind", Kind: report.KindRace, Addr: 0x1000, Stack: 3, State: "shared modified, no locks"}
		if !col.Add(w) {
			t.Fatal("first occurrence did not open a site")
		}
		if allocs := testing.AllocsPerRun(100, func() { col.Add(w) }); allocs != 0 {
			t.Errorf("folded Collector.Add allocated %.1f per call, want 0", allocs)
		}
		if got := col.Sites()[0].Count; got != 102 {
			t.Errorf("site count %d, want 102", got)
		}
	})

	t.Run("collector-add-after-clone-compact-merge", func(t *testing.T) {
		col := report.NewCollector(nil, nil)
		w := report.Warning{Tool: "helgrind", Kind: report.KindRace, Addr: 0x1000, State: "shared modified, no locks"}
		for s := trace.StackID(1); s <= 8; s++ {
			w.Stack = s
			col.Add(w)
		}
		w.Stack = 2
		clone := col.Clone()
		merged := report.Merge(nil, nil, col, clone)
		col.CompactTail(4)
		for _, c := range []struct {
			name string
			col  *report.Collector
			base int
		}{{"compacted original", col, 1}, {"clone", clone, 1}, {"merge output", merged, 2}} {
			c.col.Add(w) // refill the stack's slot
			if allocs := testing.AllocsPerRun(100, func() { c.col.Add(w) }); allocs != 0 {
				t.Errorf("folded Add on the %s allocated %.1f per call, want 0", c.name, allocs)
			}
			for _, site := range c.col.Sites() {
				if got, want := site.Count, c.base+102; site.Stack == w.Stack && got != want {
					t.Errorf("%s: site count %d, want %d", c.name, got, want)
				}
			}
		}
	})

	t.Run("merge-4000-sites", func(t *testing.T) {
		// Two collectors of 4,000 sites each, half of them shared: the
		// output's map is sized once and its exemplars take at most two
		// slabs, so the count does not follow the sites. The map still
		// allocates one table per ~1,000 entries, which the budget covers.
		const sites, budget = 4000, 64
		a, b := report.NewCollector(nil, nil), report.NewCollector(nil, nil)
		for i := 0; i < sites; i++ {
			a.Add(report.Warning{Tool: "helgrind", Kind: report.KindRace, Stack: trace.StackID(1 + i)})
			b.Add(report.Warning{Tool: "helgrind", Kind: report.KindRace, Stack: trace.StackID(1 + i + sites/2)})
		}
		var m *report.Collector
		allocs := testing.AllocsPerRun(5, func() { m = report.Merge(nil, nil, a, b) })
		if m.Locations() != sites*3/2 {
			t.Fatalf("merged %d sites, want %d", m.Locations(), sites*3/2)
		}
		if allocs > budget {
			t.Errorf("Merge of two %d-site collectors allocated %.0f, budget %d", sites, allocs, budget)
		}
		t.Logf("%.0f allocs for %d merged sites", allocs, m.Locations())
	})

	t.Run("format-per-block-and-stack", func(t *testing.T) {
		// 400 sites (20 stacks × 4 tools × 5 kinds) over 10 blocks,
		// resolved through the daemon's resolver, whose BlockInfo copies
		// the descriptor.
		const stacks, blocks, constant = 20, 10, 16
		md := &tracelog.Metadata{Stacks: map[trace.StackID][]trace.Frame{}, Blocks: map[trace.BlockID]trace.Block{}}
		for s := 1; s <= stacks; s++ {
			md.Stacks[trace.StackID(s)] = []trace.Frame{{Fn: fmt.Sprintf("fn%d", s), File: "f.cc", Line: s}}
		}
		for b := 1; b <= blocks; b++ {
			md.Blocks[trace.BlockID(b)] = trace.Block{ID: trace.BlockID(b), Size: 64, Tag: "obj", Thread: 1, Stack: trace.StackID(b)}
		}
		res := tracelog.NewTableResolver()
		res.AddMetadata(md)
		col := report.NewCollector(res, nil)
		tools := []string{"helgrind", "djit", "hybrid", "memcheck"}
		for i := 0; i < 400; i++ {
			col.Add(report.Warning{Tool: tools[i/stacks%4], Kind: report.Kind(i / stacks / 4), Addr: trace.Addr(i * 8),
				Stack: trace.StackID(1 + i%stacks), Block: trace.BlockID(1 + i%blocks), Thread: trace.ThreadID(i)})
		}
		if col.Locations() != 400 {
			t.Fatalf("%d sites, want 400", col.Locations())
		}
		buf := make([]byte, 0, 2*len(col.Format()))
		allocs := testing.AllocsPerRun(5, func() { col.AppendFormat(buf[:0]) })
		if allocs > stacks+blocks+constant {
			t.Errorf("AppendFormat of %d sites allocated %.0f, budget %d (blocks + stacks + %d)",
				col.Locations(), allocs, stacks+blocks+constant, constant)
		}
		t.Logf("%.0f allocs for %d sites", allocs, col.Locations())
	})

	t.Run("lockset-shared-modified", func(t *testing.T) {
		v, events := recordFlood(t, 2, 4, 4)
		col := report.NewCollector(v, nil)
		d := lockset.New(lockset.ConfigHWLCDR(), col)
		var racy *trace.Access
		for i := range events {
			events[i].Deliver(d)
			if events[i].Op == tracelog.OpAccess && events[i].Access.Kind == trace.Write {
				racy = &events[i].Access
			}
		}
		if col.Locations() == 0 || racy == nil {
			t.Fatal("the flood raised no lock-set warning")
		}
		sites := col.Locations()
		if allocs := testing.AllocsPerRun(100, func() { d.Access(racy) }); allocs != 0 {
			t.Errorf("racy access on a SHARED-MODIFIED granule allocated %.1f per call, want 0", allocs)
		}
		if col.Locations() != sites {
			t.Errorf("repeated access opened new sites: %d, want %d", col.Locations(), sites)
		}
	})

	t.Run("flood-all-tools", func(t *testing.T) {
		v, events := recordFlood(t, 3, 200, 8)
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		sites := 0
		run := func() {
			seq, err := engine.NewSequential(engine.Options{Tools: scenario.AllTools(), Resolver: v})
			if err != nil {
				t.Fatal(err)
			}
			for i := range events {
				events[i].Deliver(seq)
			}
			col, err := seq.Close()
			if err != nil {
				t.Fatal(err)
			}
			sites = col.Locations()
		}
		run() // warm pooled buffers
		allocs := testing.AllocsPerRun(5, run)
		if sites == 0 {
			t.Fatal("the flood raised no warning")
		}
		perEvent := allocs / float64(len(events))
		if perEvent > 1 {
			t.Errorf("%.4f allocs/event (%.0f allocs per %d-event run, %d sites), budget 1", perEvent, allocs, len(events), sites)
		}
		t.Logf("%.4f allocs/event (%d events, %d sites)", perEvent, len(events), sites)
	})
}
