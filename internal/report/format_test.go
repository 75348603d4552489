package report

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

// formatResolver is the fixed resolver behind the generated collectors:
// stacks 1-5 and 7 resolve (3 to no frames at all, 7 to the frame the
// suppressor mutes), 6 and 8-9 do not; blocks 1-3 resolve, one of them to
// an unresolvable stack and one to none, the rest do not.
var formatResolver = &fakeResolver{
	stacks: map[trace.StackID][]trace.Frame{
		1: {{Fn: "main", File: "main.cpp", Line: 10}, {Fn: "Worker::run", File: "worker.cpp", Line: 20}},
		2: {{Fn: "operator new", File: "new.cpp", Line: 1}},
		3: {},
		4: {{Fn: "", File: "", Line: 0}, {Fn: "ünïcode %d", File: "a b.cc", Line: -7}, {Fn: "f", File: "f.cc", Line: math.MaxInt64}},
		5: {{Fn: "a", File: "a.cc", Line: 1}, {Fn: "b", File: "b.cc", Line: 2}, {Fn: "c", File: "c.cc", Line: 3}, {Fn: "d", File: "d.cc", Line: 4}, {Fn: "e", File: "e.cc", Line: 5}},
		7: {{Fn: "suppressed", File: "s.cc", Line: 9}},
	},
	blocks: map[trace.BlockID]*trace.Block{
		1: {ID: 1, Size: 24, Tag: "string-rep", Thread: 1, Stack: 2},
		2: {ID: 2, Size: math.MaxUint32, Tag: "", Thread: -1, Stack: 8},
		3: {ID: 3, Size: 0, Tag: "obj:Invite%s", Thread: math.MaxInt32, Stack: trace.NoStack},
	},
}

// muteFrame suppresses every warning whose innermost frame is "suppressed".
type muteFrame struct{}

func (muteFrame) Suppressed(_ string, frames []trace.Frame) bool {
	return len(frames) > 0 && frames[0].Fn == "suppressed"
}

// genInput hands out a fuzz input one byte at a time, zero once exhausted.
type genInput []byte

func (g *genInput) byte() byte {
	if len(*g) == 0 {
		return 0
	}
	b := (*g)[0]
	*g = (*g)[1:]
	return b
}

func (g *genInput) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(g.byte())
	}
	return v
}

// genCollector builds a collector from fuzz bytes: the first byte picks
// the resolver (or none), then each group of bytes adds one warning, once
// or several times, with every field drawn from its edge cases.
func genCollector(in []byte) *Collector {
	g := genInput(in)
	var res trace.Resolver
	if g.byte()%4 != 0 {
		res = formatResolver
	}
	c := NewCollector(res, muteFrame{})
	tools := []string{"helgrind", "djit", "", "a==b"}
	states := []string{"", "shared modified, no locks", "exclusive to thread 3", "ünïcode %s"}
	for n := 0; len(g) > 0 && n < 64; n++ {
		w := Warning{
			Tool:      tools[g.byte()%4],
			Kind:      Kind(g.byte() % 6), // one past the last kind renders no header line
			Thread:    trace.ThreadID(int8(g.byte())),
			Block:     trace.BlockID(g.byte() % 5),
			Access:    trace.AccessKind(g.byte() % 3),
			Stack:     trace.StackID(g.byte() % 10),
			PrevStack: trace.StackID(g.byte() % 10),
			State:     states[g.byte()%4],
		}
		switch g.byte() % 4 {
		case 0:
			w.Addr = 0
		case 1:
			w.Addr = math.MaxUint64
		default:
			w.Addr = trace.Addr(g.u64())
		}
		w.Off = uint32(g.u64())
		w.Size = uint32(g.u64())
		for r := int(g.byte() % 4); r >= 0; r-- {
			c.Add(w)
		}
	}
	return c
}

// checkFormat compares every rendering entry point against the reference
// renderer on one collector.
func checkFormat(t *testing.T, c *Collector) {
	t.Helper()
	want := refFormat(c)
	if got := c.Format(); got != want {
		t.Fatalf("Format differs from the reference:\n%s\nvs\n%s", got, want)
	}
	if got := string(c.AppendFormat([]byte("== degraded: x\n"))); got != "== degraded: x\n"+want {
		t.Fatalf("AppendFormat onto a prefix differs from the reference:\n%s", got)
	}
	for _, w := range c.Sites() {
		for _, res := range []trace.Resolver{c.res, nil} {
			if got, want := FormatWarning(w, res), refFormatWarning(w, res); got != want {
				t.Fatalf("FormatWarning differs from the reference:\n%s\nvs\n%s", got, want)
			}
		}
	}
}

// formatSeeds is the seed corpus of FuzzFormatDifferential: hand-picked
// edge inputs plus seeded random ones.
func formatSeeds() [][]byte {
	seeds := [][]byte{nil, {0}, {1}, make([]byte, 64), []byte(strings.Repeat("\xff", 200))}
	ramp := make([]byte, 256)
	for i := range ramp {
		ramp[i] = byte(i)
	}
	seeds = append(seeds, ramp, ramp[1:], ramp[7:])
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		b := make([]byte, 1+rng.Intn(1200))
		rng.Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzFormatDifferential holds the append renderer to the fmt-based one it
// replaced: for any generated collector, Format, AppendFormat and
// FormatWarning produce the reference bytes exactly.
func FuzzFormatDifferential(f *testing.F) {
	for _, s := range formatSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkFormat(t, genCollector(in))
	})
}

// TestFormatDifferentialCoverage checks that the seed corpus alone reaches
// every rendering branch the differential must cover, so the CI seed run
// is a real check and not only a smoke test.
func TestFormatDifferentialCoverage(t *testing.T) {
	seen := map[string]bool{}
	mark := func(cond bool, yes, no string) {
		if cond {
			seen[yes] = true
		} else {
			seen[no] = true
		}
	}
	for _, s := range formatSeeds() {
		c := genCollector(s)
		if c.res == nil {
			seen["nil resolver"] = true
		}
		if c.SuppressedSites() > 0 {
			seen["suppressed site"] = true
		}
		stacks := map[trace.StackID]int{}
		for _, w := range c.Sites() {
			if w.Kind <= KindHighLevel {
				mark(w.Count > 1, w.Kind.Category()+" count>1", w.Kind.Category()+" count=1")
			}
			mark(w.PrevStack != trace.NoStack, "PrevStack set", "PrevStack none")
			mark(w.State == "", "empty state", "state")
			switch w.Addr {
			case 0:
				seen["addr 0"] = true
			case math.MaxUint64:
				seen["addr max"] = true
			}
			if c.res == nil {
				continue
			}
			mark(c.res.BlockInfo(w.Block) != nil, "resolved block", "unresolved block")
			if w.Stack == 3 {
				seen["empty stack"] = true
			}
			for _, id := range []trace.StackID{w.Stack, w.PrevStack} {
				if len(c.res.Stack(id)) > 0 {
					stacks[id]++
				}
			}
		}
		for _, n := range stacks {
			if n > 1 {
				seen["shared stack"] = true
			}
		}
		checkFormat(t, c)
	}
	want := []string{"nil resolver", "suppressed site", "PrevStack set", "PrevStack none", "empty state", "state",
		"addr 0", "addr max", "resolved block", "unresolved block", "empty stack", "shared stack"}
	for _, k := range []Kind{KindRace, KindDeadlock, KindUseAfterFree, KindInvalidFree, KindHighLevel} {
		want = append(want, k.Category()+" count=1", k.Category()+" count>1")
	}
	for _, f := range want {
		if !seen[f] {
			t.Errorf("seed corpus never reaches %q", f)
		}
	}
}

// TestFormatConcurrent renders one collector from several goroutines at
// once: the recycled rendering buffers must never be shared between two
// calls in flight.
func TestFormatConcurrent(t *testing.T) {
	seeds := formatSeeds()
	cols := make([]*Collector, len(seeds))
	want := make([]string, len(seeds))
	for i, s := range seeds {
		cols[i] = genCollector(s)
		want[i] = refFormat(cols[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				for i, c := range cols {
					if got := c.Format(); got != want[i] {
						t.Errorf("concurrent Format of seed %d differs from the reference", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
