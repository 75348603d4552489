// Quickstart: check a small multi-threaded guest program for data races.
//
// The program has two bugs and one safe pattern:
//   - an unprotected shared counter (reported),
//   - a map updated under inconsistent locks (reported),
//   - a properly locked work queue total (silent).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/vm"
)

func main() {
	opt := core.Options{Seed: 42}
	tools, err := opt.ParseTools("lockset,deadlock")
	if err != nil {
		panic(err)
	}
	opt.Tools = tools
	res, err := core.Run(opt, program)
	if err != nil {
		panic(err)
	}
	fmt.Println("== quickstart: Helgrind-style report ==")
	fmt.Print(res.Report())
	fmt.Printf("guest operations executed: %d\n", res.Steps)
}

// program is the guest application. Guest code receives a *vm.Thread and
// goes through it for every memory access and synchronisation operation,
// which is how the detector observes the execution (the role binary
// instrumentation plays for a real C++ binary).
func program(main *vm.Thread) {
	v := main.VM()

	// Shared state.
	hits := main.Alloc(4, "hits")          // unprotected: BUG
	table := main.Alloc(64, "user-table")  // protected inconsistently: BUG
	total := main.Alloc(8, "queued-total") // protected consistently: OK
	tableMu := v.NewMutex("tableMu")
	totalMu := v.NewMutex("totalMu")

	worker := func(id int) func(*vm.Thread) {
		return func(t *vm.Thread) {
			defer t.Func("worker", "quickstart.go", 40+id)()
			for i := 0; i < 16; i++ {
				// BUG 1: racy statistics counter.
				t.SetLine(44)
				hits.Store32(t, 0, hits.Load32(t, 0)+1)

				// BUG 2: worker 0 forgets the table lock.
				t.SetLine(48)
				if id == 0 {
					table.Store32(t, (i%8)*4, uint32(id))
				} else {
					tableMu.Lock(t)
					table.Store32(t, (i%8)*4, uint32(id))
					tableMu.Unlock(t)
				}

				// OK: consistent locking discipline.
				t.SetLine(57)
				totalMu.Lock(t)
				total.Store64(t, 0, total.Load64(t, 0)+uint64(i))
				totalMu.Unlock(t)
			}
		}
	}

	a := main.Go("worker-0", worker(0))
	b := main.Go("worker-1", worker(1))
	main.Join(a)
	main.Join(b)
}
