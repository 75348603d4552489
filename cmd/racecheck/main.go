// Command racecheck runs one of the built-in demonstration workloads under a
// chosen tool set and lock-set configuration and prints the Helgrind-style
// report — the interactive entry point to the library, analogous to invoking
// `valgrind --tool=helgrind ./program`.
//
// Usage:
//
//	racecheck -list
//	racecheck -workload stringrace -config original
//	racecheck -workload counter -tools djit
//	racecheck -workload threadpool -config hwlc+dr -edges full
//	racecheck -workload birthday -tools lockset,highlevel
//	racecheck -workload counter -tools all
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/cppmodel"
	"repro/internal/lockset"
	"repro/internal/trace"
	"repro/internal/vm"
)

// workloads are small self-contained guest programs exercising the paper's
// key scenarios.
var workloads = map[string]struct {
	desc string
	body func(rt *cppmodel.Runtime) func(*vm.Thread)
}{
	"counter": {
		desc: "two threads increment an unprotected counter (a plain data race)",
		body: func(rt *cppmodel.Runtime) func(*vm.Thread) {
			return func(main *vm.Thread) {
				b := main.Alloc(4, "counter")
				w := func(t *vm.Thread) {
					for i := 0; i < 10; i++ {
						b.Store32(t, 0, b.Load32(t, 0)+1)
					}
				}
				a := main.Go("a", w)
				c := main.Go("b", w)
				main.Join(a)
				main.Join(c)
			}
		},
	},
	"locked": {
		desc: "the same counter, properly locked (no warnings expected)",
		body: func(rt *cppmodel.Runtime) func(*vm.Thread) {
			return func(main *vm.Thread) {
				m := main.VM().NewMutex("m")
				b := main.Alloc(4, "counter")
				w := func(t *vm.Thread) {
					for i := 0; i < 10; i++ {
						m.Lock(t)
						b.Store32(t, 0, b.Load32(t, 0)+1)
						m.Unlock(t)
					}
				}
				a := main.Go("a", w)
				c := main.Go("b", w)
				main.Join(a)
				main.Join(c)
			}
		},
	},
	"stringrace": {
		desc: "Fig. 8: COW string copied across threads (false positive under -config original)",
		body: func(rt *cppmodel.Runtime) func(*vm.Thread) {
			return func(main *vm.Thread) {
				text := rt.NewCowString(main, "contents")
				worker := main.Go("worker", func(t *vm.Thread) {
					cp := text.Copy(t)
					cp.Release(t)
				})
				main.Sleep(10)
				cp := text.Copy(main) // the Fig. 8 line 22 conflict
				cp.Release(main)
				main.Join(worker)
				text.Release(main)
			}
		},
	},
	"destructor": {
		desc: "§4.2.1: object deleted by a non-creator thread (false positive unless DR is on)",
		body: func(rt *cppmodel.Runtime) func(*vm.Thread) {
			base := cppmodel.NewClass("SessionBase", "session.h")
			derived := base.Derive("Session", "session.h")
			return func(main *vm.Thread) {
				v := main.VM()
				m1, m2 := v.NewMutex("a"), v.NewMutex("b")
				obj := rt.New(main, derived)
				use := func(m *vm.Mutex) func(*vm.Thread) {
					return func(t *vm.Thread) {
						m.Lock(t)
						obj.VCall(t, "touch", nil)
						m.Unlock(t)
					}
				}
				w1 := main.Go("w1", use(m1))
				w2 := main.Go("w2", use(m2))
				main.Join(w1)
				main.Join(w2)
				del := main.Go("deleter", func(t *vm.Thread) { rt.Delete(t, obj) })
				main.Join(del)
			}
		},
	},
	"threadpool": {
		desc: "Fig. 11: ownership transfer through a queue (false positive unless -edges full)",
		body: func(rt *cppmodel.Runtime) func(*vm.Thread) {
			return func(main *vm.Thread) {
				v := main.VM()
				jobs := v.NewQueue("jobs", 0)
				done := v.NewQueue("done", 0)
				worker := main.Go("pool-worker", func(t *vm.Thread) {
					for {
						msg, ok := jobs.Get(t)
						if !ok {
							return
						}
						blk := msg.(*vm.Block)
						blk.Store32(t, 0, blk.Load32(t, 0)*2)
						done.Put(t, blk)
					}
				})
				b := main.Alloc(8, "job-data")
				b.Store32(main, 0, 21)
				jobs.Put(main, b)
				done.Get(main)
				jobs.Close(main)
				main.Join(worker)
			}
		},
	},
	"birthday": {
		desc: "§2.1: date-of-birth/age updated in separate critical sections (needs -tools ...,highlevel)",
		body: func(rt *cppmodel.Runtime) func(*vm.Thread) {
			return func(main *vm.Thread) {
				v := main.VM()
				mu := v.NewMutex("personMu")
				person := main.Alloc(8, "person")
				writer := main.Go("writer", func(t *vm.Thread) {
					defer t.Func("Person::setDateOfBirth", "person.cpp", 20)()
					mu.Lock(t)
					person.Store32(t, 0, 19800101)
					mu.Unlock(t)
					t.PopFrame()
					t.PushFrame("Person::setAge", "person.cpp", 30)
					mu.Lock(t)
					person.Store32(t, 4, 44)
					mu.Unlock(t)
				})
				reader := main.Go("reader", func(t *vm.Thread) {
					defer t.Func("Person::snapshot", "person.cpp", 50)()
					mu.Lock(t)
					person.Load32(t, 0)
					person.Load32(t, 4)
					mu.Unlock(t)
				})
				main.Join(writer)
				main.Join(reader)
			}
		},
	},
	"deadlock": {
		desc: "ABBA lock inversion (reported by the deadlock tool even when it does not strike)",
		body: func(rt *cppmodel.Runtime) func(*vm.Thread) {
			return func(main *vm.Thread) {
				v := main.VM()
				m1, m2 := v.NewMutex("A"), v.NewMutex("B")
				gate := v.NewSemaphore("gate", 0)
				a := main.Go("a", func(t *vm.Thread) {
					m1.Lock(t)
					m2.Lock(t)
					m2.Unlock(t)
					m1.Unlock(t)
					gate.Post(t)
				})
				b := main.Go("b", func(t *vm.Thread) {
					gate.Wait(t)
					m2.Lock(t)
					m1.Lock(t)
					m1.Unlock(t)
					m2.Unlock(t)
				})
				main.Join(a)
				main.Join(b)
			}
		},
	},
}

func main() {
	var (
		workload = flag.String("workload", "counter", "workload to run (see -list)")
		list     = flag.Bool("list", false, "list workloads")
		config   = flag.String("config", "hwlc+dr", "lockset configuration: original | hwlc | hwlc+dr")
		edges    = flag.String("edges", "helgrind", "segment edges: helgrind | full")
		seed     = flag.Int64("seed", 1, "scheduler seed")
		tools    = flag.String("tools", "lockset,deadlock,memcheck", "comma-separated tool set run in one pass: "+strings.Join(core.ToolNames, ", ")+"; 'all' for every tool")
	)
	flag.Parse()

	if *list {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-12s %s\n", n, workloads[n].desc)
		}
		return
	}
	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "racecheck: unknown workload %q (try -list)\n", *workload)
		os.Exit(2)
	}

	opt := core.Options{Seed: *seed}
	annotate := false
	switch *config {
	case "original":
		opt.Lockset = lockset.ConfigOriginal()
	case "hwlc":
		opt.Lockset = lockset.ConfigHWLC()
	case "hwlc+dr":
		opt.Lockset = lockset.ConfigHWLCDR()
		annotate = true
	default:
		fmt.Fprintf(os.Stderr, "racecheck: unknown config %q\n", *config)
		os.Exit(2)
	}
	if *edges == "full" {
		opt.Lockset.Mask = trace.MaskFull
	}
	// Every named tool runs over one pass of the stream, using the lock-set
	// configuration assembled above.
	specs, err := opt.ParseTools(*tools)
	if err != nil {
		fmt.Fprintln(os.Stderr, "racecheck:", err)
		os.Exit(2)
	}
	opt.Tools = specs

	rt := cppmodel.NewRuntime(cppmodel.Options{AnnotateDeletes: annotate, ForceNew: true})
	res, err := core.Run(opt, wl.body(rt))
	if err != nil {
		fmt.Fprintln(os.Stderr, "racecheck:", err)
		os.Exit(1)
	}
	fmt.Printf("== workload %q under tools=%s (%s) (seed %d)\n\n", *workload, *tools, *config, *seed)
	fmt.Print(res.Report())
	if res.Err != nil {
		fmt.Printf("\nguest execution ended abnormally: %v\n", res.Err)
	}
}
