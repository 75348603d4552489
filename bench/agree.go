package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkDef is the part of BENCHMARK.json that -agree reads: the bounds.
type benchmarkDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// agreeFiles compares two results files against the bounds in the benchmark
// definition and prints one row per end-to-end metric and workload.
func agreeFiles(w io.Writer, benchmark, pathA, pathB string) (bool, error) {
	var def benchmarkDef
	if err := readJSON(benchmark, &def); err != nil {
		return false, err
	}
	var a, b resultSet
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	return agree(w, def.EndToEnd, a, b), nil
}

// agree reports whether two result sets of the same commit tell the same
// story: same workloads by fingerprint, no failures, and every end-to-end
// metric within its bound of the other set's value.
func agree(w io.Writer, defs []metricDef, a, b resultSet) bool {
	byName := make(map[string]workloadResult)
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, ra := range a.Workloads {
		rb, found := byName[ra.Name]
		if !found {
			fmt.Fprintf(w, "%-14s missing from B\n", ra.Name)
			ok = false
			continue
		}
		if ra.Fingerprint != rb.Fingerprint {
			fmt.Fprintf(w, "%-14s fingerprints differ: the two sets measured different inputs or reports\n", ra.Name)
			ok = false
		}
		if !ra.Correct || !rb.Correct || ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-14s failed sessions or checks: A %d/%d correct=%v, B %d/%d correct=%v\n",
				ra.Name, ra.Failed, ra.Attempted, ra.Correct, rb.Failed, rb.Attempted, rb.Correct)
			ok = false
		}
		for _, def := range defs {
			va, vb := ra.Metrics[def.Name].Value, rb.Metrics[def.Name].Value
			diff := math.Inf(1)
			if va != 0 {
				diff = math.Abs(vb-va) / math.Abs(va)
			}
			verdict := ""
			if diff > def.Bound {
				verdict = "  OUTSIDE"
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g %7.1f%% %5.0f%%%s\n",
				ra.Name, def.Name, va, vb, 100*diff, 100*def.Bound, verdict)
		}
	}
	if ok {
		fmt.Fprintln(w, "agree: every pair within its bound")
	} else {
		fmt.Fprintln(w, "agree: NOT within bounds")
	}
	return ok
}
