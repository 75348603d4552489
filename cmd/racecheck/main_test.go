package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests run this command: the test binary re-executed with
// RACECHECK_MAIN=1 is racecheck.
func TestMain(m *testing.M) {
	if os.Getenv("RACECHECK_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// racecheck runs the command with args and returns its report body: the
// output after the first line, which names the mode.
func racecheck(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RACECHECK_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("racecheck %s: %v", strings.Join(args, " "), err)
	}
	_, body, _ := strings.Cut(string(out), "\n")
	return body
}

// TestDefaultToolsReport: the default flags and their explicit spelling,
// -tools lockset,deadlock,memcheck, both give the counter workload the
// report body of the lock-set detector with the deadlock and memcheck tools
// attached (testdata/counter.golden).
func TestDefaultToolsReport(t *testing.T) {
	want, err := os.ReadFile("testdata/counter.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-workload", "counter"},
		{"-workload", "counter", "-tools", "lockset,deadlock,memcheck"},
	} {
		if got := racecheck(t, args...); got != string(want) {
			t.Errorf("racecheck %s:\n%s--- want ---\n%s", strings.Join(args, " "), got, want)
		}
	}
}
