package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The golden-corpus manifest: one schema and one verification routine,
// shared by cmd/scenariogen (-out / -verify) and the in-suite golden tests,
// so the CI integrity step and the test suite can never drift apart.

// ManifestEntry describes one committed golden scenario.
type ManifestEntry struct {
	Name          string   `json:"name"`
	GenSeed       int64    `json:"gen_seed"`
	SchedSeed     int64    `json:"sched_seed"`
	Families      []string `json:"families"`
	Events        int64    `json:"events"`
	SHA256Buggy   string   `json:"sha256_buggy"`
	SHA256Control string   `json:"sha256_control"`
}

// Manifest is the corpus index (manifest.json).
type Manifest struct {
	Scenarios []ManifestEntry `json:"scenarios"`
}

// Digest returns the hex SHA-256 of a trace.
func Digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// RecordEntry regenerates both variants of the scenario at the given
// scheduler seed and returns the manifest entry plus the raw trace bytes.
func RecordEntry(s *Scenario, sched int64) (ManifestEntry, []byte, []byte, error) {
	_, buggy, err := Record(s, true, sched)
	if err != nil {
		return ManifestEntry{}, nil, nil, err
	}
	_, control, err := Record(s, false, sched)
	if err != nil {
		return ManifestEntry{}, nil, nil, err
	}
	events, err := CountEvents(buggy)
	if err != nil {
		return ManifestEntry{}, nil, nil, err
	}
	return ManifestEntry{
		Name:          s.Name(),
		GenSeed:       s.Seed,
		SchedSeed:     sched,
		Families:      s.Families(),
		Events:        events,
		SHA256Buggy:   Digest(buggy),
		SHA256Control: Digest(control),
	}, buggy, control, nil
}

// MarshalManifest renders the manifest in the committed on-disk form
// (indented JSON, trailing newline).
func MarshalManifest(m *Manifest) ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// LoadManifest reads and parses dir/manifest.json.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("bad manifest: %w", err)
	}
	if len(m.Scenarios) == 0 {
		return nil, fmt.Errorf("manifest lists no scenarios")
	}
	return &m, nil
}

// VerifyCorpus checks a corpus directory against its manifest: every entry
// is regenerated and compared against the manifest digests AND the
// committed trace files (a tampered or bit-rotted file fails even if the
// manifest was regenerated alongside it), and the planted-bug expectations
// are re-checked against a live run. It returns the list of problems, empty
// when the corpus is intact.
func VerifyCorpus(dir string) ([]string, error) {
	m, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	var problems []string
	badf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	for _, want := range m.Scenarios {
		s := Generate(GenConfig{Seed: want.GenSeed})
		got, buggy, control, err := RecordEntry(s, want.SchedSeed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", want.Name, err)
		}
		if want.SHA256Buggy != got.SHA256Buggy {
			badf("%s: buggy digest mismatch: manifest %s, regenerated %s", want.Name, want.SHA256Buggy, got.SHA256Buggy)
		}
		if want.SHA256Control != got.SHA256Control {
			badf("%s: control digest mismatch: manifest %s, regenerated %s", want.Name, want.SHA256Control, got.SHA256Control)
		}
		if want.Events != got.Events {
			badf("%s: events mismatch: manifest %d, regenerated %d", want.Name, want.Events, got.Events)
		}
		if fmt.Sprint(want.Families) != fmt.Sprint(got.Families) {
			badf("%s: families mismatch: manifest %v, regenerated %v", want.Name, want.Families, got.Families)
		}
		for _, f := range []struct {
			name  string
			bytes []byte
		}{{want.Name + ".trace", buggy}, {want.Name + ".control.trace", control}} {
			onDisk, err := os.ReadFile(filepath.Join(dir, f.name))
			if err != nil {
				badf("%s: %v", want.Name, err)
				continue
			}
			if Digest(onDisk) != Digest(f.bytes) {
				badf("%s: committed %s differs from regenerated trace", want.Name, f.name)
			}
		}
		res, err := RunLive(s, true, want.SchedSeed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", want.Name, err)
		}
		for _, fail := range CheckBuggy(res.Collector, res.VM, s) {
			badf("%s: %s", want.Name, fail)
		}
	}
	return problems, nil
}
