// Package suppress implements Valgrind-style suppression files (§2.3.1):
// named rules matching a warning kind and a call-stack pattern, used to mute
// known false positives or findings in unmodifiable third-party code.
//
// The accepted format is a simplified Valgrind suppression syntax:
//
//	{
//	   <rule name>
//	   Helgrind:Race
//	   fun:std::string::_Rep::_M_grab*
//	   fun:std::string::string
//	   ...
//	}
//
// Each fun: line matches one stack frame from the innermost outwards; "..."
// matches any number of frames; "*" in a pattern matches any suffix. A rule
// matches when all its frame patterns are satisfied in order.
package suppress

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/trace"
)

// Rule is one suppression entry.
type Rule struct {
	Name   string
	Kind   string   // warning kind pattern, e.g. "Race" or "*"
	Frames []string // fun: patterns, innermost first; "..." wildcard allowed
}

// File is a parsed suppression file. One File may be shared by concurrent
// consumers: matching reads only immutable rule data, and the hit counters
// are mutex-protected.
type File struct {
	Rules []Rule
	mu    sync.Mutex
	hits  map[string]int
}

// Parse reads rules from r.
func Parse(r io.Reader) (*File, error) {
	f := &File{hits: make(map[string]int)}
	sc := bufio.NewScanner(r)
	var cur *Rule
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			continue
		case line == "{":
			if cur != nil {
				return nil, fmt.Errorf("suppress: line %d: nested rule", lineNo)
			}
			cur = &Rule{}
		case line == "}":
			if cur == nil {
				return nil, fmt.Errorf("suppress: line %d: '}' outside rule", lineNo)
			}
			if cur.Name == "" {
				return nil, fmt.Errorf("suppress: line %d: rule without a name", lineNo)
			}
			f.Rules = append(f.Rules, *cur)
			cur = nil
		default:
			if cur == nil {
				return nil, fmt.Errorf("suppress: line %d: content outside rule", lineNo)
			}
			switch {
			case cur.Name == "":
				cur.Name = line
			case cur.Kind == "":
				k := line
				if i := strings.IndexByte(k, ':'); i >= 0 {
					k = k[i+1:] // drop the tool prefix ("Helgrind:")
				}
				cur.Kind = k
			case line == "...":
				cur.Frames = append(cur.Frames, "...")
			case strings.HasPrefix(line, "fun:"):
				cur.Frames = append(cur.Frames, strings.TrimPrefix(line, "fun:"))
			default:
				return nil, fmt.Errorf("suppress: line %d: unrecognised line %q", lineNo, line)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur != nil {
		return nil, fmt.Errorf("suppress: unterminated rule %q", cur.Name)
	}
	return f, nil
}

// ParseString parses rules from a string.
func ParseString(s string) (*File, error) { return Parse(strings.NewReader(s)) }

// Suppressed implements report.Suppressor: it reports whether any rule
// matches the warning kind and resolved stack (innermost frame first in the
// matching order, i.e. the last frame of the slice).
func (f *File) Suppressed(kind string, frames []trace.Frame) bool {
	if f == nil {
		return false
	}
	names := make([]string, 0, len(frames))
	for i := len(frames) - 1; i >= 0; i-- { // innermost first
		names = append(names, frames[i].Fn)
	}
	for i := range f.Rules {
		r := &f.Rules[i]
		if !matchPattern(r.Kind, kind) && !matchPattern(strings.ToLower(r.Kind), strings.ToLower(kind)) {
			continue
		}
		if matchFrames(r.Frames, names) {
			f.mu.Lock()
			f.hits[r.Name]++
			f.mu.Unlock()
			return true
		}
	}
	return false
}

// Hits returns per-rule match counts (useful for pruning stale rules).
func (f *File) Hits() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int, len(f.hits))
	for k, v := range f.hits {
		out[k] = v
	}
	return out
}

// matchFrames matches patterns against frame names, supporting the "..."
// skip-any wildcard.
func matchFrames(patterns, names []string) bool {
	var match func(pi, ni int) bool
	match = func(pi, ni int) bool {
		if pi == len(patterns) {
			return true // all patterns satisfied; extra outer frames are fine
		}
		if patterns[pi] == "..." {
			if match(pi+1, ni) {
				return true
			}
			for k := ni; k < len(names); k++ {
				if match(pi+1, k) {
					return true
				}
			}
			return false
		}
		if ni >= len(names) {
			return false
		}
		if !matchPattern(patterns[pi], names[ni]) {
			return false
		}
		return match(pi+1, ni+1)
	}
	return match(0, 0)
}

// matchPattern implements glob matching with '*' (any run) and '?' (any one).
func matchPattern(pat, s string) bool {
	var match func(p, t string) bool
	match = func(p, t string) bool {
		for len(p) > 0 {
			switch p[0] {
			case '*':
				for p = p[1:]; len(p) > 0 && p[0] == '*'; p = p[1:] {
				}
				if len(p) == 0 {
					return true
				}
				for i := 0; i <= len(t); i++ {
					if match(p, t[i:]) {
						return true
					}
				}
				return false
			case '?':
				if len(t) == 0 {
					return false
				}
				p, t = p[1:], t[1:]
			default:
				if len(t) == 0 || p[0] != t[0] {
					return false
				}
				p, t = p[1:], t[1:]
			}
		}
		return len(t) == 0
	}
	return match(pat, s)
}
