package main

import (
	"testing"

	"repro/internal/flagdoc"
)

// TestFlagsDocumented checks that every flag scenariogen declares is named, as
// -name, both in the package doc comment and in README.
func TestFlagsDocumented(t *testing.T) { flagdoc.Check(t) }
