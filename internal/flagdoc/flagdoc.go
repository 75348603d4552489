// Package flagdoc holds a command's flags to their documentation. Each
// command under cmd/ calls Check from an in-package test.
package flagdoc

import (
	"flag"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
)

// Check fails t for every flag on the command line that is not named, as
// -name, both in the package doc of the command's main.go and in README. It
// runs in the command's directory, so the flags are the command's
// package-level ones; the test binary's own -test.* flags are skipped.
func Check(t *testing.T) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	docs := []struct{ where, text string }{{"the package doc", f.Doc.Text()}, {"README", string(readme)}}
	n := 0
	flag.VisitAll(func(fl *flag.Flag) {
		if strings.HasPrefix(fl.Name, "test.") {
			return // registered by the testing package
		}
		n++
		mention := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(fl.Name) + `($|[^\w-])`)
		for _, doc := range docs {
			if !mention.MatchString(doc.text) {
				t.Errorf("flag -%s is not mentioned in %s", fl.Name, doc.where)
			}
		}
	})
	if n == 0 {
		t.Fatal("no flags registered")
	}
}
