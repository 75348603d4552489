package main

import (
	"flag"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestFlagsDocumented checks that every flag traced declares is named, as
// -name, both in the package doc comment and in README. The test binary's
// own -test.* flags share the command line and are skipped.
func TestFlagsDocumented(t *testing.T) {
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
