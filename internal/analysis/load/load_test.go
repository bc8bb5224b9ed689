package load

import (
	"path/filepath"
	"testing"
)

// TestExternalTestSeesTestVariant pins the export_test.go idiom: an
// external test package type-checks against its package WITH the
// in-package _test.go files, and a module package it also imports
// (user, which imports exported) is re-checked against that same
// variant, so the types meeting in the test are identical.
func TestExternalTestSeesTestVariant(t *testing.T) {
	pkgs, err := Load(Config{Dir: filepath.Join("testdata", "src"), Tests: true}, "exported")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
		for _, e := range p.TypeErrors {
			t.Errorf("%s: %v", p.Path, e)
		}
	}
	if len(paths) != 2 || paths[0] != "exported" || paths[1] != "exported_test" {
		t.Fatalf("units = %v, want [exported exported_test]", paths)
	}
}

// TestImportsStayPure: without Tests, the analyzed package leaves its
// _test.go files out, so the test-only export does not exist.
func TestImportsStayPure(t *testing.T) {
	pkgs, err := Load(Config{Dir: filepath.Join("testdata", "src")}, "exported")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || len(pkgs[0].TypeErrors) != 0 {
		t.Fatalf("got %d units, errors %v", len(pkgs), pkgs[0].TypeErrors)
	}
	if pkgs[0].Types.Scope().Lookup("Answer") != nil {
		t.Fatal("Answer leaked into the non-test variant")
	}
}
