package exacoll

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCommStackStaysCollapsed keeps the duplication PR 12 removed from
// growing back. Capability forwarding and wrapper-chain walking live in
// internal/comm (comm.Forward, comm.Walk) and (source, tag) matching
// in internal/transport/match; a wrapper that declares its own HasClock,
// a package that type-asserts the Unwrap interface to walk a chain by
// hand, or a mem transport that grows its own unexpected-message queue is
// a second copy of one of them.
func TestCommStackStaysCollapsed(t *testing.T) {
	rules := []struct {
		re    *regexp.Regexp
		scope func(path string) bool // files the rule applies to
		why   string
	}{
		{
			regexp.MustCompile(`func \([^)]*\) HasClock\(\)`),
			func(p string) bool { return !strings.HasPrefix(p, "internal/comm/") },
			"declares HasClock: embed comm.Forward instead of hand-forwarding the clock",
		},
		{
			regexp.MustCompile(`interface\s*\{\s*Unwrap\(\)\s+(comm\.)?Comm\s*\}`),
			func(p string) bool { return !strings.HasPrefix(p, "internal/comm/") },
			"walks a wrapper chain by hand: use comm.Walk",
		},
		{
			regexp.MustCompile(`(?i)unexpected`),
			func(p string) bool { return strings.HasPrefix(p, "internal/transport/mem/") },
			"mentions an unexpected queue: matching belongs to internal/transport/match",
		},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		for _, r := range rules {
			if r.scope(path) && r.re.Match(src) {
				t.Errorf("%s %s", path, r.why)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
