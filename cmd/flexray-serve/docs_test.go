package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestFlagDocsDrift is the docs-drift guard: every flag registered by
// flexray-serve must appear (as `-name`) in the README and in the
// OPERATIONS.md flag reference. Adding a flag without documenting it
// fails CI; so does renaming one and leaving the old docs behind.
func TestFlagDocsDrift(t *testing.T) {
	fs := flag.NewFlagSet("flexray-serve", flag.ContinueOnError)
	registerFlags(fs)
	for _, doc := range []string{"README.md", "OPERATIONS.md"} {
		path := filepath.Join("..", "..", doc)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		text := string(data)
		fs.VisitAll(func(f *flag.Flag) {
			if !strings.Contains(text, "`-"+f.Name+"`") {
				t.Errorf("%s omits flexray-serve flag `-%s` (%s)", doc, f.Name, f.Usage)
			}
		})
	}
}

// TestMetricsDocsDrift extends the drift guard to the metric names,
// in both directions: every family a freshly built server registers
// must appear (in backticks) in the OPERATIONS.md metrics reference,
// and every row of that reference must name a registered family.
// Instrumenting a new subsystem without documenting the series fails
// CI; so does retiring a series and leaving its row behind.
func TestMetricsDocsDrift(t *testing.T) {
	// Tracing on: the flexray_trace_* span-store series only register
	// on a trace-enabled server, and they must be documented too.
	s, err := newServer(serverConfig{Workers: 1, MaxConcurrent: 1, Timeout: time.Minute,
		TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("job shutdown: %v", err)
		}
	}()
	data, err := os.ReadFile(filepath.Join("..", "..", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	registered := map[string]bool{}
	for _, name := range s.reg.Names() {
		registered[name] = true
		if !strings.Contains(text, "`"+name+"`") {
			t.Errorf("OPERATIONS.md omits registered metric `%s`", name)
		}
	}
	rows := metricRow.FindAllStringSubmatch(text, -1)
	if len(rows) == 0 {
		t.Fatal("OPERATIONS.md has no metrics reference rows")
	}
	for _, row := range rows {
		if !registered[row[1]] {
			t.Errorf("OPERATIONS.md documents `%s`, which the server does not register", row[1])
		}
	}
}

// metricRow matches a metrics reference table row and captures the
// series name.
var metricRow = regexp.MustCompile("(?m)^\\| `((?:flexray|go|process)_[a-z0-9_]+)`")
