package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGridMetricsWithoutGrid: -grid-metrics with no grid to report on is
// refused with the other flag checks, before the journal is created or a
// sweep runs — not after a whole collection that then writes no report.
func TestGridMetricsWithoutGrid(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "j")
	err := run([]string{"-scale", "20000", "-grid-metrics", filepath.Join(dir, "m"), "-checkpoint", journal})
	if err == nil || !strings.Contains(err.Error(), "-grid-metrics requires") {
		t.Fatalf("run = %v, want the -grid-metrics error", err)
	}
	if _, err := os.Stat(journal); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the checkpoint journal exists (stat: %v): collection started before the flags were checked", err)
	}
}
