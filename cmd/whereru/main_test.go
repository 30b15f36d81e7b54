package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGridMetricsWithoutGrid: a malformed flag value is refused with the
// other flag checks, before the journal is created or a sweep runs — not
// after a whole collection. The name is that of the first such check, on
// the retired -grid-metrics flag.
func TestGridMetricsWithoutGrid(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-drop", "2022-02-24,yesterday"}, "-drop:"},
		{[]string{"-io-fault", "crash@"}, "-io-fault:"},
	} {
		journal := filepath.Join(t.TempDir(), "j")
		err := run(append([]string{"-scale", "20000", "-checkpoint", journal}, tc.args...))
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Fatalf("run(%q) = %v, want the %s error", tc.args, err, tc.want)
		}
		if _, err := os.Stat(journal); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%q: the checkpoint journal exists (stat: %v): collection started before the flags were checked", tc.args, err)
		}
	}
}
