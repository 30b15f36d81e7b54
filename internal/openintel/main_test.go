package openintel

import (
	"os"
	"testing"
)

// TestMain turns the arena poison on for every test in this binary, so a
// measurement list anything keeps past its sink — a store row, a journal
// record — reads garbage once its chunk is recycled, and fails whatever
// compares it.
func TestMain(m *testing.M) {
	poisonArenas = true
	os.Exit(m.Run())
}
